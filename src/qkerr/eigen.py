"""Eigensolvers behind the block dynamics.

Two validated front ends over LAPACK (numpy.linalg.eigh):

* eigh_tridiagonal -- the real symmetric tridiagonal Hamiltonian blocks,
  assembled densely (blocks are at most a few hundred rows).  The test
  suite checks it against a Sturm-sequence bisection oracle.
* eigh_hermitian -- the complex Hermitian reduced density matrices and the
  dense reference Hamiltonian.

Both are deterministic: eigenvalues ascending, and each eigenvector is
normalized so its first significant component is real and positive.  A
LAPACK failure surfaces as ConvergenceError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError

_HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class BlockSpectrum:
    """Spectral data of one excitation block: ascending eigenvalues and the
    orthogonal matrix whose columns are the matching eigenvectors."""

    n_total: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.n_total + 1


def eigh_tridiagonal(diag, offdiag) -> BlockSpectrum:
    """Diagonalize a real symmetric tridiagonal matrix.

    diag has the n diagonal entries, offdiag the n - 1 couplings.  The
    matrix is assembled densely and handed to LAPACK (numpy.linalg.eigh);
    a LAPACK failure is raised as ConvergenceError naming the block.
    """
    d = np.asarray(diag, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("diag must be a nonempty 1-d array")
    n = d.size
    e = np.asarray(offdiag, dtype=float)
    if e.shape != (n - 1,):
        raise ValueError(f"offdiag must have length {n - 1}, got shape {e.shape}")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ValueError("tridiagonal entries must be finite")

    dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    try:
        vals, vecs = np.linalg.eigh(dense)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolve failed on block N={n - 1}: {exc}") from exc
    return BlockSpectrum(n_total=n - 1, eigenvalues=vals, eigenvectors=_fix_signs(vecs))


def eigh_hermitian(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    The input must be Hermitian to 1e-12 (relative to its largest entry);
    it is symmetrized as (M + M+)/2 before the solve so roundoff in the
    caller cannot leak into the spectrum.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    m = m.astype(complex, copy=False)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.abs(m).max()))
    defect = float(np.abs(m - m.conj().T).max())
    if defect > _HERMITIAN_TOL * scale:
        raise ValueError(
            f"matrix is not Hermitian: max |M - M+| = {defect:.3e} "
            f"exceeds {_HERMITIAN_TOL * scale:.3e}"
        )
    sym = 0.5 * (m + m.conj().T)
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"Hermitian eigensolve failed: {exc}") from exc
    return vals, _fix_signs(vecs)


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column's phase so its first significant entry is real > 0."""
    mags = np.abs(vecs)
    lead = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)
    pivots = vecs[lead, np.arange(vecs.shape[1])]
    # hypot, not np.abs: numpy's vectorized complex abs can round differently
    # from the scalar abs(pivot), and the phases should not depend on that
    moduli = np.hypot(pivots.real, pivots.imag)
    phases = np.divide(moduli, pivots, out=np.ones_like(pivots), where=pivots != 0)
    return vecs * phases
