"""Eigensolver behind the block dynamics.

eigh_tridiagonal is a validated front end over LAPACK (numpy.linalg.eigh)
for the real symmetric tridiagonal Hamiltonian blocks, assembled densely
(blocks are at most a few hundred rows).  The test suite checks it against
a Sturm-sequence bisection oracle.  Eigenvalues come out ascending and the
eigenvectors as LAPACK returns them: the propagator V diag(e^{-i lambda t})
V^T does not depend on their signs.  A LAPACK failure surfaces as
ConvergenceError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError


@dataclass(frozen=True)
class BlockSpectrum:
    """Spectral data of one excitation block: ascending eigenvalues and the
    orthogonal matrix whose columns are the matching eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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
    return BlockSpectrum(eigenvalues=vals, eigenvectors=vecs)

