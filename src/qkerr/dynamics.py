"""State preparation, block-spectral time evolution, and entanglement measures.

A pure state of the coupled system lives on the triangular lattice
{(n, m): n + m <= n_max} (n = deformed-field quanta, m = atomic quanta)
and is stored as a dense complex table psi[n, m].  Because the total
count is conserved, evolution acts independently on each anti-diagonal
n + m = N: with a_m = psi(N - m, m) and the block spectrum (V, lambda),

    a(t) = V diag(exp(-i lambda t)) V^T a(0),

so one diagonalization per block serves every requested time, and only
the blocks where the state has weight need one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from . import qalgebra
from .blocks import SystemParams, build_block, lattice_index, total_hamiltonian_dense
from .eigen import BlockSpectrum, eigh_tridiagonal
from .exceptions import ConvergenceError

_NORM_TOL = 1e-10
_EIGENVALUE_FLOOR = -1e-10
_TRACE_TOL = 1e-10
_HERM_TOL = 1e-12
# the dense reference evolver is meant for cross-checks at test scale
DENSE_REFERENCE_N_CAP = 20


@dataclass(frozen=True)
class TwoModeState:
    """Unit-norm pure state on the triangle n + m <= n_max.

    amplitudes[n, m] is the coefficient of |n field quanta; m atomic
    quanta>; entries beyond the triangle must be exactly zero.
    """

    n_max: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        dim = self.n_max + 1
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")
        if amps.shape != (dim, dim):
            raise ValueError(
                f"amplitude table must be {dim}x{dim}, got {amps.shape}"
            )
        n_idx, m_idx = np.indices(amps.shape)
        if np.any(amps[n_idx + m_idx > self.n_max] != 0):
            raise ValueError("amplitudes beyond n + m = n_max must be zero")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", amps)

    def amplitude(self, n: int, m: int) -> complex:
        return complex(self.amplitudes[n, m])

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def occupied_blocks(self) -> tuple[int, ...]:
        """Ascending total excitations N = n + m that hold nonzero weight."""
        n_idx, m_idx = np.indices(self.amplitudes.shape)
        totals = (n_idx + m_idx)[self.amplitudes != 0]
        return tuple(int(n) for n in np.unique(totals))


@dataclass(frozen=True)
class SpectralCache:
    """Spectra of some excitation blocks of one parameter set, keyed by
    total excitation N."""

    params: SystemParams
    blocks: Mapping[int, BlockSpectrum]


@dataclass(frozen=True)
class DensityMatrix:
    """Reduced density matrix: finite, Hermitian, unit trace.

    Positivity is not verified here (it costs a diagonalization); the
    entropy routine rejects eigenvalues below -1e-10.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.matrix, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"density matrix must be square, got {rho.shape}")
        if not np.all(np.isfinite(rho)):
            raise ValueError("density matrix entries must be finite")
        scale = max(1.0, float(np.abs(rho).max()))
        defect = float(np.abs(rho - rho.conj().T).max())
        if defect > _HERM_TOL * scale:
            raise ValueError(f"density matrix not Hermitian: defect {defect:.3e}")
        trace = complex(np.trace(rho))
        if abs(trace - 1.0) > _TRACE_TOL:
            raise ValueError(f"density matrix trace deviates from 1 by {abs(trace - 1.0):.3e}")
        object.__setattr__(self, "matrix", rho)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def prepare_fock(fock_n: int) -> TwoModeState:
    """Field Fock state |fock_n> with the atomic mode in vacuum.

    In the deformed number basis this is a plain basis vector, so the
    amplitude table does not depend on the deformation parameter.
    """
    if fock_n < 0:
        raise ValueError(f"fock_n must be >= 0, got {fock_n}")
    amps = np.zeros((fock_n + 1, fock_n + 1), dtype=complex)
    amps[fock_n, 0] = 1.0
    return TwoModeState(n_max=fock_n, amplitudes=amps)


def prepare_coherent(
    spec: qalgebra.CoherentSpec, q: float, tail_tol: float = 1e-10
) -> TwoModeState:
    """Deformed coherent field state with the atomic mode in vacuum.

    The field truncation is auto-selected so the omitted (unnormalized)
    weight stays below tail_tol of the total.
    """
    n_max = qalgebra.select_truncation(spec, q, tail_tol)
    amps = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    amps[:, 0] = qalgebra.coherent_amplitudes(spec, q, n_max, tail_tol)
    return TwoModeState(n_max=n_max, amplitudes=amps)


def build_spectral_cache(params: SystemParams, blocks: Iterable[int]) -> SpectralCache:
    """Diagonalize the requested blocks once for reuse across times.

    Pass state.occupied_blocks() for the blocks one state needs, or
    range(n_max + 1) for every block up to n_max.
    """
    spectra = {}
    for n_total in sorted({int(n) for n in blocks}):
        block = build_block(params, n_total)
        try:
            spectra[n_total] = eigh_tridiagonal(block.diag, block.offdiag)
        except ConvergenceError as exc:
            raise ConvergenceError(f"q={params.q:g}: {exc}") from exc
    return SpectralCache(params=params, blocks=spectra)


def _block_amplitudes(
    state: TwoModeState, cache: SpectralCache, n_total: int, times: np.ndarray
) -> np.ndarray:
    """Amplitudes a_m(t) = psi(N - m, m; t) of block N, shape (len(times), N + 1)."""
    spec = cache.blocks.get(n_total)
    if spec is None:
        raise ValueError(
            f"spectral cache has no spectrum for block N={n_total}, "
            "where the state has weight"
        )
    ms = np.arange(n_total + 1)
    modes = spec.eigenvectors.T @ state.amplitudes[n_total - ms, ms]
    phases = np.exp(-1j * spec.eigenvalues[:, None] * times[None, :])
    return (spec.eigenvectors @ (phases * modes[:, None])).T


def _propagate(state: TwoModeState, cache: SpectralCache, times: np.ndarray) -> np.ndarray:
    """Amplitude tables at each time, shape (len(times), dim, dim)."""
    dim = state.n_max + 1
    psi = np.zeros((times.size, dim, dim), dtype=complex)
    for n_total in state.occupied_blocks():
        ms = np.arange(n_total + 1)
        psi[:, n_total - ms, ms] = _block_amplitudes(state, cache, n_total, times)
    return psi


def evolve(state: TwoModeState, cache: SpectralCache, t: float) -> TwoModeState:
    """Evolve a state for time t (t may be negative) via the block spectra."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    psi = _propagate(state, cache, np.array([t]))
    return TwoModeState(n_max=state.n_max, amplitudes=psi[0])


def reduced_field(state: TwoModeState) -> DensityMatrix:
    """Field-mode density matrix: rho[n, n'] = sum_m psi(n, m) psi*(n', m)."""
    table = state.amplitudes
    rho = table @ table.conj().T
    return DensityMatrix(matrix=0.5 * (rho + rho.conj().T))


def reduced_atom(state: TwoModeState) -> DensityMatrix:
    """Atomic-mode density matrix: rho[m, m'] = sum_n psi(n, m) psi*(n, m')."""
    table = state.amplitudes
    rho = table.T @ table.conj()
    return DensityMatrix(matrix=0.5 * (rho + rho.conj().T))


def von_neumann_entropy(rho: DensityMatrix, log_base: float = 2.0) -> float:
    """S = -sum_k lambda_k log(lambda_k) over the eigenvalues of rho.

    Eigenvalues in [-1e-10, 0) are clipped to zero (roundoff from the
    reduction); anything below that floor signals an upstream bug and
    raises.  log_base must be 2 or e.
    """
    _check_log_base(log_base)
    vals = np.linalg.eigvalsh(rho.matrix)
    return float(_entropy_of_spectra(vals[None, :], log_base)[0])


def purity(rho: DensityMatrix) -> float:
    """Tr rho^2, evaluated as the squared Frobenius norm (rho is Hermitian)."""
    return float((np.abs(rho.matrix) ** 2).sum())


def entropy_series(
    state: TwoModeState,
    cache: SpectralCache,
    times,
    log_base: float = 2.0,
    chunk_size: int = 2048,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Field entropy, atom entropy, and field purity along a time grid.

    Evolves in chunks so long grids never hold every sample at once.  A
    state on one excitation block N (every Fock state) stays on it, so
    with a_m(t) = psi(N - m, m; t) both reduced states are exactly
    diagonal: rho_atom has eigenvalues p_m = |a_m(t)|^2 and rho_field the
    same values indexed by n = N - m.  There the entropies are the Shannon
    entropies of p, the purity is sum p^2, and only the (chunk, N + 1)
    block amplitudes are formed.  A state on several blocks has coherences
    between them; each chunk then builds the amplitude tables, reduces
    both modes and diagonalizes the density-matrix stacks in one batched
    call.
    """
    _check_log_base(log_base)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1:
        raise ValueError("times must be one-dimensional")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    blocks = state.occupied_blocks()
    s_field = np.empty(times.size)
    s_atom = np.empty(times.size)
    purity_field = np.empty(times.size)
    for start in range(0, times.size, chunk_size):
        sl = slice(start, min(start + chunk_size, times.size))
        if len(blocks) == 1:
            a = _block_amplitudes(state, cache, blocks[0], times[sl])
            p = a.real**2 + a.imag**2
            s_field[sl] = _entropy_of_spectra(p[:, ::-1], log_base)
            s_atom[sl] = _entropy_of_spectra(p, log_base)
            purity_field[sl] = (p**2).sum(axis=1)
            continue
        psi = _propagate(state, cache, times[sl])
        rho_field = psi @ psi.conj().transpose(0, 2, 1)
        rho_atom = psi.transpose(0, 2, 1) @ psi.conj()
        s_field[sl] = _entropy_of_spectra(np.linalg.eigvalsh(rho_field), log_base)
        s_atom[sl] = _entropy_of_spectra(np.linalg.eigvalsh(rho_atom), log_base)
        purity_field[sl] = (np.abs(rho_field) ** 2).sum(axis=(1, 2))
    return s_field, s_atom, purity_field


def dense_reference_evolve(state: TwoModeState, params: SystemParams, t: float) -> TwoModeState:
    """Independent evolution oracle ignoring the block structure.

    Builds the full two-mode Hamiltonian on the truncated lattice,
    diagonalizes it as one Hermitian matrix, and applies the propagator.
    Intended for cross-checks; capped at n_max = 20.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    if state.n_max > DENSE_REFERENCE_N_CAP:
        raise ValueError(
            f"dense reference evolver is capped at n_max={DENSE_REFERENCE_N_CAP}, "
            f"got {state.n_max}"
        )
    ham = total_hamiltonian_dense(params, state.n_max)
    vals, vecs = np.linalg.eigh(ham)
    vec0 = np.zeros(ham.shape[0], dtype=complex)
    for n in range(state.n_max + 1):
        for m in range(state.n_max + 1 - n):
            vec0[lattice_index(n, m)] = state.amplitudes[n, m]
    vec_t = vecs @ (np.exp(-1j * vals * t) * (vecs.conj().T @ vec0))
    amps = np.zeros_like(state.amplitudes)
    for n in range(state.n_max + 1):
        for m in range(state.n_max + 1 - n):
            amps[n, m] = vec_t[lattice_index(n, m)]
    return TwoModeState(n_max=state.n_max, amplitudes=amps)


def _entropy_of_spectra(vals: np.ndarray, log_base: float) -> np.ndarray:
    """Entropy of each row of eigenvalues, with the roundoff floor applied."""
    floor = float(vals.min())
    if floor < _EIGENVALUE_FLOOR:
        raise ValueError(
            f"density matrix has eigenvalue {floor:.3e} below {_EIGENVALUE_FLOOR:g}; "
            "upstream state is inconsistent"
        )
    vals = np.clip(vals, 0.0, None)
    terms = np.zeros_like(vals)
    mask = vals > 0.0
    terms[mask] = vals[mask] * np.log(vals[mask])
    return np.maximum(-terms.sum(axis=-1) / math.log(log_base), 0.0)


def _check_log_base(log_base: float) -> None:
    if log_base not in (2.0, math.e):
        raise ValueError(f"log_base must be 2 or e, got {log_base!r}")
