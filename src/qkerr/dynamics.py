"""State preparation, block-spectral time evolution, and entanglement measures.

A pure state of the coupled system lives on the triangular lattice
{(n, m): n + m <= n_max} (n = deformed-field quanta, m = atomic quanta)
and is stored as a dense complex table psi[n, m].  Because the total
count is conserved, evolution acts independently on each anti-diagonal
n + m = N: with a_m = psi(N - m, m) and the block spectrum (V, lambda),

    a(t) = V diag(exp(-i lambda t)) V^T a(0),

so one diagonalization per block serves every requested time (a(0) itself
at t = 0), and only the blocks where the state has weight, found once
when it is built, need one.  entropy_series is the one path from a state
to entropies and purities along a time grid.  Across a q grid at one
time, a state on one block (every Fock state) has its blocks for all q
built as one stack from one bracket table, solved in one LAPACK call and
propagated by the same kernel (_single_block_sweep).  The state is pure,
so both reduced modes share one Schmidt spectrum: S_field, S_atom and the
purity all come from it.  On one block, whatever N, _SLICE_BYTES caps
every array a series forms beside the block's spectrum and the complex
copy of its eigenvectors, and every array a sweep forms: a series chunk
is propagated and scored in parts of (part, N + 1) complex amplitudes,
each part's phase factors scaled in one array and its spectrum squared
over its amplitudes, and a sweep's chunk of q is cut to fit its stacks
under the cap.  On several blocks a chunk's amplitudes stay packed, block
beside block, and only a slice of them at a time is laid out as dense
tables for the reduction.  README gives the measured peaks.
dense_reference_evolve is a brute-force propagator for cross-checks: it
diagonalizes _lattice_hamiltonian, the Hamiltonian of the whole lattice
as one matrix.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from . import qalgebra
from .blocks import SystemParams, build_block, eigh_tridiagonal
from .exceptions import ConvergenceError

_NORM_TOL = 1e-10
_EIGENVALUE_FLOOR = -1e-10
# Largest phase error, in radians, that rounding max|lambda| |t| may leave.
_PHASE_TOL = 1e-3
# Most samples entropy_series evolves per chunk, fewer where the chunk's
# (chunk, dim, dim) complex tables on several blocks, or its (chunk, N + 1)
# amplitudes on one, would pass _CHUNK_BYTES.  Neither is formed whole:
# these two only place the chunk boundaries, which decide where a
# one-sample chunk falls, and with it the bits of BLAS's matrix-vector
# product.  On several blocks a chunk's packed amplitudes (_propagate)
# take about half its tables' bytes.
_CHUNK_SAMPLES = 2048
_CHUNK_BYTES = 8 * 2**20
# Cap on the bytes of each array that a one-block part, a multi-block
# reduction slice or a sweep chunk forms: the part's (part, N + 1) complex
# amplitudes, the slice's (slice, dim, dim) complex amplitude tables, their
# conjugate and rho_field, and the chunk's (q, N + 1, N + 1) complex
# eigenvector copy.  Where the least they can hold (two samples, one
# sample, one q) passes the cap, they hold that.  Near-equal parts of two
# or more samples, the Gram product, eigvalsh and the stacked eigh act
# sample by sample or matrix by matrix, so the cap moves no bit.
_SLICE_BYTES = 2**19
# the dense reference evolver is meant for cross-checks at test scale
DENSE_REFERENCE_N_CAP = 20

# One block's (eigenvalues, eigenvectors), as eigh_tridiagonal returns them.
Spectrum = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class TwoModeState:
    """Unit-norm pure state on the triangle n + m <= n_max.

    amplitudes[n, m] is the coefficient of |n field quanta; m atomic
    quanta>; entries beyond the triangle must be exactly zero.  The blocks
    N = n + m that hold weight are found once, here.
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
        n, m = np.nonzero(amps)
        blocks = np.unique(n + m)
        if np.any(blocks > self.n_max):
            raise ValueError("amplitudes beyond n + m = n_max must be zero")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "_blocks", tuple(int(n) for n in blocks))

    def occupied_blocks(self) -> tuple[int, ...]:
        """Ascending total excitations N = n + m that hold nonzero weight."""
        return self._blocks


def prepare_fock(fock_n: int) -> TwoModeState:
    """Field Fock state |fock_n> with the atomic mode in vacuum.

    In the deformed number basis this is a plain basis vector, so the
    amplitude table does not depend on the deformation parameter.  fock_n
    is bounded by the cap on coherent truncations, COHERENT_N_CAP.
    """
    fock_n = qalgebra._check_count(fock_n, "fock_n")
    if fock_n > qalgebra.COHERENT_N_CAP:
        raise ValueError(f"fock_n must be <= {qalgebra.COHERENT_N_CAP}, got {fock_n}")
    amps = np.zeros((fock_n + 1, fock_n + 1), dtype=complex)
    amps[fock_n, 0] = 1.0
    return TwoModeState(n_max=fock_n, amplitudes=amps)


def prepare_coherent(alpha_sq: float, q: float, tail_tol: float = qalgebra.TAIL_TOL) -> TwoModeState:
    """Deformed coherent field state of intensity alpha_sq, with the atomic
    mode in vacuum.

    The field truncation n_max is the one coherent_amplitudes selects: the
    omitted (unnormalized) weight stays below tail_tol of the total.
    """
    field = qalgebra.coherent_amplitudes(alpha_sq, q, tail_tol=tail_tol)
    amps = np.zeros((field.size, field.size), dtype=complex)
    amps[:, 0] = field
    return TwoModeState(n_max=field.size - 1, amplitudes=amps)


def build_spectral_cache(params: SystemParams, blocks: Iterable[int]) -> dict[int, Spectrum]:
    """Diagonalize the requested blocks once for reuse across times.

    Returns a plain dict of the (eigenvalues, eigenvectors) pairs keyed by
    total excitation N, so vals, vecs = cache[N].  Pass
    state.occupied_blocks() for the blocks one state needs, or
    range(n_max + 1) for every block up to n_max.
    """
    return {n_total: eigh_tridiagonal(*build_block(params, n_total)) for n_total in sorted({int(n) for n in blocks})}


def _single_block_sweep(
    state: TwoModeState, params: SystemParams, qs: np.ndarray, times: np.ndarray, log_base: float
) -> np.ndarray:
    """Field entropy at the one time of times, shape (1,), of a state on one
    block N (every Fock state) for each deformation in qs, with params.q
    replaced by it.

    The blocks N of a chunk of q are built in one build_block call, solved
    in one eigh_tridiagonal call and propagated in one _block_amplitudes
    call.  _block_amplitudes makes a complex copy of the eigenvector stack
    for its product with the phases: two real products on the real and
    imaginary parts would avoid it, but do not give the same bits.  That
    copy, 16 bytes an entry, stays under _SLICE_BYTES, and the real
    dense-block stack and the real eigenvector stack LAPACK returns for it
    take half as much each.  The stacks set the peak: the phases,
    amplitudes and spectra of a chunk are (q, N + 1) arrays, the spectra
    computed in place.
    Each q keeps the bits a one-sample entropy_series gives it.  A chunk
    that fails is run again as its two halves, lower q first, until a
    single q fails; its error is raised again with "q=<q>: " in front, so
    the sweep fails as the one-point run_evolve of that q does.
    """
    _check_log_base(log_base)
    (n_total,) = state.occupied_blocks()
    step = max(1, _SLICE_BYTES // (16 * (n_total + 1) ** 2))
    return np.concatenate([_sweep_chunk(state, params, qs[i : i + step], times, log_base) for i in range(0, qs.size, step)])


def _sweep_chunk(
    state: TwoModeState, params: SystemParams, qs: np.ndarray, times: np.ndarray, log_base: float
) -> np.ndarray:
    """Field entropies of one chunk qs of _single_block_sweep, halved on
    failure as its docstring says.  A q outside (0, 1] is rejected by
    build_block unprefixed, since that message names it."""
    (n_total,) = state.occupied_blocks()
    diag, offdiag = build_block(params, n_total, qs)
    try:
        spectra = eigh_tridiagonal(diag, offdiag)
        spec = _block_spectra(_block_amplitudes(state, {n_total: spectra}, n_total)(times)[0])
        return _entropy_of_spectra(spec, log_base)
    except (ValueError, ConvergenceError) as exc:
        if qs.size == 1:
            raise type(exc)(f"q={qs[0]:g}: {exc}") from exc
    half = qs.size // 2
    return np.concatenate([_sweep_chunk(state, params, part, times, log_base) for part in (qs[:half], qs[half:])])


def _block_amplitudes(
    state: TwoModeState, cache: dict[int, Spectrum], n_total: int
) -> Callable[[np.ndarray], np.ndarray]:
    """The function times -> amplitudes a_m(t) = psi(N - m, m; t) of block N,
    shape (len(times), N + 1), or (len(times), ..., N + 1) when cache[N]
    holds a stack of spectra.

    V^T a(0) and the complex copy of V that its product with the phases
    reads are made here, once for every call of the function: a one-block
    series calls it once per part.  The copy gives the bits of the real V,
    which numpy would copy to complex on each product.  V^T a(0) is taken
    from the real V: the copy's product with a(0) has other bits.
    """
    if n_total not in cache:
        raise ValueError(
            f"spectral cache has no spectrum for block N={n_total}, "
            "where the state has weight"
        )
    vals, vecs = cache[n_total]
    ms = np.arange(n_total + 1)
    a0 = state.amplitudes[n_total - ms, ms]
    coeffs = (np.swapaxes(vecs, -1, -2) @ a0)[..., None]
    vecs = vecs.astype(complex)

    def amplitudes(times: np.ndarray) -> np.ndarray:
        # A phase lambda*t is rounded by about |lambda t| eps rad: past
        # _PHASE_TOL, and at inf or NaN, it has lost its digits.
        t_max = float(np.abs(times).max())
        with np.errstate(over="ignore", invalid="ignore"):
            phase_err = np.abs(vals).max() * t_max * sys.float_info.epsilon
        if not phase_err <= _PHASE_TOL:
            raise ConvergenceError(
                f"phase lambda*t overflows on block N={n_total} at |t| = {t_max:g} "
                f"({phase_err:.1e} rad of rounding)"
            )
        # exp(-i lambda t) V^T a(0) in one array, exponentiated and scaled in place
        phases = -1j * vals[..., None] * times
        np.exp(phases, out=phases)
        phases *= coeffs
        amps = np.moveaxis(vecs @ phases, -1, 0)
        # U(0) is the identity: V V^T would leave roundoff on the empty levels.
        amps[times == 0] = a0
        return amps

    return amplitudes


def _propagate(state: TwoModeState, cache: dict[int, Spectrum], times: np.ndarray) -> np.ndarray:
    """Amplitudes of the occupied blocks at each time, packed side by side
    in ascending N, each block's psi(N - m, m) in ascending m as
    _block_amplitudes gives them: shape (len(times), sum(N + 1))."""
    blocks = state.occupied_blocks()
    packed = np.empty((times.size, sum(n + 1 for n in blocks)), dtype=complex)
    col = 0
    for n_total in blocks:
        packed[:, col : col + n_total + 1] = _block_amplitudes(state, cache, n_total)(times)
        col += n_total + 1
    return packed


def entropy_series(
    state: TwoModeState,
    cache: dict[int, Spectrum],
    times,
    log_base: float = 2.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Field entropy, atom entropy, and field purity along a time grid.

    Evolves in chunks of at most _CHUNK_SAMPLES samples, fewer where the
    dense (chunk, dim, dim) tables, or on one block the amplitudes, would
    pass _CHUNK_BYTES.  Each chunk yields only its Schmidt spectrum: on one
    block N (every Fock state) the reductions are diagonal, with
    p_n = |psi(n, N - n; t)|^2, and the chunk is propagated and scored in
    the fewest near-equal parts of at most _SLICE_BYTES of amplitudes
    (_chunk_parts); on several blocks it is eigvalsh of the rho_field
    stack, formed from the packed amplitudes one slice of dense tables at
    a time (_SLICE_BYTES).  The state is pure, so S_field, S_atom (equal to
    it bit for bit) and the purity sum p^2 all come from that one spectrum.
    """
    _check_log_base(log_base)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1:
        raise ValueError("times must be one-dimensional")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    blocks = state.occupied_blocks()
    dim = state.n_max + 1
    single = len(blocks) == 1
    row_bytes = 16 * (blocks[0] + 1) if single else 16 * dim**2
    step = max(1, min(_CHUNK_SAMPLES, _CHUNK_BYTES // row_bytes))
    # samples in a one-block part, and in a multi-block slice of tables
    most = max(1, _SLICE_BYTES // row_bytes)
    if not single:
        # the flat site n * dim + m of each packed column, and one zeroed
        # buffer of dense tables that every slice rewrites at those sites
        m = np.concatenate([np.arange(n + 1) for n in blocks])
        sites = (np.repeat(blocks, [n + 1 for n in blocks]) - m) * dim + m
        tables = np.zeros((min(most, step, times.size), dim, dim), dtype=complex)
    s_field = np.empty(times.size)
    purity_field = np.empty(times.size)
    if single:
        propagate = _block_amplitudes(state, cache, blocks[0])
    for sl in _chunk_parts(times.size, step, most if single else step):
        if single:
            spec = _block_spectra(propagate(times[sl]))
        else:
            spec = _field_spectra(_propagate(state, cache, times[sl]), tables, sites)
        s_field[sl] = _entropy_of_spectra(spec, log_base)
        purity_field[sl] = (spec**2).sum(axis=1)
        # not kept alive while the next chunk propagates
        del spec
    return s_field, s_field.copy(), purity_field


def _chunk_parts(size: int, step: int, most: int):
    """Slices of range(size): chunks of step samples, the last one shorter,
    each split into the fewest near-equal parts of at most most samples,
    but never into parts of one sample (more than most when most < 3): BLAS
    would propagate a one-sample part as a matrix-vector product, with
    other bits than the rest of its chunk."""
    for start in range(0, size, step):
        n = min(step, size - start)
        parts = max(1, min(-(-n // most), n // 2))
        for i in range(parts):
            yield slice(start + n * i // parts, start + n * (i + 1) // parts)


def _block_spectra(a: np.ndarray) -> np.ndarray:
    """Schmidt spectrum p_n = |psi(n, N - n)|^2, n ascending, of each row of
    one block's amplitudes a_m = psi(N - m, m); overwrites a's imaginary
    part.  The squares keep a's memory layout and the columns are reversed
    as a view: the entropy and purity sums read that layout."""
    spec = np.square(a.real)
    spec += np.square(a.imag, out=a.imag)
    return spec[:, ::-1]


def _field_spectra(packed: np.ndarray, tables: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Eigenvalues of rho_field = psi psi^dagger for each row of packed
    amplitudes, laid out at the flat sites of the (slice, dim, dim) buffer
    tables, len(tables) rows at a time.  A LAPACK failure is raised as
    ConvergenceError."""
    spec = np.empty((len(packed), tables.shape[1]))
    for lo in range(0, len(packed), len(tables)):
        rows = packed[lo : lo + len(tables)]
        psi = tables[: len(rows)]
        psi.reshape(len(rows), -1)[:, sites] = rows
        try:
            spec[lo : lo + len(rows)] = np.linalg.eigvalsh(psi @ psi.conj().transpose(0, 2, 1))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"eigensolve failed on the field density matrix (dim {psi.shape[1]}): {exc}") from exc
    return spec


def _lattice_hamiltonian(params: SystemParams, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full two-mode Hamiltonian on the lattice {(n, m): n + m <= n_max},
    with the arrays n, m of its states in row-major order.

    Assembled from the operator actions, not from build_block: the diagonal
    is ([n] + [n+1])/2 + omega (m + 1/2) + chi m (m - 1), and A+ b maps
    |n; m> to gamma sqrt(m) sqrt([n+1]) |n+1; m-1>, A b+ being its
    transpose.  The brackets come from the same bracket_table, and the
    elements keep build_block's expressions and factor order, so each
    block of this matrix equals build_block's bit for bit.
    """
    k = np.arange(n_max + 1)
    n, m = np.nonzero(np.add.outer(k, k) <= n_max)
    brackets = qalgebra.bracket_table([params.q], n_max + 1)[0]
    index = np.empty((n_max + 1, n_max + 1), dtype=int)
    index[n, m] = np.arange(n.size)
    ham = np.diag(0.5 * (brackets[n] + brackets[n + 1]) + params.omega * (m + 0.5) + params.chi * m * (m - 1))
    src = np.flatnonzero(m)
    dst = index[n[src] + 1, m[src] - 1]
    ham[dst, src] = ham[src, dst] = params.gamma * np.sqrt(m[src]) * np.sqrt(brackets[n[src] + 1])
    return ham, n, m


def dense_reference_evolve(state: TwoModeState, params: SystemParams, t: float) -> TwoModeState:
    """Independent evolution oracle ignoring the block structure.

    Diagonalizes _lattice_hamiltonian as one Hermitian matrix and applies
    the propagator to the amplitudes gathered in its lattice order.
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
    ham, n, m = _lattice_hamiltonian(params, state.n_max)
    vals, vecs = np.linalg.eigh(ham)
    amps = np.zeros_like(state.amplitudes)
    amps[n, m] = vecs @ (np.exp(-1j * vals * t) * (vecs.T @ state.amplitudes[n, m]))
    return TwoModeState(n_max=state.n_max, amplitudes=amps)


def _entropy_of_spectra(vals: np.ndarray, log_base: float) -> np.ndarray:
    """Entropy of each row of eigenvalues, with the roundoff floor applied.

    The row sums reduce in an order set by the memory layout of vals, so
    their last bits depend on it: a C-contiguous copy of a one-block
    spectrum, whose column-reversed layout _block_spectra gives, changes
    some rows.
    """
    floor = float(vals.min())
    if not floor >= _EIGENVALUE_FLOOR:
        raise ValueError(
            f"density matrix has eigenvalue {floor:.3e}, not >= {_EIGENVALUE_FLOOR:g}; "
            "upstream state is inconsistent"
        )
    vals = np.clip(vals, 0.0, None)
    terms = np.where(vals > 0.0, vals, 1.0)
    np.log(terms, out=terms)
    terms *= vals
    return np.maximum(-terms.sum(axis=-1) / math.log(log_base), 0.0)


def _check_log_base(log_base: float) -> None:
    if log_base not in (2.0, math.e):
        raise ValueError(f"log_base must be 2 or e, got {log_base!r}")
