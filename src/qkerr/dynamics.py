"""State preparation, block-spectral time evolution, and entanglement measures.

A pure state of the coupled system lives on the triangular lattice
{(n, m): n + m <= n_max} (n = deformed-field quanta, m = atomic quanta)
and is stored as a dense complex table psi[n, m].  Because the total
count is conserved, evolution acts independently on each anti-diagonal
n + m = N: with a_m = psi(N - m, m) and the block spectrum (V, lambda),

    a(t) = V diag(exp(-i lambda t)) V^T a(0),

so one diagonalization per block serves every requested time (a(0) itself
at t = 0), and only the blocks where the state has weight need one.
entropy_series turns a state and its spectra into entropies and purities,
for a time series and for each q of a q sweep (_q_sweep), which solves
block N of a chunk of q in one stacked LAPACK call.  The state is pure,
so S_field, S_atom and the purity all come from one Schmidt spectrum.
One budget, _SLICE_BYTES, sizes the parts of a series and the chunks of a
sweep, and one kernel, _block_amplitudes, prepared once per series,
propagates each part.  A several-block series of two or more parts
scores its later half in one forked child (_score_forked), into output
pages the two share, with the bits of one process.  README gives the
measured peaks.
dense_reference_evolve, a brute-force propagator for cross-checks,
diagonalizes _lattice_hamiltonian, the whole lattice's Hamiltonian.
"""

from __future__ import annotations

import gc
import itertools
import math
import mmap
import operator
import os
import pickle
import signal
import sys
import threading
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
# The one memory budget.  A series part holds at most _SLICE_BYTES of its
# widest per-sample array: the (part, N + 1) complex amplitudes on one
# block, or each of the (part, dim, dim) complex amplitude tables, their
# conjugate and rho_field on several.  A sweep chunk's states count
# TwoModeState._held against it.  Where the least they can hold (two
# samples, one q) passes the cap, they hold that.
# Near-equal parts (_parts), the Gram product, eigvalsh and the stacked
# eigh act sample by sample or matrix by matrix, so the cap moves no bit.
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
    N = n + m that hold weight, and _held, the 16 (N + 1)^2 bytes a block
    that a q sweep counts, are found once, here.  _held is exact for a
    lone block, whose eigenvectors the kernel copies to complex.  Several
    blocks keep only their real eigenvectors, half of _held, but a chunk
    of such states holds more than those, their (dim, dim) tables among
    them, so _held is not an overcount there: counted at 8 (N + 1)^2, a
    coherent sweep's chunks pass twice _SLICE_BYTES.
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
        object.__setattr__(self, "_held", 16 * int(((blocks + 1) ** 2).sum()))

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


def _q_sweep(
    state_at: Callable[[float], TwoModeState], params: SystemParams, qs: np.ndarray, times: np.ndarray, log_base: float
) -> np.ndarray:
    """Field entropy at the one time of times, shape (1,), of the state
    state_at(q) for each deformation q in qs, with params.q replaced by q.

    A chunk of qs (_sweep_chunk) runs whole when it holds one q or its
    states' _held bytes fit _SLICE_BYTES, and state_at builds them, once
    per q and in order, only while they do.  Otherwise, and whenever it
    fails, it runs as its two halves, lower q first.  A lone q whose solve
    fails raises its error again with "q=<q>: " in front (a failed
    state_at names its q), so the sweep fails as the one-point run_evolve
    of its first failing q.
    """
    s_field = np.empty(qs.size)
    # the chunks left, the lowest last, and the states built for the first q left
    chunks, states = [(0, qs.size)], []
    while chunks:
        lo, hi = chunks.pop()
        held = sum(state._held for state in states[: hi - lo])
        try:
            for q in qs[lo + len(states) : hi].tolist():
                if held > _SLICE_BYTES:
                    break
                states.append(state_at(q))
                held += states[-1]._held
            if held <= _SLICE_BYTES or hi - lo == 1:
                _sweep_chunk(s_field[lo:hi], states[: hi - lo], params, qs[lo:hi], times, log_base)
                del states[: hi - lo]
                continue
        except (ValueError, ConvergenceError) as exc:
            if hi - lo == 1 and states:
                raise type(exc)(f"q={qs[lo]:g}: {exc}") from exc
            if hi - lo == 1:
                raise
        chunks += [((lo + hi) // 2, hi), (lo, (lo + hi) // 2)]
    return s_field


def _sweep_chunk(
    s_field: np.ndarray, states: list[TwoModeState], params: SystemParams, qs: np.ndarray, times: np.ndarray, log_base: float
) -> None:
    """Field entropy at the one time of times of states[i] at qs[i], into
    s_field[i]: block N of the q whose states occupy it built in one
    build_block call and solved in one eigh_tridiagonal call, and each run
    of q that share one state object (a number state) scored by
    entropy_series on its rows of those stacks, a lone q on the unstacked
    rows a one-point run_evolve solves, so each q keeps that run's bits."""
    starts = [0, *itertools.compress(range(1, len(states)), map(operator.is_not, states[1:], states))]
    runs = list(zip(starts, [*starts[1:], len(states)]))
    caches: dict[int, dict[int, Spectrum]] = {a: {} for a, _ in runs}
    for n_total in sorted({n for a, _ in runs for n in states[a].occupied_blocks()}):
        members = [(a, b) for a, b in runs if n_total in states[a].occupied_blocks()]
        block_qs = [qs[a:b] for a, b in members]
        vals, vecs = eigh_tridiagonal(*build_block(params, n_total, block_qs[0] if len(members) == 1 else np.concatenate(block_qs)))
        for (a, b), row in zip(members, itertools.accumulate((b - a for a, b in members), initial=0)):
            key = row if b - a == 1 else slice(row, row + b - a)
            caches[a][n_total] = (vals[key], vecs[key])
    # the caches' views own the stacks from here
    del vals, vecs
    for a, b in runs:
        # handed over, so the series holds each eigenvector table once
        s_field[a:b] = entropy_series(states[a], caches.pop(a), times, log_base)[0][..., 0]


def _block_amplitudes(
    state: TwoModeState, cache: dict[int, Spectrum], blocks: tuple[int, ...], times: np.ndarray
) -> Callable[..., np.ndarray]:
    """The function (t, phases=None, amps=None) -> amplitudes of the given
    blocks at the times t, a part of the grid times: packed side by side
    in ascending N, each block's a_m = psi(N - m, m) in ascending m, shape
    (sum(N + 1), len(t)), or (..., N + 1, len(t)) when the one block's
    cache entry holds a stack of spectra.  It fills phases and amps, when
    given, as arrays of that shape, or forms them, and returns amps.

    Prepared here, once for every part: the phase check over the whole
    grid, which names the first failing block; then each block's rates
    -i lambda and V^T a(0), from the real V, for its bits.  cache is only
    read.  A lone block's V, which every part reads, is copied to complex
    once, and the kernel keeps only the copy, so the real V of a cache no
    caller holds dies with the cache.  Several blocks keep the cache's
    real V, and numpy casts each block as a part multiplies by it, with
    the bits of the complex copy.
    """
    for n_total in blocks:
        if n_total not in cache:
            raise ValueError(
                f"spectral cache has no spectrum for block N={n_total}, "
                "where the state has weight"
            )
    # A phase lambda*t is rounded by about |lambda t| eps rad: past
    # _PHASE_TOL, and at inf or NaN, it has lost its digits.  Python floats
    # overflow to inf without a warning.
    t_max = float(np.abs(times).max(initial=0.0))
    for n_total in blocks:
        phase_err = float(np.abs(cache[n_total][0]).max()) * t_max * sys.float_info.epsilon
        if not phase_err <= _PHASE_TOL:
            raise ConvergenceError(
                f"phase lambda*t overflows on block N={n_total} at |t| = {t_max:g} "
                f"({phase_err:.1e} rad of rounding)"
            )
    a0 = [state.amplitudes[n_total::-1, : n_total + 1].diagonal().copy() for n_total in blocks]
    rates, vecs = zip(*(cache[n_total] for n_total in blocks))
    coeffs = [np.swapaxes(real, -1, -2) @ a for real, a in zip(vecs, a0)]
    vecs = (vecs[0].astype(complex),) if len(blocks) == 1 else vecs
    join = (lambda arrays: arrays[0]) if len(blocks) == 1 else (lambda arrays: np.concatenate(arrays, axis=-1))
    coeffs = join(coeffs)[..., None]
    rates = -1j * join(rates)[..., None]
    a0 = join(a0)[:, None]

    def amplitudes(t: np.ndarray, phases: np.ndarray | None = None, amps: np.ndarray | None = None) -> np.ndarray:
        # exp(-i lambda t) V^T a(0) of every block in one array, scaled in
        # place, but a lone number out of place: numpy multiplies a lone
        # number in place in the other order, which has other bits
        phases = np.multiply(rates, t, out=phases)
        np.exp(phases, out=phases)
        phases = np.multiply(phases, coeffs, out=phases if phases.size > 1 else None)
        amps = np.empty_like(phases) if amps is None else amps
        col = 0
        for n_total, block_vecs in zip(blocks, vecs):
            rows = slice(col, col + n_total + 1)
            np.matmul(block_vecs, phases[..., rows, :], out=amps[..., rows, :])
            col = rows.stop
        # U(0) is the identity: V V^T would leave roundoff on the empty levels.
        amps[..., t == 0] = a0
        return amps

    return amplitudes


def _propagate(state: TwoModeState, cache: dict[int, Spectrum], times: np.ndarray) -> np.ndarray:
    """Amplitudes of the occupied blocks at each time, packed side by side
    in ascending N, each block's psi(N - m, m) in ascending m: the
    transpose of _block_amplitudes on the whole grid as one part, shape
    (len(times), sum(N + 1)).  The kernel only reads cache."""
    return _block_amplitudes(state, cache, state.occupied_blocks(), times)(times).T


def entropy_series(
    state: TwoModeState, cache: dict[int, Spectrum], times, log_base: float = 2.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Field entropy, atom entropy, and field purity along a time grid.

    Only the Schmidt spectrum is formed.  On one block N (every Fock state)
    the reductions are diagonal, with p_n = |psi(n, N - n; t)|^2, and a
    stack of spectra in the block's cache entry leads each result with its
    axes.  On several it is eigvalsh of rho_field = psi psi^dagger, whose
    tables take the packed amplitudes at their flat sites.  The grid is
    cut once into the fewest near-equal parts (_parts) within _SLICE_BYTES
    of the widest per-sample array, (N + 1) amplitudes or a (dim, dim)
    table, and every array a part fills is allocated once.  The state is
    pure, so S_field, S_atom (equal to it bit for bit) and the purity sum
    p^2 all come from that one spectrum.  A LAPACK failure is raised as
    ConvergenceError.  On several blocks, two or more parts are scored in
    two processes where _splits allows it (_score_forked), and then
    s_field and the purity are the rows of one shared anonymous mapping.

    The kernel (_block_amplitudes) only reads cache, and the series drops
    its own reference once the kernel is prepared.  So a caller's dict
    keeps its blocks, and a cache handed over, which no caller holds,
    dies there: a lone block's real eigenvectors once the kernel has
    copied them to complex, while several blocks' stay, uncopied, for the
    series.
    """
    _check_log_base(log_base)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1:
        raise ValueError("times must be one-dimensional")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    blocks = state.occupied_blocks()
    dim = state.n_max + 1
    single = len(blocks) == 1
    # a missing block is left to the kernel's check
    lead = cache[blocks[0]][0].shape[:-1] if single and blocks[0] in cache else ()
    propagate = _block_amplitudes(state, cache, blocks, times)
    # a cache handed over loses its last reference here
    del cache
    cap = _SLICE_BYTES // (16 * (math.prod(lead) * (blocks[0] + 1) if single else dim**2))
    parts = list(_parts(times.size, cap))
    if single:

        def spectra(t: np.ndarray) -> np.ndarray:
            return _block_spectra(np.swapaxes(propagate(t), -1, -2))

    else:
        # the flat site n * dim + m of each packed row, one zeroed buffer of
        # dense tables that every part rewrites at those sites, and one of a
        # part's packed phases and amplitudes, then of the tables' conjugate
        most = max((sl.stop - sl.start for sl in parts), default=0)
        m = np.concatenate([np.arange(n + 1) for n in blocks])
        sites = (np.repeat(blocks, [n + 1 for n in blocks]) - m) * dim + m
        packed = np.empty(max(2 * sites.size, dim * dim) * most, dtype=complex)
        tables = np.zeros((most, dim, dim), dtype=complex)
        rho = np.empty_like(tables)

        def spectra(t: np.ndarray) -> np.ndarray:
            n = t.size
            phases, amps = packed[: 2 * sites.size * n].reshape(2, sites.size, n)
            psi = tables[:n]
            psi.reshape(n, -1).T[sites] = propagate(t, phases, amps)
            conj = np.conjugate(psi, out=packed[: n * dim * dim].reshape(n, dim, dim))
            gram = np.matmul(psi, conj.transpose(0, 2, 1), out=rho[:n])
            try:
                return np.linalg.eigvalsh(gram)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(f"eigensolve failed on the field density matrix (dim {dim}): {exc}") from exc

    split = not single and _splits(len(parts))
    # the two rows of one allocation, in pages shared with the child of a split
    s_field, purity_field = (
        np.frombuffer(mmap.mmap(-1, 16 * times.size)).reshape(2, -1) if split else np.empty((2, *lead, *times.shape))
    )

    def score(parts: list[slice]) -> None:
        for sl in parts:
            spec = spectra(times[sl])
            s_field[..., sl] = _entropy_of_spectra(spec, log_base)
            purity_field[..., sl] = (spec**2).sum(axis=-1)
            # not kept alive while the next part propagates
            del spec

    if split:
        _score_forked(score, parts)
    else:
        score(parts)
    return s_field, s_field.copy(), purity_field


def _splits(parts: int) -> bool:
    """Whether a several-block series of this many parts is scored in two
    processes: only where a second usable CPU can run the child and no
    other thread could hold a lock across the fork."""
    return (
        parts >= 2
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def _score_forked(score: Callable[[list[slice]], None], parts: list[slice]) -> None:
    """score(parts), with the later half of parts scored in one forked
    child, into outputs whose pages it shares with the parent, so each row
    keeps the bits of the sequential loop.  The parent scores the first
    half meanwhile, so its error comes first, as in that loop, and it then
    kills the child.  The child's one reply, pickled down a pipe, is None
    or its error, raised again with its class and message; a child that
    ends without replying raises OSError.  The child always leaves by
    os._exit and the parent always reaps it.  Where no pipe or child can
    be made, the parent scores every part itself."""
    half = (len(parts) + 1) // 2
    fds = ()
    try:
        fds = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        score(parts)
        return
    read_fd, write_fd = fds
    if pid == 0:
        status = 1
        try:
            # no collection here runs the parent's finalizers or copies its pages
            gc.disable()
            os.close(read_fd)
            try:
                score(parts[half:])
                reply = None
            except BaseException as exc:
                reply = exc
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(reply))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with open(read_fd, "rb", buffering=0) as pipe:
        try:
            score(parts[:half])
            reply = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if not reply:
        ended = f"was killed by signal {-code} ({signal.strsignal(-code)})" if code < 0 else f"exited with status {code}"
        raise OSError(f"the process scoring samples {parts[half].start} to {parts[-1].stop - 1} {ended} before sending them")
    error = pickle.loads(reply)
    if error is not None:
        raise error


def _parts(size: int, most: int):
    """Slices that cut range(size) into the fewest near-equal parts of at
    most most samples, none for an empty grid, but never a part of one
    sample from a longer grid (so more than most when most < 3): BLAS
    would propagate a one-sample part as a matrix-vector product, with
    other bits than the rest of the grid."""
    parts = min(-(-size // max(most, 1)), max(1, size // 2))
    for i in range(parts):
        yield slice(size * i // parts, size * (i + 1) // parts)


def _block_spectra(a: np.ndarray) -> np.ndarray:
    """Schmidt spectrum p_n = |psi(n, N - n)|^2, n ascending, of each row of
    one block's amplitudes a_m = psi(N - m, m); overwrites a's imaginary
    part.  The squares keep a's memory layout and the columns are reversed
    as a view: the entropy and purity sums read that layout."""
    spec = np.square(a.real)
    spec += np.square(a.imag, out=a.imag)
    return spec[..., ::-1]


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
    vals = np.maximum(vals, 0.0)
    terms = np.where(vals > 0.0, vals, 1.0)
    np.log(terms, out=terms)
    terms *= vals
    return np.maximum(terms.sum(axis=-1) / -math.log(log_base), 0.0)


def _check_log_base(log_base: float) -> None:
    if log_base not in (2.0, math.e):
        raise ValueError(f"log_base must be 2 or e, got {log_base!r}")
