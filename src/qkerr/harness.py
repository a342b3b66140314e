"""Experiment drivers: entropy sweeps, time series, optimal-deformation
search, and revival-dip detection, with deterministic CSV output.

Everything here is a thin orchestration layer over dynamics: build the
initial state, build the per-block spectra once, evaluate the entropy on a
grid, and serialize.  Every q evaluation, a sweep or an optimal-q
refinement step, goes through an evaluator (_q_evaluator) that hands
dynamics._q_sweep one state per q: a Fock state, which does not depend on
q, built once, or a coherent state built at each q.  All CSV is written
with 12 significant digits and ``\\n`` newlines so repeated runs are
byte-identical: the series, sweep and revival-dip tables all go through
one block-formatted writer, which stacks the columns one block of rows at
a time and replaces the target only once the whole table is written, and a
series is read back by streaming the open file to ``np.loadtxt`` behind
the header, width, emptiness and time-order checks, its columns left as
views of the one parsed table.  The drivers take the physics as one
``SystemParams`` and explicit grids (the CLI holds the default time
grids); the q drivers replace its ``q`` at each grid point.
"""

from __future__ import annotations

import itertools
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .blocks import SystemParams
from .dynamics import (
    TwoModeState,
    _check_log_base,
    _q_sweep,
    build_spectral_cache,
    entropy_series,
    prepare_coherent,
    prepare_fock,
)
from .exceptions import ConvergenceError
from .qalgebra import TAIL_TOL, _check_count

SERIES_COLUMNS = ("t", "gamma_t", "S_field", "S_atom", "purity_field")
SWEEP_COLUMNS = ("q", "S_field")
DIP_COLUMNS = ("t", "gamma_t", "S", "classification")

# Revival classification half-width, as a fraction of the target gamma*t.
# 5 percent keeps multiples of 2*pi/chi and pi/chi unambiguous.
CLASSIFY_REL_TOL = 0.05

# Number format of every CSV field and of the CLI's summary lines.
NUMBER_FORMAT = "%.12g"

# Rows formatted per % in the CSV writer: one % over a whole 28,001-row
# series would hold all its text at once.
_WRITE_ROWS = 2048

# Most samples a time or q grid may have: a 10**7-sample series already
# holds five 80 MB columns.
MAX_SAMPLES = 10**7

# Width of the bracket at which the parabolic refinement of q* stops.
REFINE_TOL = 1e-7
_PARABOLIC_MAX_ITER = 60

# Smallest deformation (exclusive) that q grids and the CLI accept (see
# check_grid_q): below it [n] -> 1/(1-q^2) is tiny and every block is nearly
# degenerate.  The library itself accepts any q in (0, 1].
Q_FLOOR = 0.05


@dataclass(frozen=True)
class InitialState:
    """Recipe for the field-mode preparation (atom always starts in |0>).

    kind is "fock" (deformed number state, quantum number fock_n) or
    "coherent" (deformed coherent state with mean photon number alpha_sq,
    truncated to relative tail weight tail_tol).  Only kind is checked
    here; build checks the rest.
    """

    kind: str
    fock_n: int = 5
    alpha_sq: float = 0.5
    tail_tol: float = TAIL_TOL

    def __post_init__(self) -> None:
        if self.kind not in ("fock", "coherent"):
            raise ValueError(f"unknown initial-state kind {self.kind!r}")

    def build(self, q: float) -> TwoModeState:
        if self.kind == "fock":
            return prepare_fock(self.fock_n)
        return prepare_coherent(self.alpha_sq, q, tail_tol=self.tail_tol)


def _check_samples(count, name: str, least: int) -> int:
    """The rule for a grid's sample count: an integer in [least, MAX_SAMPLES]."""
    count = _check_count(count, name)
    if not least <= count <= MAX_SAMPLES:
        raise ValueError(f"{name} must lie in [{least}, {MAX_SAMPLES}], got {count}")
    return count


def time_grid(t_min: float, t_max: float, steps: int) -> np.ndarray:
    """Uniform, strictly increasing time grid.  Negative times are allowed."""
    steps = _check_samples(steps, "steps", 2)
    t_min, t_max = float(t_min), float(t_max)
    # a finite span has finite ends, and np.linspace warns on any other
    if not math.isfinite(t_max - t_min):
        raise ValueError("time grid ends and span t_max - t_min must be finite")
    if not t_max > t_min:
        raise ValueError("t_max must exceed t_min")
    return np.linspace(t_min, t_max, steps)


def check_grid_q(q: float) -> float:
    """The rule for a q the drivers take from a user: Q_FLOOR < q <= 1."""
    q = float(q)
    if not Q_FLOOR < q <= 1.0:
        raise ValueError(f"q must lie in ({Q_FLOOR}, 1], got {q!r}")
    return q


def q_grid(q_min: float, q_max: float, q_steps: int) -> np.ndarray:
    """Uniform deformation grid whose ends obey check_grid_q."""
    q_steps = _check_samples(q_steps, "q_steps", 1)
    q_min, q_max = check_grid_q(q_min), check_grid_q(q_max)
    if q_steps == 1:
        if q_min != q_max:
            raise ValueError("a 1-point q grid needs q_min == q_max")
        return np.array([q_min])
    if not q_max > q_min:
        raise ValueError("q_max must exceed q_min")
    return np.linspace(q_min, q_max, q_steps)


@dataclass(frozen=True)
class EntropySeries:
    """Entropy time series for one run: S of both subsystems plus the purity
    of the field-mode reduced state, sampled on a common time grid."""

    t: np.ndarray
    gamma_t: np.ndarray
    s_field: np.ndarray
    s_atom: np.ndarray
    purity_field: np.ndarray

    def __post_init__(self) -> None:
        n = self.t.shape[0]
        for name in ("gamma_t", "s_field", "s_atom", "purity_field"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"{name} must match the time grid shape ({n},)")

    def write_csv(self, path: str) -> None:
        _write_table(path, SERIES_COLUMNS, (self.t, self.gamma_t, self.s_field, self.s_atom, self.purity_field))

    @classmethod
    def read_csv(cls, path: str) -> "EntropySeries":
        """Parse a series CSV, raising ValueError on anything evolve would
        not have written: another header, no data rows, rows not 5 fields
        wide, a field that is not a finite plain numeral, or non-increasing
        t.  Blank lines are skipped."""
        with open(path) as fh:
            header = fh.readline()
            if not header:
                raise ValueError(f"malformed series CSV {path}: empty file")
            if header.rstrip("\n") != ",".join(SERIES_COLUMNS):
                raise ValueError(
                    f"malformed series CSV {path}: expected header "
                    f"{','.join(SERIES_COLUMNS)}, got {header.rstrip()}"
                )
            # Checked up to the first data line: loadtxt warns on input with
            # no data.  The lines read here go back in front of the rest.
            head = []
            for line in fh:
                head.append(line)
                if line.strip():
                    break
            else:
                raise ValueError(f"malformed series CSV {path}: no data rows")
            try:
                data = np.loadtxt(itertools.chain(head, fh), delimiter=",", ndmin=2, comments=None)
            except ValueError as exc:
                raise ValueError(f"malformed series CSV {path}: {exc}") from None
        if data.shape[1] != len(SERIES_COLUMNS):
            raise ValueError(f"malformed series CSV {path}: rows have {data.shape[1]} fields")
        if not np.all(np.isfinite(data)):
            raise ValueError(f"malformed series CSV {path}: a field is not finite")
        t = data[:, 0]
        if not np.all(np.diff(t) > 0):
            raise ValueError(f"malformed series CSV {path}: time column is not strictly increasing")
        return cls(*data.T)


def _write_table(path: str, columns: tuple[str, ...], values: tuple[np.ndarray, ...]) -> None:
    _replace_file(path, lambda fh: _save_table(fh, columns, values, ",".join([NUMBER_FORMAT] * len(columns))))


def _replace_file(path: str, write: Callable[[IO[str]], None]) -> None:
    """Write a text file through write(fh) into a temporary file beside
    path, then move it over path, so a failed write leaves any earlier file
    at path intact and no temporary file behind."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            # name the file the caller asked for, not the temporary one
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


def _save_table(fh: IO[str], columns: tuple[str, ...], values: tuple[np.ndarray, ...], fmt: str) -> None:
    """Header line, then the rows of the equal-length columns values
    through the row format fmt.  The columns are stacked and formatted one
    block of _WRITE_ROWS rows at a time, with one C-level % per block, so
    neither the whole table nor all its text is held at once."""
    fh.write(",".join(columns) + "\n")
    for start in range(0, len(values[0]), _WRITE_ROWS):
        block = np.column_stack([v[start : start + _WRITE_ROWS] for v in values])
        fh.write(((fmt + "\n") * len(block)) % tuple(block.ravel().tolist()))


@dataclass(frozen=True)
class SweepResult:
    """Entropy of the field mode across a deformation grid at one fixed time."""

    q: np.ndarray
    s_field: np.ndarray

    def __post_init__(self) -> None:
        if self.s_field.shape != self.q.shape:
            raise ValueError("S_field must match the q grid shape")

    def write_csv(self, path: str) -> None:
        _write_table(path, SWEEP_COLUMNS, (self.q, self.s_field))


@dataclass(frozen=True)
class OptimalQResult:
    q_star: float
    s_star: float
    scan: SweepResult


@dataclass(frozen=True)
class RevivalDip:
    t: float
    gamma_t: float
    entropy: float
    classification: str


@dataclass(frozen=True)
class RevivalReport:
    threshold: float
    window: tuple[float, float]
    dips: list[RevivalDip] = field(default_factory=list)

    def write_csv(self, path: str) -> None:
        _replace_file(path, self.write)

    def write(self, fh: IO[str]) -> None:
        """Write the dip table as CSV to an open text stream."""
        rows = [(dip.t, dip.gamma_t, dip.entropy, dip.classification) for dip in self.dips]
        values = tuple(np.array(rows, dtype=object).reshape(-1, len(DIP_COLUMNS)).T)
        _save_table(fh, DIP_COLUMNS, values, ",".join([NUMBER_FORMAT] * 3 + ["%s"]))


def run_evolve(
    initial: InitialState,
    params: SystemParams,
    times: np.ndarray,
    log_base: float = 2.0,
) -> EntropySeries:
    """Evolve the prepared state across a time grid and record entropies.

    The spectra of the blocks where the state has weight are diagonalized
    once, reused for every sample, and handed over to entropy_series, so
    the series holds them once: a lone block's real eigenvectors are freed
    once the kernel has copied them to complex, and several blocks' are
    multiplied as they are.  gamma * t must be finite.  A ValueError or
    ConvergenceError from the spectra or the series is raised again as
    the same class with "q=<params.q>: " in front, so a failure names its
    q once (a failed coherent walk already names it).
    """
    times = np.asarray(times, dtype=float)
    _check_gamma_t(params, times)
    state = initial.build(params.q)
    try:
        series = entropy_series(state, build_spectral_cache(params, state.occupied_blocks()), times, log_base=log_base)
    except (ValueError, ConvergenceError) as exc:
        raise type(exc)(f"q={params.q:g}: {exc}") from exc
    return EntropySeries(times, params.gamma * times, *series)


def _check_gamma_t(params: SystemParams, times: np.ndarray) -> None:
    if not math.isfinite(params.gamma * float(np.abs(times).max(initial=0.0))):
        raise ValueError("gamma * t must be finite at every sample")


def _q_evaluator(
    initial: InitialState, params: SystemParams, t: float, log_base: float
) -> Callable[[np.ndarray], np.ndarray]:
    """The function qs -> field-mode entropy at time t for each q of the
    strictly increasing 1-d array qs, with params.q replaced by it.

    gamma * t and log_base are checked here, once.  dynamics._q_sweep
    scores each grid on one state per q: a Fock state, which does not
    depend on q, is built here once, a coherent state at each q.
    """
    times = np.array([float(t)])
    _check_gamma_t(params, times)
    state_at = (lambda q, state=initial.build(params.q): state) if initial.kind == "fock" else initial.build
    _check_log_base(log_base)
    return lambda qs: _q_sweep(state_at, params, qs, times, log_base)


def _entropy_at(evaluate: Callable[[np.ndarray], np.ndarray], q: float) -> float:
    """Field-mode entropy at q from a search's evaluator (_q_evaluator):
    one step of the optimal-q refinement, a one-q solve."""
    return float(evaluate(np.array([q]))[0])


def run_sweep_q(
    initial: InitialState, params: SystemParams, qs: np.ndarray, t: float, log_base: float = 2.0
) -> SweepResult:
    """Field-mode entropy at fixed time t across a deformation grid.

    qs must be a non-empty, strictly increasing 1-d array (see q_grid).
    params.q is replaced by each grid point in turn; its own value is not
    used.  The grid is checked here and scored by one _q_evaluator, which
    solves each block of a chunk of grid points in one stacked eigensolve.
    """
    qs = np.asarray(qs, dtype=float)
    if qs.ndim != 1 or qs.size == 0 or not np.all(np.diff(qs) > 0):
        raise ValueError("q grid must be a non-empty, strictly increasing 1-d array")
    return SweepResult(q=qs, s_field=_q_evaluator(initial, params, t, log_base)(qs))


def _parabolic_peak(f, qs, ss):
    """Maximize f on the bracket qs = (qa, qb, qc), qa < qb < qc, whose
    values ss = (sa, sb, sc) = f(qs) have sb >= sa, sc.

    Successive parabolic interpolation through the three bracket points,
    falling back to the midpoint of the wider half whenever the parabola
    degenerates or the vertex leaves the bracket.  Returns the best sampled
    (q, f(q)) once the bracket is narrower than REFINE_TOL, or after
    _PARABOLIC_MAX_ITER steps.
    """
    (qa, qb, qc), (sa, sb, sc) = qs, ss
    for _ in range(_PARABOLIC_MAX_ITER):
        if qc - qa < REFINE_TOL:
            break
        num = (qb - qa) ** 2 * (sb - sc) - (qb - qc) ** 2 * (sb - sa)
        den = (qb - qa) * (sb - sc) - (qb - qc) * (sb - sa)
        if den != 0.0:
            q_new = qb - 0.5 * num / den
        else:
            q_new = math.nan
        # Reject a vertex outside the open bracket or indistinguishable
        # from the current middle; bisect the wider half instead.
        if not (qa < q_new < qc) or abs(q_new - qb) < 1e-3 * REFINE_TOL:
            if qc - qb > qb - qa:
                q_new = 0.5 * (qb + qc)
            else:
                q_new = 0.5 * (qa + qb)
        s_new = f(q_new)
        if q_new > qb:
            if s_new >= sb:
                qa, sa = qb, sb
                qb, sb = q_new, s_new
            else:
                qc, sc = q_new, s_new
        else:
            if s_new >= sb:
                qc, sc = qb, sb
                qb, sb = q_new, s_new
            else:
                qa, sa = q_new, s_new
    return qb, sb


def find_optimal_q(
    initial: InitialState, params: SystemParams, qs: np.ndarray, t: float, log_base: float = 2.0
) -> OptimalQResult:
    """Locate the deformation that maximizes the fixed-time entropy.

    Coarse scan over the grid qs (a run_sweep_q, which checks it)
    followed by parabolic refinement when the best coarse point is
    interior, down to a bracket of REFINE_TOL; a boundary best is returned
    as-is.  The refinement prepares one _q_evaluator, so a number state is
    built once for all its steps, and each step is an _entropy_at on it.
    Ties on the coarse grid resolve toward smaller q.  params.q is
    replaced at every point evaluated; its own value is not used.
    """
    scan = run_sweep_q(initial, params, qs, t, log_base=log_base)
    best = int(np.argmax(scan.s_field))
    q_star, s_star = float(scan.q[best]), float(scan.s_field[best])
    if 0 < best < scan.q.size - 1:
        around = slice(best - 1, best + 2)
        evaluate = _q_evaluator(initial, params, t, log_base)
        q_star, s_star = _parabolic_peak(
            lambda q: _entropy_at(evaluate, q),
            scan.q[around].tolist(),
            scan.s_field[around].tolist(),
        )
    return OptimalQResult(q_star=q_star, s_star=s_star, scan=scan)


def detect_revivals(
    series: EntropySeries,
    chi: float,
    threshold: float,
    window: tuple[float | None, float | None] = (None, None),
) -> RevivalReport:
    """Find entropy dips and classify them against the Kerr revival clock.

    A dip is a strict local minimum of the sampled S_field that falls below
    threshold * max(S_field over the full series) and inside the window
    (gamma*t units; a missing edge, None, is the series' smallest or
    largest gamma*t).  Dips within 5% of k * 2*pi/chi (k >= 1) are
    near-revivals; within 5% of an odd multiple of pi/chi,
    fractional-revival candidates; anything else is reported with
    classification "none" rather than dropped, since unscheduled deep dips
    are exactly the feature that falsifies a revival structure.  A dip too
    far out to count in half-periods (gamma*t / (pi/chi) overflows) is
    also "none".
    """
    if not (chi > 0.0 and math.isfinite(chi)):
        raise ValueError(f"revival classification needs a finite chi > 0, got {chi!r}")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    gt = series.gamma_t
    lo = float(gt.min()) if window[0] is None else float(window[0])
    hi = float(gt.max()) if window[1] is None else float(window[1])
    if not hi >= lo:
        raise ValueError("window upper edge must not be below the lower edge")

    s = series.s_field
    cutoff = threshold * float(s.max())
    period = 2.0 * math.pi / chi
    half = math.pi / chi

    # Strict local minima below the cutoff and inside the window.  A NaN
    # sample is never a minimum; against a NaN cutoff every minimum counts.
    mid = s[1:-1]
    candidates = (mid < s[:-2]) & (mid < s[2:]) & ~(mid >= cutoff) & (lo <= gt[1:-1]) & (gt[1:-1] <= hi)
    dips: list[RevivalDip] = []
    for i in np.flatnonzero(candidates) + 1:
        g = float(gt[i])
        label = "none"
        if math.isfinite(g / half):
            k = round(g / period)
            j = round(g / half)
            if k >= 1 and abs(g - k * period) <= CLASSIFY_REL_TOL * k * period:
                label = "near-revival"
            elif j >= 1 and j % 2 == 1 and abs(g - j * half) <= CLASSIFY_REL_TOL * j * half:
                label = "fractional-revival-candidate"
        dips.append(RevivalDip(t=float(series.t[i]), gamma_t=g, entropy=float(s[i]), classification=label))
    return RevivalReport(threshold=threshold, window=(lo, hi), dips=dips)
