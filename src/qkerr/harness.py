"""Experiment drivers: entropy sweeps, time series, optimal-deformation
search, and revival-dip detection, with deterministic CSV output.

Everything here is a thin orchestration layer over dynamics: build the
initial state, build the per-block spectra once, evaluate the entropy on a
grid, and serialize.  All CSV is written with 12 significant digits and
``\\n`` newlines so repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import SystemParams
from .dynamics import (
    TwoModeState,
    build_spectral_cache,
    entropy_series,
    prepare_coherent,
    prepare_fock,
)
from .exceptions import ConvergenceError
from .qalgebra import CoherentSpec

SERIES_COLUMNS = ("t", "gamma_t", "S_field", "S_atom", "purity_field")
SWEEP_COLUMNS = ("q", "S_field")
DIP_COLUMNS = ("t", "gamma_t", "S", "classification")

# Revival classification half-width, as a fraction of the target gamma*t.
# 5 percent keeps multiples of 2*pi/chi and pi/chi unambiguous.
CLASSIFY_REL_TOL = 0.05

# Default time grids, in gamma*t units: dips are ~1 wide in gamma*t, so a
# 0.05 spacing resolves them with room to spare.
FOCK_GT_MAX = 700.0
FOCK_STEPS = 14_001
COHERENT_GT_MAX = 1400.0
COHERENT_STEPS = 28_001

# Smallest deformation (exclusive) that q grids and the CLI accept: below it
# [n] -> 1/(1-q^2) is tiny and every block is nearly degenerate.  The library
# itself accepts any q in (0, 1].
Q_FLOOR = 0.05


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


@dataclass(frozen=True)
class InitialState:
    """Recipe for the field-mode preparation (atom always starts in |0>).

    kind is "fock" (deformed number state, quantum number fock_n) or
    "coherent" (deformed coherent state with mean photon number alpha_sq
    and phase alpha_phase, truncated to relative tail weight tail_tol).
    """

    kind: str
    fock_n: int = 5
    alpha_sq: float = 0.5
    alpha_phase: float = 0.0
    tail_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.kind not in ("fock", "coherent"):
            raise ValueError(f"unknown initial-state kind {self.kind!r}")
        if self.kind == "fock":
            if not isinstance(self.fock_n, int) or isinstance(self.fock_n, bool):
                raise ValueError("fock_n must be an integer")
            if self.fock_n < 0:
                raise ValueError("fock_n must be nonnegative")
        else:
            if not self.alpha_sq >= 0.0:
                raise ValueError("alpha_sq must be nonnegative")
            if not 0.0 < self.tail_tol < 1.0:
                raise ValueError("tail_tol must lie in (0, 1)")

    def build(self, q: float) -> TwoModeState:
        if self.kind == "fock":
            return prepare_fock(self.fock_n)
        spec = CoherentSpec(alpha_sq=self.alpha_sq, alpha_phase=self.alpha_phase)
        return prepare_coherent(spec, q, tail_tol=self.tail_tol)

    def default_grid(self, gamma: float) -> tuple[float, int]:
        """Default (t_max, samples) so that gamma*t spans the revival window."""
        if gamma == 0.0:
            raise ValueError("cannot infer a default time grid with gamma = 0; pass t_max")
        if self.kind == "fock":
            return FOCK_GT_MAX / abs(gamma), FOCK_STEPS
        return COHERENT_GT_MAX / abs(gamma), COHERENT_STEPS


def time_grid(t_min: float, t_max: float, steps: int) -> np.ndarray:
    """Uniform, strictly increasing time grid.  Negative times are allowed."""
    if not isinstance(steps, int) or isinstance(steps, bool):
        raise ValueError("steps must be an integer")
    if steps < 2:
        raise ValueError("time grid needs at least 2 samples")
    t_min, t_max = float(t_min), float(t_max)
    if not (math.isfinite(t_min) and math.isfinite(t_max)):
        raise ValueError("time grid endpoints must be finite")
    if not t_max > t_min:
        raise ValueError("t_max must exceed t_min")
    return np.linspace(t_min, t_max, steps)


def q_grid(q_min: float, q_max: float, q_steps: int) -> np.ndarray:
    """Uniform deformation grid, with q_min above Q_FLOOR."""
    if not isinstance(q_steps, int) or isinstance(q_steps, bool):
        raise ValueError("q_steps must be an integer")
    if q_steps < 1:
        raise ValueError("q grid needs at least 1 sample")
    q_min, q_max = float(q_min), float(q_max)
    if not q_min > Q_FLOOR:
        raise ValueError(f"q_min must exceed {Q_FLOOR}")
    if not q_max <= 1.0:
        raise ValueError("q_max must not exceed 1")
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
        with open(path, "w", newline="") as fh:
            _write_series(fh, self)

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        _write_series(buf, self)
        return buf.getvalue()

    @classmethod
    def read_csv(cls, path: str) -> "EntropySeries":
        with open(path, newline="") as fh:
            return _read_series(fh, source=path)


def _write_series(fh, series: EntropySeries) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(SERIES_COLUMNS)
    for i in range(series.t.shape[0]):
        writer.writerow(
            [
                _fmt(series.t[i]),
                _fmt(series.gamma_t[i]),
                _fmt(series.s_field[i]),
                _fmt(series.s_atom[i]),
                _fmt(series.purity_field[i]),
            ]
        )


def _read_series(fh, source: str = "<stream>") -> EntropySeries:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"malformed series CSV {source}: empty file") from None
    if tuple(header) != SERIES_COLUMNS:
        raise ValueError(
            f"malformed series CSV {source}: expected header "
            f"{','.join(SERIES_COLUMNS)}, got {','.join(header)}"
        )
    cols: list[list[float]] = [[], [], [], [], []]
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 5:
            raise ValueError(f"malformed series CSV {source}: line {lineno} has {len(row)} fields")
        try:
            values = [float(x) for x in row]
        except ValueError:
            raise ValueError(f"malformed series CSV {source}: non-numeric entry on line {lineno}") from None
        for col, v in zip(cols, values):
            col.append(v)
    if not cols[0]:
        raise ValueError(f"malformed series CSV {source}: no data rows")
    t = np.asarray(cols[0])
    if t.shape[0] > 1 and not np.all(np.diff(t) > 0):
        raise ValueError(f"malformed series CSV {source}: time column is not strictly increasing")
    return EntropySeries(
        t=t,
        gamma_t=np.asarray(cols[1]),
        s_field=np.asarray(cols[2]),
        s_atom=np.asarray(cols[3]),
        purity_field=np.asarray(cols[4]),
    )


@dataclass(frozen=True)
class SweepResult:
    """Entropy of the field mode across a deformation grid at one fixed time."""

    q: np.ndarray
    s_field: np.ndarray

    def __post_init__(self) -> None:
        if self.s_field.shape != self.q.shape:
            raise ValueError("S_field must match the q grid shape")

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(SWEEP_COLUMNS)
            for i in range(self.q.shape[0]):
                writer.writerow([_fmt(self.q[i]), _fmt(self.s_field[i])])


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
        with open(path, "w", newline="") as fh:
            self._write(fh)

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        self._write(buf)
        return buf.getvalue()

    def _write(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DIP_COLUMNS)
        for dip in self.dips:
            writer.writerow([_fmt(dip.t), _fmt(dip.gamma_t), _fmt(dip.entropy), dip.classification])


def run_evolve(
    initial: InitialState,
    params: SystemParams,
    times: np.ndarray,
    log_base: float = 2.0,
) -> EntropySeries:
    """Evolve the prepared state across a time grid and record entropies.

    The spectra of the blocks where the state has weight are diagonalized
    once and reused for every sample.
    """
    state = initial.build(params.q)
    cache = build_spectral_cache(params, state.occupied_blocks())
    times = np.asarray(times, dtype=float)
    s_field, s_atom, purity_field = entropy_series(state, cache, times, log_base=log_base)
    return EntropySeries(
        t=times,
        gamma_t=params.gamma * times,
        s_field=s_field,
        s_atom=s_atom,
        purity_field=purity_field,
    )


def _entropy_at(
    initial: InitialState,
    omega: float,
    chi: float,
    gamma: float,
    q: float,
    t: float,
    log_base: float,
) -> float:
    params = SystemParams(omega=omega, chi=chi, gamma=gamma, q=q)
    state = initial.build(q)
    cache = build_spectral_cache(params, state.occupied_blocks())
    s_field, _, _ = entropy_series(state, cache, np.array([float(t)]), log_base=log_base)
    return float(s_field[0])


def run_sweep_q(
    initial: InitialState,
    omega: float,
    chi: float,
    gamma: float,
    qs: np.ndarray,
    t: float,
    log_base: float = 2.0,
) -> SweepResult:
    """Field-mode entropy at fixed time t across a deformation grid.

    Each grid point rebuilds the state and the spectra of the blocks where
    it has weight: the truncation of a coherent state and every block
    matrix depend on q.
    """
    qs = np.asarray(qs, dtype=float)
    out = np.empty_like(qs)
    for i, q in enumerate(qs):
        try:
            out[i] = _entropy_at(initial, omega, chi, gamma, float(q), t, log_base)
        except ConvergenceError as exc:
            raise ConvergenceError(f"sweep failed at q={q:.6g}: {exc}") from exc
    return SweepResult(q=qs, s_field=out)


def _parabolic_peak(f, qa, qb, qc, sa, sb, sc, tol=1e-7, max_iter=60):
    """Maximize f on the bracket qa < qb < qc with f(qb) >= f(qa), f(qc).

    Successive parabolic interpolation through the three bracket points,
    falling back to the midpoint of the wider half whenever the parabola
    degenerates or the vertex leaves the bracket.  Returns the best sampled
    (q, f(q)) once the bracket is narrower than tol.
    """
    if not (qa < qb < qc):
        raise ValueError("bracket must satisfy qa < qb < qc")
    if sb < sa or sb < sc:
        raise ValueError("bracket middle must not be below the ends")
    for _ in range(max_iter):
        if qc - qa < tol:
            break
        num = (qb - qa) ** 2 * (sb - sc) - (qb - qc) ** 2 * (sb - sa)
        den = (qb - qa) * (sb - sc) - (qb - qc) * (sb - sa)
        if den != 0.0:
            q_new = qb - 0.5 * num / den
        else:
            q_new = math.nan
        # Reject a vertex outside the open bracket or indistinguishable
        # from the current middle; bisect the wider half instead.
        if not (qa < q_new < qc) or abs(q_new - qb) < 1e-3 * tol:
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
    initial: InitialState,
    omega: float,
    chi: float,
    gamma: float,
    t: float,
    log_base: float = 2.0,
    q_min: float = 0.5,
    q_max: float = 1.0,
    q_steps: int = 200,
    refine_tol: float = 1e-7,
) -> OptimalQResult:
    """Locate the deformation that maximizes the fixed-time entropy.

    Coarse scan over [q_min, q_max] followed by parabolic refinement when
    the best coarse point is interior; a boundary best is returned as-is.
    Ties on the coarse grid resolve toward smaller q (first occurrence on
    an ascending grid).
    """
    qs = q_grid(q_min, q_max, q_steps)
    scan = run_sweep_q(initial, omega, chi, gamma, qs, t, log_base=log_base)
    best = int(np.argmax(scan.s_field))
    if best == 0 or best == qs.shape[0] - 1:
        return OptimalQResult(q_star=float(qs[best]), s_star=float(scan.s_field[best]), scan=scan)

    def f(q: float) -> float:
        return _entropy_at(initial, omega, chi, gamma, q, t, log_base)

    q_star, s_star = _parabolic_peak(
        f,
        float(qs[best - 1]),
        float(qs[best]),
        float(qs[best + 1]),
        float(scan.s_field[best - 1]),
        float(scan.s_field[best]),
        float(scan.s_field[best + 1]),
        tol=refine_tol,
    )
    return OptimalQResult(q_star=float(q_star), s_star=float(s_star), scan=scan)


def detect_revivals(
    series: EntropySeries,
    chi: float,
    threshold: float,
    window: tuple[float, float] | None = None,
) -> RevivalReport:
    """Find entropy dips and classify them against the Kerr revival clock.

    A dip is a strict local minimum of the sampled S_field that falls below
    threshold * max(S_field over the full series) and inside the window
    (gamma*t units, defaults to the whole series).  Dips within 5% of k *
    2*pi/chi (k >= 1) are near-revivals; within 5% of an odd multiple of
    pi/chi, fractional-revival candidates; anything else is reported with
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
    if window is None:
        window = (float(gt.min()), float(gt.max()))
    lo, hi = float(window[0]), float(window[1])
    if not hi >= lo:
        raise ValueError("window upper edge must not be below the lower edge")

    s = series.s_field
    cutoff = threshold * float(s.max())
    period = 2.0 * math.pi / chi
    half = math.pi / chi

    dips: list[RevivalDip] = []
    for i in range(1, s.shape[0] - 1):
        if not (s[i] < s[i - 1] and s[i] < s[i + 1]):
            continue
        if s[i] >= cutoff:
            continue
        g = float(gt[i])
        if not lo <= g <= hi:
            continue
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
