"""The benchmark's workloads: the CLI calls each one makes, and the checks
that its outputs are right.

Sizes and physical parameters are fixed.  The seed only chooses the rows
(sample times, or q points of a scan) that are compared with the oracle.
Every round of a workload makes the same CLI calls and the same number of
checks, so the share of failed operations does not depend on the seed or
on the run length.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

OMEGA = 1.0
CHI = 0.01
GAMMA = 1.0
GAMMA_BS = -math.pi / 4.0
PERIOD = 2.0 * math.pi / CHI
HALF_PERIOD = math.pi / CHI

# Seeded rows compared with the oracle, per output file.
SAMPLES = 16

# Tolerances, in bits unless stated.  The CSVs carry 12 significant digits
# (rounding <= 5e-12 on S <= 7.2 bits); the eigensolvers differ by ~1e-14
# relative, which long times (gamma t = 1400) turn into phase errors near
# 1e-11.  Observed number-state gaps are <= 4.4e-12.
FOCK_TOL = 1e-9
# qkerr truncates coherent states at relative tail weight 1e-10, the oracle
# at 1e-14; the omitted weight moves S by up to 1.4e-8 (alpha_sq = 30).
COHERENT_TOL = 1e-7
# Single-time scans need no long propagation: only 12-digit rounding.
SCAN_TOL = 1e-10
# find-optimal-q refines q* until the bracket is narrower than 1e-7.
Q_STAR_TOL = 1e-7
# S_field and S_atom come from one pure state (Schmidt symmetry); in a
# 12-digit CSV they may differ by the rounding of each.
SCHMIDT_TOL = 1e-10
# Slack for 12-digit rounding on the 0 <= S <= log2(dim), purity <= 1 bounds.
ROUNDING = 1e-11

# Revival classification rule of the `revivals` subcommand: within 5% of
# k 2pi/chi is a near-revival, within 5% of odd j pi/chi a fractional one.
CLASSIFY_REL_TOL = 0.05

Check = tuple[str, bool, str]

SERIES_HEADER = "t,gamma_t,S_field,S_atom,purity_field"
SCAN_QS = np.linspace(0.5, 1.0, 200)


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_csv(path: Path, header: str) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError(f"{path.name}: header {first!r}, expected {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def _run_checks(stem: str, load, checks) -> list[Check]:
    """Run named checks on the loaded output.  An unreadable output fails
    every check, so a round always makes the same number of checks."""
    try:
        data = load()
    except (OSError, ValueError) as exc:
        return [(f"{stem}.{name}", False, f"unreadable output: {exc}") for name, _ in checks]
    results = []
    for name, fn in checks:
        try:
            ok, detail = fn(data)
        except (OSError, ValueError, IndexError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((f"{stem}.{name}", bool(ok), detail))
    return results


def _classify(gamma_t: float) -> str:
    k = round(gamma_t / PERIOD)
    if k >= 1 and abs(gamma_t - k * PERIOD) <= CLASSIFY_REL_TOL * k * PERIOD:
        return "near-revival"
    j = round(gamma_t / HALF_PERIOD)
    if j >= 1 and j % 2 == 1 and abs(gamma_t - j * HALF_PERIOD) <= CLASSIFY_REL_TOL * j * HALF_PERIOD:
        return "fractional-revival-candidate"
    return "none"


@dataclass(frozen=True)
class Evolve:
    """One `evolve` call on the default time grid, optionally followed by
    `revivals` on its CSV with a (threshold, lo, hi) window."""

    stem: str
    q: float
    fock_n: int | None = None
    alpha_sq: float | None = None
    steps: int | None = None
    revivals: tuple[float, float, float] | None = None

    @property
    def times(self) -> np.ndarray:
        if self.fock_n is not None:
            return np.linspace(0.0, 700.0 / GAMMA, self.steps or 14_001)
        return np.linspace(0.0, 1400.0 / GAMMA, self.steps or 28_001)

    def commands(self, out: Path) -> list[list[str]]:
        argv = ["evolve", "--gamma", _fmt(GAMMA), "--chi", _fmt(CHI), "--q", _fmt(self.q)]
        if self.fock_n is not None:
            argv += ["--fock-n", str(self.fock_n)]
        else:
            argv += ["--initial", "coherent", "--alpha-sq", _fmt(self.alpha_sq)]
        if self.steps is not None:
            argv += ["--steps", str(self.steps)]
        argv += ["--out", str(out / f"{self.stem}.csv")]
        calls = [argv]
        if self.revivals is not None:
            threshold, lo, hi = self.revivals
            calls.append(
                ["revivals", str(out / f"{self.stem}.csv"), "--chi", _fmt(CHI), "--threshold", _fmt(threshold),
                 "--window-lo", _fmt(lo), "--window-hi", _fmt(hi), "--out", str(out / f"{self.stem}.dips.csv")]
            )
        return calls

    def expect(self, rng: random.Random) -> dict:
        times = self.times
        rows = sorted(rng.sample(range(times.size), SAMPLES))
        model = oracle.Model(q=self.q, omega=OMEGA, chi=CHI, gamma=GAMMA)
        if self.fock_n is not None:
            s = oracle.fock_entropy(model, self.fock_n, times[rows])
            return {"rows": rows, "s": s, "dim": self.fock_n + 1, "tol": FOCK_TOL}
        s, n_max = oracle.coherent_entropy(model, self.alpha_sq, times[rows])
        return {"rows": rows, "s": s, "dim": n_max + 1, "tol": COHERENT_TOL}

    def check(self, out: Path, expected: dict, stdout: list[str]) -> list[Check]:
        def against_oracle(data):
            times = self.times
            if data.shape != (times.size, 5):
                return False, f"shape {data.shape}, expected ({times.size}, 5)"
            rows = expected["rows"]
            t_gap = float(np.abs(data[rows, 0] - times[rows]).max())
            gap = float(np.abs(data[rows, 2] - expected["s"]).max())
            ok = t_gap <= ROUNDING * max(1.0, float(times[-1])) and gap <= expected["tol"]
            return ok, f"max |S_field - oracle| = {gap:.2e} (tol {expected['tol']:g}) at {len(rows)} seeded rows"

        def schmidt(data):
            gap = float(np.abs(data[:, 2] - data[:, 3]).max())
            return gap <= SCHMIDT_TOL, f"max |S_field - S_atom| = {gap:.2e}"

        def bounds(data):
            s_cap = math.log2(expected["dim"]) + ROUNDING
            s, purity = data[:, 2:4], data[:, 4]
            gt_gap = float(np.abs(data[:, 1] - GAMMA * data[:, 0]).max())
            ok = (
                s.min() >= 0.0 and s.max() <= s_cap and purity.min() > 0.0
                and purity.max() <= 1.0 + ROUNDING and gt_gap <= ROUNDING * max(1.0, float(data[-1, 1]))
            )
            return ok, f"S in [{s.min():.3g}, {s.max():.6g}] (cap {s_cap:.6g}), purity in [{purity.min():.3g}, {purity.max():.12g}]"

        checks = [("oracle", against_oracle), ("schmidt", schmidt), ("bounds", bounds)]
        if self.revivals is not None:
            checks.append(("revivals", lambda data: self._check_dips(out, data)))
        return _run_checks(self.stem, lambda: _read_csv(out / f"{self.stem}.csv", SERIES_HEADER), checks)

    def _check_dips(self, out: Path, data: np.ndarray) -> tuple[bool, str]:
        threshold, lo, hi = self.revivals
        t, gt, s = data[:, 0], data[:, 1], data[:, 2]
        inner = np.arange(1, s.size - 1)
        minima = inner[(s[inner] < s[inner - 1]) & (s[inner] < s[inner + 1])]
        want = [
            (float(t[i]), float(gt[i]), float(s[i]), _classify(float(gt[i])))
            for i in minima
            if s[i] < threshold * s.max() and lo <= gt[i] <= hi
        ]
        with open(out / f"{self.stem}.dips.csv") as fh:
            header = fh.readline().strip()
            rows = [line.strip().split(",") for line in fh]
        got = [(float(a), float(b), float(c), label) for a, b, c, label in rows]
        ok = header == "t,gamma_t,S,classification" and got == want
        return ok, f"{len(got)} dip(s) reported, {len(want)} recomputed from the series"


@dataclass(frozen=True)
class Scan:
    """`find-optimal-q` (optimum=True) or `sweep-q` for a number state at
    gamma t = -pi/4, t = 1, over 200 q values in [0.5, 1]."""

    stem: str
    fock_n: int
    optimum: bool

    def commands(self, out: Path) -> list[list[str]]:
        cmd = "find-optimal-q" if self.optimum else "sweep-q"
        return [[cmd, f"--gamma={GAMMA_BS!r}", "--t", "1", "--fock-n", str(self.fock_n), "--q-steps", "200",
                 "--out", str(out / f"{self.stem}.csv")]]

    def _model(self, q: float) -> oracle.Model:
        return oracle.Model(q=q, omega=OMEGA, chi=0.0, gamma=GAMMA_BS)

    def expect(self, rng: random.Random) -> dict:
        rows = sorted(rng.sample(range(SCAN_QS.size), SAMPLES))
        s = np.array([oracle.fock_entropy(self._model(float(SCAN_QS[i])), self.fock_n, 1.0)[0] for i in rows])
        expected = {"rows": rows, "s": s}
        if self.optimum:
            expected["optimum"] = oracle.maximize_fock_entropy(self.fock_n, SCAN_QS, 1.0, OMEGA, 0.0, GAMMA_BS)
        else:
            expected["binomial"] = oracle.binomial_entropy(self.fock_n)
        return expected

    def check(self, out: Path, expected: dict, stdout: list[str]) -> list[Check]:
        def against_oracle(data):
            if data.shape != (SCAN_QS.size, 2):
                return False, f"shape {data.shape}, expected ({SCAN_QS.size}, 2)"
            rows = expected["rows"]
            q_gap = float(np.abs(data[rows, 0] - SCAN_QS[rows]).max())
            gap = float(np.abs(data[rows, 1] - expected["s"]).max())
            return q_gap <= ROUNDING and gap <= SCAN_TOL, f"max |S - oracle| = {gap:.2e} at {len(rows)} seeded q"

        def bounds(data):
            s = data[:, 1]
            return s.min() >= 0.0 and s.max() <= math.log2(self.fock_n + 1) + ROUNDING, f"S in [{s.min():.3g}, {s.max():.6g}]"

        def optimum(data):
            q_star = float(stdout[0].split("q_star = ")[1].split()[0])
            s_star = float(stdout[0].split("S_star = ")[1].split()[0])
            q_ref, s_ref = expected["optimum"]
            ok = abs(q_star - q_ref) <= Q_STAR_TOL and abs(s_star - s_ref) <= SCAN_TOL and s_star >= data[:, 1].max()
            return ok, f"q* = {q_star!r} (oracle {q_ref:.12g}), S* = {s_star!r} (oracle {s_ref:.12g})"

        def binomial(data):
            s_unit = float(data[-1, 1])
            ok = data[-1, 0] == 1.0 and abs(s_unit - expected["binomial"]) <= SCAN_TOL
            return ok, f"S(q=1) = {s_unit!r}, binomial {expected['binomial']!r}"

        last = ("optimum", optimum) if self.optimum else ("binomial", binomial)
        checks = [("oracle", against_oracle), ("bounds", bounds), last]
        return _run_checks(self.stem, lambda: _read_csv(out / f"{self.stem}.csv", "q,S_field"), checks)


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple


_REVIVAL = (0.2, 0.9 * PERIOD, 1.1 * PERIOD)
_COHERENT_REVIVAL = (0.05, 1.8 * PERIOD, 2.2 * PERIOD)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "acceptance-cli",
            (
                Evolve("fock5-q1", 1.0, fock_n=5, revivals=_REVIVAL),
                Evolve("fock5-q0.7", 0.7, fock_n=5, revivals=_REVIVAL),
                Evolve("fock10-q1", 1.0, fock_n=10, revivals=_REVIVAL),
                Evolve("fock10-q0.7", 0.7, fock_n=10, revivals=_REVIVAL),
                Evolve("coherent-q1", 1.0, alpha_sq=0.5, revivals=_COHERENT_REVIVAL),
                Evolve("coherent-q0.99", 0.99, alpha_sq=0.5, revivals=_COHERENT_REVIVAL),
            ),
        ),
        Workload("fock-n40", (Evolve("fock40-q0.7", 0.7, fock_n=40, steps=2001),)),
        Workload(
            "q-scan",
            (Scan("optimal-n5", 5, optimum=True), Scan("optimal-n10", 10, optimum=True),
             Scan("sweep-n5", 5, optimum=False)),
        ),
    )
}
