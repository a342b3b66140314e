"""Acceptance suite.

Each test exercises one headline result end to end and prints a single
PASS/FAIL line on the real stdout (pytest capture disabled for that line),
so a log of this module reads as a checklist.

Known red: criterion 6.  The deformed (q = 0.7) runs keep the entropy high
through almost the whole revival window, but the sampled dynamics contains
isolated deep quasi-recurrences inside the window (confirmed independently
by the dense-matrix reference propagator), so the strict window-minimum
bound fails.  The check is asserted exactly as stated rather than weakened.
"""

import math

import numpy as np
import pytest

from qkerr.blocks import SystemParams, build_block, tridiagonal_dense
from qkerr.dynamics import (
    build_spectral_cache,
    dense_reference_evolve,
    prepare_coherent,
    prepare_fock,
)
from qkerr.harness import InitialState, detect_revivals, find_optimal_q, q_grid, run_evolve
from qkerr.qalgebra import box_n

from conftest import load_bench, propagated_tables, random_triangle_state, run_cli

oracle = load_bench("oracle")

OMEGA = 1.0
CHI = 0.01
GAMMA = 1.0
GAMMA_BS = -math.pi / 4.0
PERIOD = 2.0 * math.pi / CHI  # 628.32 in gamma*t units
HALF_PERIOD = math.pi / CHI

FOCK_TIMES = np.linspace(0.0, 700.0, 14_001)
COHERENT_TIMES = np.linspace(0.0, 1400.0, 28_001)


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def fock_series(n, q):
    init = InitialState(kind="fock", fock_n=n)
    params = SystemParams(omega=OMEGA, chi=CHI, gamma=GAMMA, q=q)
    return run_evolve(init, params, FOCK_TIMES)


def coherent_series(q):
    init = InitialState(kind="coherent", alpha_sq=0.5)
    params = SystemParams(omega=OMEGA, chi=CHI, gamma=GAMMA, q=q)
    return run_evolve(init, params, COHERENT_TIMES)


@pytest.fixture(scope="module")
def f5_q1():
    return fock_series(5, 1.0)


@pytest.fixture(scope="module")
def f5_q07():
    return fock_series(5, 0.7)


@pytest.fixture(scope="module")
def f10_q1():
    return fock_series(10, 1.0)


@pytest.fixture(scope="module")
def f10_q07():
    return fock_series(10, 0.7)


@pytest.fixture(scope="module")
def coh_q1():
    return coherent_series(1.0)


@pytest.fixture(scope="module")
def coh_q099():
    return coherent_series(0.99)


def window_min(series, center, rel=(0.9, 1.1)):
    mask = (series.gamma_t >= rel[0] * center) & (series.gamma_t <= rel[1] * center)
    return float(series.s_field[mask].min())


def binomial_entropy_bits(n):
    p = np.array([math.comb(n, m) for m in range(n + 1)], dtype=float) / 2.0**n
    return float(-(p * np.log2(p)).sum())


def test_criterion_1_beam_splitter_value(tmp_path, capsys):
    """Non-deformed 50:50 splitting of |5, 0> through the sweep command."""
    out = tmp_path / "sweep.csv"
    code = run_cli(
        [
            "sweep-q",
            "--gamma", str(GAMMA_BS),
            "--t", "1",
            "--fock-n", "5",
            "--q-min", "0.5",
            "--q-max", "1.0",
            "--q-steps", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    table = {float(q): float(s) for q, s in rows}
    s_measured = table[1.0]
    oracle = binomial_entropy_bits(5)
    ok = abs(s_measured - 2.1980) <= 0.001 and abs(s_measured - oracle) <= 1e-9
    report(capsys, 1, ok, f"S(q=1) = {s_measured:.6f} (oracle {oracle:.6f}, target 2.1980 +/- 0.001)")
    assert abs(s_measured - 2.1980) <= 0.001
    assert abs(s_measured - oracle) <= 1e-9


def test_criterion_2_optimal_deformation(tmp_path, capsys):
    """The entropy-vs-q curve peaks near q = 0.937 with S near 2.243."""
    out = tmp_path / "scan.csv"
    code = run_cli(
        [
            "find-optimal-q",
            "--gamma", str(GAMMA_BS),
            "--t", "1",
            "--fock-n", "5",
            "--out", str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    q_star = float(text.split("q_star = ")[1].split("\n")[0])
    s_star = float(text.split("S_star = ")[1].split("\n")[0])
    ok = abs(q_star - 0.937) <= 0.005 and abs(s_star - 2.243) <= 0.01
    report(capsys, 2, ok, f"q* = {q_star:.6f} (target 0.937 +/- 0.005), S* = {s_star:.6f} (target 2.243 +/- 0.01)")
    assert abs(q_star - 0.937) <= 0.005
    assert abs(s_star - 2.243) <= 0.01


def test_criterion_3_optimum_drifts_toward_unity(capsys):
    """Larger initial excitation pushes the optimal deformation toward 1."""
    params = SystemParams(omega=OMEGA, chi=0.0, gamma=GAMMA_BS)
    qs = q_grid(0.5, 1.0, 200)
    r5 = find_optimal_q(InitialState(kind="fock", fock_n=5), params, qs, 1.0)
    r10 = find_optimal_q(InitialState(kind="fock", fock_n=10), params, qs, 1.0)
    ok = r10.q_star > r5.q_star
    report(capsys, 3, ok, f"q*(N=10) = {r10.q_star:.6f} > q*(N=5) = {r5.q_star:.6f}")
    assert r10.q_star > r5.q_star


def test_criterion_4_single_quantum_insensitive(capsys):
    """N = 1 reduces to a detuned two-level exchange; deformation barely moves it."""
    g = GAMMA_BS
    t = 1.0
    qs = np.linspace(0.5, 1.0, 101)
    init = InitialState(kind="fock", fock_n=1)

    def closed_form_bits(q):
        delta = (q * q - 1.0) / 2.0
        rabi = math.sqrt(g * g + 0.25 * delta * delta)
        p = g * g * math.sin(rabi * t) ** 2 / rabi**2
        if p <= 0.0 or p >= 1.0:
            return 0.0
        return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)

    worst_dev = 0.0
    worst_oracle_gap = 0.0
    from qkerr.harness import run_sweep_q

    sweep = run_sweep_q(init, SystemParams(omega=OMEGA, chi=0.0, gamma=g), qs, t)
    s_at_unity = sweep.s_field[-1]
    for q, s in zip(qs, sweep.s_field):
        worst_dev = max(worst_dev, abs(s - s_at_unity))
        worst_oracle_gap = max(worst_oracle_gap, abs(s - closed_form_bits(float(q))))
    ok = worst_dev < 0.01 and worst_oracle_gap <= 1e-9
    report(
        capsys, 4, ok,
        f"max |S(q) - S(1)| = {worst_dev:.2e} bits (bound 0.01); oracle gap {worst_oracle_gap:.2e}",
    )
    assert worst_oracle_gap <= 1e-9
    assert worst_dev < 0.01


def test_criterion_5_non_deformed_revivals(f5_q1, f10_q1, capsys):
    """q = 1 Kerr clock: deep entropy dip at 2*pi/chi, fractional dip at pi/chi."""
    details = []
    ok = True
    for label, series in (("N=5", f5_q1), ("N=10", f10_q1)):
        full_max = float(series.s_field.max())
        dip = window_min(series, PERIOD)
        near_ok = dip < 0.2 * full_max
        frac = detect_revivals(
            series, CHI, threshold=0.9,
            window=(0.9 * HALF_PERIOD, 1.1 * HALF_PERIOD),
        )
        frac_ok = any(d.classification == "fractional-revival-candidate" for d in frac.dips)
        ok = ok and near_ok and frac_ok
        details.append(f"{label}: min/max = {dip / full_max:.4f} (< 0.2), fractional dip {'found' if frac_ok else 'missing'}")
    report(capsys, 5, ok, "; ".join(details))
    assert ok


def test_criterion_6_deformation_destroys_revivals(f5_q07, f10_q07, capsys):
    """q = 0.7: the revival window is required to stay above half the peak.

    The simulated dynamics does not satisfy the strict window-minimum form
    of this statement: the window is high-entropy at almost every sample,
    but isolated deep quasi-recurrences (cross-checked against the dense
    reference propagator) dip far below half max.  Asserted as stated.
    """
    details = []
    ok = True
    for label, series in (("N=5", f5_q07), ("N=10", f10_q07)):
        full_max = float(series.s_field.max())
        dip = window_min(series, PERIOD)
        ratio = dip / full_max
        ok = ok and (ratio > 0.5)
        details.append(f"{label}: window min/max = {ratio:.4f} (required > 0.5)")
    report(capsys, 6, ok, "; ".join(details))
    assert ok, "; ".join(details)


def test_criterion_6_window_ratios_pinned(f5_q07, f10_q07):
    """Regression fingerprint of the dynamics behind criterion 6.

    Criterion 6 stays red, so it cannot flag a change of the model; the
    window-min/max ratios it reports are pinned here instead.
    """
    expected = {"N=5": (f5_q07, 0.047142361723), "N=10": (f10_q07, 0.176799680118)}
    for label, (series, ratio) in expected.items():
        measured = window_min(series, PERIOD) / float(series.s_field.max())
        assert measured == pytest.approx(ratio, abs=1e-9), label


def test_criterion_7_coherent_revival(coh_q1, coh_q099, capsys):
    """Coherent revival at 4*pi/chi for q = 1; q = 0.99 must break the check."""
    t_rev = 4.0 * math.pi / CHI / GAMMA

    def s_at_revival(q):
        init = InitialState(kind="coherent", alpha_sq=0.5)
        params = SystemParams(omega=OMEGA, chi=CHI, gamma=GAMMA, q=q)
        series = run_evolve(init, params, np.array([0.0, t_rev]))
        return float(series.s_field[1])

    max_q1 = float(coh_q1.s_field.max())
    max_q099 = float(coh_q099.s_field.max())
    s1 = s_at_revival(1.0)
    s099 = s_at_revival(0.99)
    revived = s1 < 0.05 * max_q1
    broken = not (s099 < 0.05 * max_q099)
    ok = revived and broken
    report(
        capsys, 7, ok,
        f"q=1: S(4pi/chi)/max = {s1 / max_q1:.4f} (< 0.05); "
        f"q=0.99: {s099 / max_q099:.4f} (check must fail, i.e. >= 0.05)",
    )
    assert revived
    assert broken


def test_criterion_8_oracle_equivalence(capsys):
    """Block-spectral propagation vs the dense-matrix reference, 50 states."""
    rng = np.random.default_rng(8)
    param_pool = [
        SystemParams(omega=1.0, chi=0.0, gamma=-math.pi / 4.0, q=1.0),
        SystemParams(omega=1.0, chi=0.01, gamma=1.0, q=0.7),
        SystemParams(omega=1.3, chi=0.05, gamma=0.6, q=0.9),
        SystemParams(omega=0.8, chi=0.02, gamma=-1.1, q=0.55),
        SystemParams(omega=1.0, chi=0.01, gamma=1.0, q=0.99),
    ]
    worst = 0.0
    for i in range(50):
        params = param_pool[i % len(param_pool)]
        n_max = int(rng.integers(1, 9))
        state = random_triangle_state(rng, n_max)
        t = float(rng.uniform(-3.0, 3.0))
        cache = build_spectral_cache(params, range(n_max + 1))
        fast = propagated_tables(state, cache, np.array([t]))[0]
        slow = dense_reference_evolve(state, params, t)
        worst = max(worst, float(np.abs(fast - slow.amplitudes).max()))
    ok = worst <= 1e-9
    report(capsys, 8, ok, f"50 random states, n_max <= 8: worst componentwise gap {worst:.2e} (bound 1e-9)")
    assert worst <= 1e-9


def test_criterion_9_invariant_suite(capsys):
    """Norms, Schmidt symmetry, traces, eigen residuals, bracket recurrence."""
    failures = []

    # Bracket recurrence [n+1] = 1 + q^2 [n] for n <= 200.
    worst_rec = 0.0
    for q in (0.1, 0.3, 0.7, 0.937, 0.99, 1.0 - 1e-12, 1.0):
        for n in range(201):
            lhs = box_n(n + 1, q)
            rhs = 1.0 + q * q * box_n(n, q)
            scale = max(1.0, abs(rhs))
            worst_rec = max(worst_rec, abs(lhs - rhs) / scale)
    if worst_rec > 1e-12:
        failures.append(f"bracket recurrence {worst_rec:.2e}")

    # Eigen residuals over every block used by the headline runs.
    worst_resid = 0.0
    configs = [
        (SystemParams(omega=OMEGA, chi=CHI, gamma=GAMMA, q=q), n)
        for q, n in ((1.0, 5), (0.7, 5), (1.0, 10), (0.7, 10))
    ]
    coh_n1 = prepare_coherent(0.5, 1.0).n_max
    coh_n099 = prepare_coherent(0.5, 0.99).n_max
    configs.append((SystemParams(omega=OMEGA, chi=CHI, gamma=GAMMA, q=1.0), coh_n1))
    configs.append((SystemParams(omega=OMEGA, chi=CHI, gamma=GAMMA, q=0.99), coh_n099))
    configs.append((SystemParams(omega=OMEGA, chi=0.0, gamma=GAMMA_BS, q=0.937), 5))
    for params, n_max in configs:
        cache = build_spectral_cache(params, range(n_max + 1))
        for n_total, (vals, vecs) in cache.items():
            block = build_block(params, n_total)
            h = tridiagonal_dense(block.diag, block.offdiag)
            resid = np.abs(h @ vecs - vecs * vals).max()
            bound = 1e-10 * max(1.0, float(np.linalg.norm(h)))
            worst_resid = max(worst_resid, resid / bound)
    if worst_resid > 1.0:
        failures.append(f"eigen residual {worst_resid:.2f}x bound")

    # State-level invariants at scattered times of the headline runs.  The
    # oracle reduces each mode of the engine's amplitude tables on its own;
    # a series copies S_atom from S_field, so the series itself cannot show
    # a Schmidt gap.
    sample_times = np.array([0.3, 1.0, 157.0, 314.16, 628.32])
    worst_norm = 0.0
    worst_schmidt = 0.0
    worst_trace = 0.0
    states = [
        (prepare_fock(5), SystemParams(omega=OMEGA, chi=CHI, gamma=GAMMA, q=1.0)),
        (prepare_fock(5), SystemParams(omega=OMEGA, chi=CHI, gamma=GAMMA, q=0.7)),
        (prepare_fock(10), SystemParams(omega=OMEGA, chi=CHI, gamma=GAMMA, q=0.7)),
        (prepare_coherent(0.5, 0.99), SystemParams(omega=OMEGA, chi=CHI, gamma=GAMMA, q=0.99)),
        (prepare_fock(5), SystemParams(omega=OMEGA, chi=0.0, gamma=GAMMA_BS, q=0.937)),
    ]
    for state, params in states:
        cache = build_spectral_cache(params, range(state.n_max + 1))
        psi = propagated_tables(state, cache, sample_times)
        psi_atom = psi.transpose(0, 2, 1)
        worst_norm = max(worst_norm, float(np.abs(np.linalg.norm(psi, axis=(1, 2)) - 1.0).max()))
        for tables in (psi, psi_atom):
            rho = tables @ tables.conj().transpose(0, 2, 1)
            worst_trace = max(worst_trace, float(np.abs(np.trace(rho, axis1=1, axis2=2).real - 1.0).max()))
        s_f = oracle.field_entropy(psi)
        s_a = oracle.field_entropy(psi_atom)
        worst_schmidt = max(worst_schmidt, float(np.abs(s_f - s_a).max()))
    if worst_norm > 1e-10:
        failures.append(f"norm drift {worst_norm:.2e}")
    if worst_trace > 1e-10:
        failures.append(f"trace {worst_trace:.2e}")
    if worst_schmidt > 1e-8:
        failures.append(f"Schmidt gap {worst_schmidt:.2e}")

    ok = not failures
    detail = (
        f"norm {worst_norm:.1e}, Schmidt {worst_schmidt:.1e}, trace {worst_trace:.1e}, "
        f"residual {worst_resid:.2f}x bound, recurrence {worst_rec:.1e}"
        if ok
        else "; ".join(failures)
    )
    report(capsys, 9, ok, detail)
    assert ok, "; ".join(failures)
