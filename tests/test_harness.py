"""Driver-layer tests: grids, sweeps, CSV determinism, peak refinement,
and revival-dip classification on synthetic series."""

import io
import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qkerr import dynamics, harness
from qkerr.blocks import SystemParams
from qkerr.cli import main as cli_main
from qkerr.exceptions import ConvergenceError
from qkerr.harness import (
    CLASSIFY_REL_TOL,
    DIP_COLUMNS,
    MAX_SAMPLES,
    SERIES_COLUMNS,
    SWEEP_COLUMNS,
    EntropySeries,
    InitialState,
    RevivalDip,
    RevivalReport,
    SweepResult,
    _WRITE_ROWS,
    _parabolic_peak,
    detect_revivals,
    find_optimal_q,
    q_grid,
    run_evolve,
    run_sweep_q,
    time_grid,
)
from qkerr.qalgebra import bracket_radius

from conftest import traced_peak


HEADER = "t,gamma_t,S_field,S_atom,purity_field\n"
# Series CSVs evolve would not write, each with the reason read_csv gives.
MALFORMED_SERIES = (
    ("nope\n1,2\n", "expected header t,gamma_t,S_field,S_atom,purity_field, got nope"),
    ("", "empty file"),
    (HEADER + "1,2,3\n", "rows have 3 fields"),
    (
        HEADER + "1,2,3,4,5\n2,2,3,4,5,6\n",
        "the number of columns changed from 5 to 6 at row 2; use `usecols` to select a subset and avoid this error",
    ),
    # Uniform widths other than 5, which a bare numeric parser accepts.
    (HEADER + "1,2,3,4,5,6\n2,2,3,4,5,6\n", "rows have 6 fields"),
    (HEADER + "1,2,3\n2,2,3\n", "rows have 3 fields"),
    (HEADER + "1,2,x,4,5\n", "could not convert string 'x' to float64 at row 0, column 3."),
    (HEADER + "1,2,,4,5\n", "could not convert string '' to float64 at row 0, column 3."),
    # evolve never quotes a field or groups digits with underscores.
    (HEADER + '"1",2,3,4,5\n', "could not convert string '\"1\"' to float64 at row 0, column 1."),
    (HEADER + "1_0,2,3,4,5\n", "could not convert string '1_0' to float64 at row 0, column 1."),
    # A comment line is not data, and no line is skipped as one.
    (
        HEADER + "1,2,3,4,5\n# comment\n2,2,3,4,5\n",
        "the number of columns changed from 5 to 1 at row 2; use `usecols` to select a subset and avoid this error",
    ),
    (HEADER + "2,2,3,4,5\n1,2,3,4,5\n", "time column is not strictly increasing"),
    (HEADER + "1,2,3,4,5\n2,2,nan,4,5\n", "a field is not finite"),
    (HEADER + "1,2,3,4,5\n2,inf,3,4,5\n", "a field is not finite"),
)


class TestGrids:
    def test_time_grid_spacing(self):
        g = time_grid(0.0, 1.0, 5)
        np.testing.assert_allclose(g, [0.0, 0.25, 0.5, 0.75, 1.0])
        # a numpy integer counts as a count, as it does for fock_n
        assert np.array_equal(time_grid(0.0, 1.0, np.int64(5)), g)

    def test_time_grid_negative_start_ok(self):
        g = time_grid(-2.0, 2.0, 3)
        assert g[0] == -2.0

    def test_time_grid_rejects_degenerate(self):
        with pytest.raises(ValueError):
            time_grid(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            time_grid(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            time_grid(0.0, math.inf, 5)
        # the cap is checked before np.linspace allocates the grid
        with pytest.raises(ValueError, match="10000000"):
            time_grid(0.0, 1.0, MAX_SAMPLES + 1)
        for steps in (True, 5.0):
            with pytest.raises(ValueError, match="steps must be an integer"):
                time_grid(0.0, 1.0, steps)

    def test_q_grid_bounds(self):
        g = q_grid(0.5, 1.0, 6)
        assert g[0] == 0.5 and g[-1] == 1.0
        assert np.array_equal(q_grid(0.5, 1.0, np.int64(6)), g)
        for q_steps in (True, 6.0):
            with pytest.raises(ValueError, match="q_steps must be an integer"):
                q_grid(0.5, 1.0, q_steps)
        with pytest.raises(ValueError):
            q_grid(0.05, 1.0, 10)  # floor is exclusive
        with pytest.raises(ValueError):
            q_grid(0.5, 1.01, 10)
        with pytest.raises(ValueError):
            q_grid(0.9, 0.8, 10)
        with pytest.raises(ValueError, match="10000000"):
            q_grid(0.5, 1.0, MAX_SAMPLES + 1)

    def test_q_grid_single_point(self):
        np.testing.assert_allclose(q_grid(0.7, 0.7, 1), [0.7])
        with pytest.raises(ValueError):
            q_grid(0.6, 0.7, 1)


class TestInitialState:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            InitialState(kind="squeezed")

    @pytest.mark.parametrize(
        "recipe",
        [dict(kind="fock", fock_n=True), dict(kind="coherent", alpha_sq=math.nan), dict(kind="coherent", tail_tol=math.inf)],
    )
    def test_build_checks_the_recipe(self, recipe):
        # Construction checks only the kind; build hands each value to the
        # engine call that owns its rule (prepare_fock,
        # coherent_amplitudes).
        init = InitialState(**recipe)
        with pytest.raises(ValueError):
            init.build(0.9)

    def test_fock_build_ignores_q(self):
        init = InitialState(kind="fock", fock_n=4)
        a = init.build(1.0)
        b = init.build(0.6)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_coherent_build_depends_on_q(self):
        init = InitialState(kind="coherent", alpha_sq=0.5)
        a = init.build(1.0)
        b = init.build(0.9)
        assert a.n_max != b.n_max or not np.array_equal(a.amplitudes, b.amplitudes)


# Empty, repeated, decreasing, 2-d, NaN.
BAD_Q_GRIDS = [[], [0.6, 0.6, 0.7], [0.7, 0.6], [[0.5, 0.6], [0.7, 0.8]], [0.5, math.nan, 0.9]]


class TestSweep:
    @pytest.mark.parametrize("qs", BAD_Q_GRIDS)
    def test_rejects_grid_not_strictly_increasing(self, qs):
        init = InitialState(kind="fock", fock_n=2)
        with pytest.raises(ValueError, match="strictly increasing"):
            run_sweep_q(init, SystemParams(gamma=1.0), np.array(qs), 1.0)

    def test_sweep_matches_evolve(self):
        # Same (q, t) point through both code paths must agree to 1e-12.
        init = InitialState(kind="fock", fock_n=5)
        qs = np.array([0.8, 0.9, 1.0])
        t = 1.0
        gamma = -math.pi / 4.0
        sweep = run_sweep_q(init, SystemParams(omega=1.0, chi=0.0, gamma=gamma), qs, t)
        for q, s in zip(qs, sweep.s_field):
            params = SystemParams(omega=1.0, chi=0.0, gamma=gamma, q=float(q))
            series = run_evolve(init, params, np.array([0.0, t]))
            assert s == pytest.approx(series.s_field[1], abs=1e-12)

    def test_vacuum_sweep_is_zero(self):
        init = InitialState(kind="fock", fock_n=0)
        sweep = run_sweep_q(init, SystemParams(omega=1.0, chi=0.0, gamma=1.0), np.array([0.5, 1.0]), 1.0)
        np.testing.assert_allclose(sweep.s_field, 0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["fock", "coherent"])
    def test_params_q_is_replaced(self, kind):
        # The grid, not params.q, sets the deformation at every point.
        init = InitialState(kind=kind, fock_n=4, alpha_sq=0.5)
        qs = np.array([0.6, 0.8, 1.0])
        a = run_sweep_q(init, SystemParams(chi=0.01, gamma=-0.7, q=0.3), qs, 1.5)
        b = run_sweep_q(init, SystemParams(chi=0.01, gamma=-0.7, q=1.0), qs, 1.5)
        assert a.s_field.tobytes() == b.s_field.tobytes()
        assert a.q.tobytes() == qs.tobytes()
        grid = q_grid(0.5, 1.0, 10)
        c = find_optimal_q(init, SystemParams(chi=0.01, gamma=-0.7, q=0.3), grid, 1.5)
        d = find_optimal_q(init, SystemParams(chi=0.01, gamma=-0.7, q=1.0), grid, 1.5)
        assert (c.q_star, c.s_star) == (d.q_star, d.s_star)


@st.composite
def sweep_initials(draw, q_min, fock_n, past):
    """A Fock state with N <= fock_n, or a coherent state cut at a tail of
    1e-6 whose intensity runs from 0 to 0.7 of the radius 1/(1 - q^2) of
    q_min, the grid's lowest q, scaled to a radius of at most 3, or, when
    past, also from that radius to 1.3 times it.  Between 0.7 and 1 of the
    radius the cut falls hundreds of levels up, too large for a test."""
    if draw(st.booleans()):
        return InitialState(kind="fock", fock_n=draw(st.integers(0, fock_n)))
    fraction = draw(st.one_of(st.floats(0.0, 0.7), st.floats(1.0, 1.3)) if past else st.floats(0.0, 0.7))
    return InitialState(kind="coherent", alpha_sq=fraction * min(bracket_radius(q_min), 3.0), tail_tol=1e-6)


@st.composite
def sweep_cases(draw):
    """A Fock state with N <= 40 or a coherent state inside the radius
    (sweep_initials), random physics, a strictly increasing q grid, and a
    time t that may be 0 or negative."""
    qs = np.array(sorted(draw(st.sets(st.floats(0.06, 1.0), min_size=1, max_size=8))))
    params = SystemParams(
        omega=draw(st.floats(0.1, 5.0)), chi=draw(st.floats(0.0, 0.1)), gamma=draw(st.floats(-2.0, 2.0))
    )
    t = draw(st.one_of(st.just(0.0), st.floats(-20.0, 20.0)))
    return draw(sweep_initials(qs[0], 40, past=False)), params, qs, t


def signed_powers(lo, hi):
    """+-10**e for e uniform in [lo, hi]."""
    return st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(lo, hi)).map(lambda se: se[0] * 10.0 ** se[1])


@st.composite
def edge_sweep_cases(draw):
    """A Fock state with N <= 11 or a coherent state (sweep_initials),
    |gamma| up to 1e308, |t| up to 1e13, a strictly increasing q grid, and
    a chunk budget from one block of up to 12 levels to the default."""
    params = SystemParams(chi=draw(st.floats(0.0, 0.1)), gamma=draw(st.one_of(st.floats(-2.0, 2.0), signed_powers(-3.0, 308.0))))
    qs = np.array(sorted(draw(st.sets(st.floats(0.06, 1.0), min_size=1, max_size=30))))
    t = draw(st.one_of(st.just(0.0), signed_powers(-300.0, 13.0)))
    n = draw(st.integers(0, 11))
    chunk_bytes = draw(st.one_of(st.integers(1, 8).map(lambda k: k * 16 * (n + 1) ** 2), st.just(dynamics._SLICE_BYTES)))
    return draw(sweep_initials(qs[0], 11, past=True)), params, qs, t, chunk_bytes


class TestStackedSweep:
    """A sweep solves each block of the q of a chunk whose states occupy it
    in one stacked eigensolve, and gives each q the bits a one-sample
    evolve gives; a Fock sweep builds its state once."""

    @settings(max_examples=60, deadline=None)
    @given(sweep_cases())
    @example((InitialState(kind="fock", fock_n=5), SystemParams(chi=0.01, gamma=-0.7), np.array([0.5, 1.0]), 0.0))
    # vacuum states, each on block 0 alone, solved in one stack of 3
    @example((InitialState(kind="coherent", alpha_sq=0.0), SystemParams(gamma=-0.7), np.array([0.5, 0.7, 1.0]), 2.0))
    @example((InitialState(kind="coherent", alpha_sq=1.0), SystemParams(chi=0.01), q_grid(0.5, 1.0, 7), 3.0))
    def test_sweep_equals_evolve_bit_for_bit(self, case):
        init, params, qs, t = case
        sweep = run_sweep_q(init, params, qs, t)
        for q, s in zip(qs, sweep.s_field):
            series = run_evolve(init, replace(params, q=float(q)), np.array([t]))
            assert s.tobytes() == series.s_field[0].tobytes()

    def test_one_eigensolve_and_one_state_build(self, monkeypatch):
        eigh_shapes, builds = [], []
        eigh, build = np.linalg.eigh, InitialState.build

        def counted_eigh(a):
            eigh_shapes.append(a.shape)
            return eigh(a)

        def counted_build(self, q):
            builds.append(q)
            return build(self, q)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(InitialState, "build", counted_build)
        run_sweep_q(InitialState(kind="fock", fock_n=5), SystemParams(gamma=-0.7), q_grid(0.5, 1.0, 200), 1.0)
        assert eigh_shapes == [(200, 6, 6)]
        assert len(builds) == 1

    def test_one_block_build(self, monkeypatch):
        # through the name dynamics calls, the one the benchmark's tracer wraps
        shapes = []
        build_block = dynamics.build_block

        def counted(*args):
            block = build_block(*args)
            shapes.append(block.diag.shape)
            return block

        monkeypatch.setattr(dynamics, "build_block", counted)
        run_sweep_q(InitialState(kind="fock", fock_n=5), SystemParams(gamma=-0.7), q_grid(0.5, 1.0, 200), 1.0)
        assert shapes == [(200, 6)]

    def test_coherent_blocks_built_and_solved_once_per_chunk(self, monkeypatch):
        # At alpha_sq 1 the 200 q hold 81 levels at q 0.5 down to 13 at q 1,
        # 7,002 blocks in all, which one run_evolve per q built and solved
        # in 7,002 build_block and 7,002 eigh calls.  Chunks of 1 to 25 q
        # stack each block's q into one call of each: 5,087 of them.
        builds, solves = [], []
        build_block, eigh = dynamics.build_block, np.linalg.eigh

        def counted_build(*args):
            block = build_block(*args)
            builds.append(block.diag.shape)
            return block

        def counted_eigh(a):
            solves.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(dynamics, "build_block", counted_build)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        run_sweep_q(InitialState(kind="coherent", alpha_sq=1.0), SystemParams(), q_grid(0.5, 1.0, 200), 3.0)
        assert len(builds) == 5087
        assert [shape[:-1] for shape in solves] == builds
        assert sum(rows for rows, _ in builds) == 7002
        assert max(rows for rows, _ in builds) == 25

    @settings(max_examples=100, deadline=None)
    @given(edge_sweep_cases())
    # the phases of q 0.949749 and above keep no digits
    @example((InitialState(kind="fock", fock_n=5), SystemParams(), q_grid(0.5, 1.0, 200), 4.3e11, 3 * 16 * 6**2))
    # the phases of q 0.5 to 0.9 keep no digits, and the block of q 1 overflows
    @example(
        (InitialState(kind="fock", fock_n=10), SystemParams(gamma=3.3e307), np.array([0.06, 0.3, 0.5, 0.7, 0.9, 1.0]),
         1e-300, dynamics._SLICE_BYTES)
    )
    # q 0.85 and 0.875 lie inside an intensity of 5.2: their walks fail
    @example(
        (InitialState(kind="coherent", alpha_sq=5.2), SystemParams(), q_grid(0.85, 0.95, 5), 1.0, dynamics._SLICE_BYTES)
    )
    # every coherent block overflows, and one q runs per chunk
    @example((InitialState(kind="coherent", alpha_sq=1.0), SystemParams(gamma=6e307), q_grid(0.5, 1.0, 9), 1.0, 16))
    def test_sweep_fails_as_its_first_failing_q(self, case):
        # The sweep gives each q the bits of a one-point evolve, or fails
        # as the evolve of the first q that fails, in its walk or its solve.
        init, params, qs, t, chunk_bytes = case
        rows, failure = [], None
        for q in qs:
            try:
                rows.append(run_evolve(init, replace(params, q=float(q)), np.array([t])).s_field[0])
            except (ValueError, ConvergenceError) as exc:
                failure = exc
                break
        with mock.patch.object(dynamics, "_SLICE_BYTES", chunk_bytes):
            if failure is None:
                assert run_sweep_q(init, params, qs, t).s_field.tobytes() == np.array(rows).tobytes()
            else:
                with pytest.raises((ValueError, ConvergenceError)) as info:
                    run_sweep_q(init, params, qs, t)
                assert type(info.value) is type(failure)
                assert str(info.value) == str(failure)

    @pytest.mark.parametrize(
        ("gamma", "message"),
        (
            # q 0.5 and 0.6 solve, 0.7 fails its walk: nothing runs past it
            (1.0, "walk failed at q=0.7"),
            # every solve fails: the first q's, before any walk fails
            (1e308, "q=0.5: phase lambda*t overflows on block N=3 at |t| = 1 (inf rad of rounding)"),
        ),
    )
    def test_walks_and_solves_fail_in_q_order(self, gamma, message):
        state, walked = dynamics.prepare_fock(3), []

        def state_at(q):
            walked.append(q)
            if q >= 0.7:
                raise ValueError(f"walk failed at q={q:g}")
            return state

        qs = np.array([0.5, 0.6, 0.7, 0.8])
        with pytest.raises((ValueError, ConvergenceError)) as info:
            dynamics._q_sweep(state_at, SystemParams(gamma=gamma), qs, np.array([1.0]), 2.0)
        assert str(info.value) == message
        assert max(walked) <= 0.7

    def test_chunks_keep_the_bits(self, monkeypatch):
        init, params = InitialState(kind="fock", fock_n=5), SystemParams(chi=0.01, gamma=-0.7)
        qs = q_grid(0.5, 1.0, 200)
        whole = run_sweep_q(init, params, qs, 1.3).s_field
        eigh = np.linalg.eigh
        # (chunk budget, the most blocks a stack solves, the stacks solved)
        cases = (
            # 7 blocks of 6 x 6 a chunk, at 16 bytes an entry for the complex
            # copy of the eigenvectors: 200 q are halved, lower q first, into
            # 8 eighths of 25, each run as 6, 6, 6 and 7
            (7 * 16 * 6**2, 200, [6, 6, 6, 7] * 8),
            # one chunk of 200 whose stacks of more than 16 blocks fail: it is
            # halved, lower q first, into 8 eighths of 25, each solved as 12 and 13
            (dynamics._SLICE_BYTES, 16, [12, 13] * 8),
        )
        for chunk_bytes, most, solved in cases:
            calls = []

            def counted(a, most=most, calls=calls):
                if a.shape[0] > most:
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
                calls.append(a.shape[0])
                return eigh(a)

            monkeypatch.setattr(np.linalg, "eigh", counted)
            monkeypatch.setattr(dynamics, "_SLICE_BYTES", chunk_bytes)
            chunked = run_sweep_q(init, params, qs, 1.3).s_field
            assert calls == solved
            assert chunked.tobytes() == whole.tobytes()

    def test_memory_bounded_by_q_chunks(self):
        # Unchunked, the 1,000 blocks of N = 40 make a (1000, 41, 41)
        # complex eigenvector copy of 51 _SLICE_BYTES; the budget fits 19 q,
        # so halving cuts the grid to chunks of 15 and 16 q, and the peak to
        # 1.4 _SLICE_BYTES (0.71 MiB).
        # Chunks of the 8 MiB series budget took it to 12.7 MiB.
        init, params = InitialState(kind="fock", fock_n=40), SystemParams(chi=0.01, gamma=-0.7)
        qs = q_grid(0.5, 1.0, 1000)
        # numpy's once-per-process allocations, made before tracing
        run_sweep_q(init, params, qs[-1:], 1.0)
        s_field, peak = traced_peak(lambda: run_sweep_q(init, params, qs, 1.0).s_field)
        assert dynamics._SLICE_BYTES // (16 * 41**2) == 19
        assert peak < 2.5 * dynamics._SLICE_BYTES
        assert np.all((s_field >= 0.0) & (s_field <= math.log2(41) + 1e-12))

    @pytest.mark.parametrize(
        ("alpha_sq", "qs"),
        (
            # 81 levels at q 0.5; chunks of 1 to 25 q
            (1.0, q_grid(0.5, 1.0, 200)),
            # 121 levels at q 0.99: every q runs alone
            (30.0, q_grid(0.99, 1.0, 60)),
        ),
    )
    def test_coherent_memory_bounded_by_its_largest_q(self, alpha_sq, qs):
        # The peak is the lowest q's own, on its dim levels: its real
        # eigenvectors (half its _held), the complex cast of its largest
        # block, the two (dim, dim) tables of its one sample and its
        # state's table; five complex and two int64 arrays over its levels
        # (rates, V^T a(0), a(0), packed phases and amplitudes, which then
        # hold the conjugate table, the sites); 128 KiB for Python objects.
        # Measured 0.77 and 0.68 _held (2.22 and 6.47 MB).  Complex copies
        # of every block's V took this sweep to 1.27 and 1.18 _held (3.66
        # and 11.25 MB).  numpy's once-per-process allocations are made
        # before tracing.
        init = InitialState(kind="coherent", alpha_sq=alpha_sq)
        run_sweep_q(init, SystemParams(), qs[-1:], 3.0)
        _, peak = traced_peak(lambda: run_sweep_q(init, SystemParams(), qs, 3.0))
        state = init.build(qs[0])
        dim = state.n_max + 1
        levels = dim * (dim + 1) // 2
        assert peak < state._held // 2 + 5 * 16 * dim**2 + (5 * 16 + 2 * 8) * levels + 2**17

    def test_coherent_memory_does_not_grow_with_q(self):
        # 13 to 16 levels a q: the states built and not yet scored, and a
        # chunk's real eigenvectors, stay within _SLICE_BYTES, whatever the
        # grid (peaks of 0.55 and 0.71 MiB, with chunks of up to 25 and 32 q)
        init = InitialState(kind="coherent", alpha_sq=1.0)
        run_sweep_q(init, SystemParams(), np.array([1.0]), 3.0)
        for size in (200, 1000):
            _, peak = traced_peak(lambda: run_sweep_q(init, SystemParams(), q_grid(0.9, 1.0, size), 3.0))
            assert peak < 2 * dynamics._SLICE_BYTES


@st.composite
def concave_brackets(draw):
    """(a, c, q0, (qa, qb, qc)) for f(q) = c - a (q - q0)^2 with
    qa < qb < qc and q0 no further from qb than half a bracket step."""
    a = draw(st.floats(0.1, 10.0))
    c = draw(st.floats(-5.0, 5.0))
    qb = draw(st.floats(0.1, 1.0))
    qa = qb - draw(st.floats(1e-3, 0.5))
    qc = qb + draw(st.floats(1e-3, 0.5))
    q0 = draw(st.floats((qa + qb) / 2, (qb + qc) / 2))
    return a, c, q0, (qa, qb, qc)


class TestParabolicPeak:
    @settings(max_examples=300, deadline=None)
    @given(concave_brackets())
    @example((1.0, 2.0, 0.61, (0.5, 0.6, 0.7)))
    def test_exact_parabola(self, case):
        a, c, q0, qs = case
        f = lambda q: c - a * (q - q0) ** 2
        ss = tuple(f(q) for q in qs)
        # the caller's bracket: the middle value is not below the ends
        assume(ss[1] >= max(ss[0], ss[2]))
        q, s = _parabolic_peak(f, qs, ss)
        assert abs(q - q0) <= 1e-6
        assert s == f(q)
        assert s >= ss[1]

    def test_flat_top_keeps_bracket(self):
        f = lambda x: 1.0
        q, s = _parabolic_peak(f, (0.0, 0.5, 1.0), (1.0, 1.0, 1.0))
        assert 0.0 <= q <= 1.0
        assert s == 1.0

    def test_skewed_function(self):
        f = lambda x: math.sin(x)
        q, _ = _parabolic_peak(f, (1.0, 1.4, 2.0), (f(1.0), f(1.4), f(2.0)))
        assert q == pytest.approx(math.pi / 2.0, abs=1e-6)


@st.composite
def fock_optimal_q_cases(draw):
    init = InitialState(kind="fock", fock_n=draw(st.integers(0, 8)))
    gamma = draw(st.floats(0.1, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    params = SystemParams(chi=draw(st.floats(0.0, 0.1)), gamma=gamma)
    return init, params, draw(st.floats(0.1, 3.0)), q_grid(0.5, 1.0, draw(st.integers(3, 30)))


class TestFindOptimalQ:
    def test_interior_peak_refined(self):
        init = InitialState(kind="fock", fock_n=5)
        params = SystemParams(omega=1.0, chi=0.0, gamma=-math.pi / 4.0)
        result = find_optimal_q(init, params, q_grid(0.5, 1.0, 60), 1.0)
        assert 0.93 < result.q_star < 0.95
        assert result.s_star > result.scan.s_field.max() - 1e-12
        assert result.scan.q.shape == (60,)
        # On 11 points the coarse best, q = 0.95, is next to the last point
        # and is refined too.
        coarse = find_optimal_q(init, params, q_grid(0.5, 1.0, 11), 1.0)
        assert int(np.argmax(coarse.scan.s_field)) == 9
        assert coarse.q_star == pytest.approx(result.q_star, abs=1e-6)
        assert coarse.s_star > coarse.scan.s_field.max()

    def test_boundary_peak_returned_as_is(self):
        # N = 0: entropy identically zero, argmax lands on the first grid
        # point, which is the boundary.
        init = InitialState(kind="fock", fock_n=0)
        result = find_optimal_q(init, SystemParams(omega=1.0, chi=0.0, gamma=1.0), q_grid(0.5, 1.0, 10), 1.0)
        assert result.q_star == 0.5
        assert result.s_star == 0.0

    def test_refinement_builds_its_state_once(self, monkeypatch):
        # The scan builds the number state once, and the refinement once
        # more for all its steps: each step is one one-q stacked eigensolve.
        builds, steps, eigh_shapes = [], [], []
        build, entropy_at, eigh = InitialState.build, harness._entropy_at, np.linalg.eigh

        def counted_build(self, q):
            builds.append(q)
            return build(self, q)

        def counted_entropy_at(*args):
            steps.append(args)
            return entropy_at(*args)

        def counted_eigh(a):
            eigh_shapes.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(InitialState, "build", counted_build)
        monkeypatch.setattr(harness, "_entropy_at", counted_entropy_at)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        params = SystemParams(gamma=-math.pi / 4.0)
        find_optimal_q(InitialState(kind="fock", fock_n=5), params, q_grid(0.5, 1.0, 200), 1.0)
        assert len(steps) >= 2
        assert len(builds) <= 2
        assert eigh_shapes == [(200, 6, 6)] + [(1, 6, 6)] * len(steps)

    @settings(max_examples=100, deadline=None)
    @given(fock_optimal_q_cases())
    def test_refines_the_coarse_best(self, case):
        init, params, t, qs = case
        result = find_optimal_q(init, params, qs, t)
        scan = result.scan
        best = int(np.argmax(scan.s_field))
        assert result.s_star >= scan.s_field.max()
        # S* is the entropy at q*, bit for bit, as a sweep computes it
        again = run_sweep_q(init, params, np.array([result.q_star]), t)
        assert result.s_star == again.s_field[0]
        assert abs(result.q_star - qs[best]) <= qs[1] - qs[0]
        if best in (0, qs.size - 1):
            assert (result.q_star, result.s_star) == (qs[best], scan.s_field[best])

    @pytest.mark.parametrize("qs", BAD_Q_GRIDS)
    def test_rejects_grid_not_strictly_increasing(self, qs):
        init = InitialState(kind="fock", fock_n=2)
        with pytest.raises(ValueError, match="strictly increasing"):
            find_optimal_q(init, SystemParams(gamma=1.0), np.array(qs), 1.0)


def make_series(gt, s, gamma=1.0):
    gt = np.asarray(gt, dtype=float)
    s = np.asarray(s, dtype=float)
    return EntropySeries(
        t=gt / gamma,
        gamma_t=gt,
        s_field=s,
        s_atom=s.copy(),
        purity_field=np.full_like(s, 0.5),
    )


class TestDetectRevivals:
    CHI = 0.01  # 2*pi/chi = 628.32, pi/chi = 314.16

    def test_constant_series_empty(self):
        series = make_series(np.linspace(0, 700, 200), np.ones(200))
        report = detect_revivals(series, self.CHI, 0.2)
        assert report.dips == []

    def test_near_revival_classified(self):
        gt = np.linspace(600, 660, 601)
        s = 2.0 - 1.9 * np.exp(-((gt - 628.3) ** 2) / 8.0)
        report = detect_revivals(make_series(gt, s), self.CHI, 0.2)
        assert len(report.dips) == 1
        dip = report.dips[0]
        assert dip.classification == "near-revival"
        assert dip.gamma_t == pytest.approx(628.3, abs=0.2)

    def test_fractional_candidate_classified(self):
        gt = np.linspace(280, 350, 701)
        s = 2.0 - 1.9 * np.exp(-((gt - 314.2) ** 2) / 8.0)
        report = detect_revivals(make_series(gt, s), self.CHI, 0.2)
        assert [d.classification for d in report.dips] == ["fractional-revival-candidate"]

    def test_unscheduled_dip_reported_as_none(self):
        gt = np.linspace(420, 520, 1001)
        s = 2.0 - 1.9 * np.exp(-((gt - 471.0) ** 2) / 8.0)
        report = detect_revivals(make_series(gt, s), self.CHI, 0.2)
        assert [d.classification for d in report.dips] == ["none"]

    def test_window_filters(self):
        gt = np.linspace(0, 700, 7001)
        s = 2.0 - 1.9 * np.exp(-((gt - 628.3) ** 2) / 8.0)
        report = detect_revivals(make_series(gt, s), self.CHI, 0.2, window=(0.0, 500.0))
        assert report.dips == []

    def test_threshold_filters(self):
        gt = np.linspace(600, 660, 601)
        s = 2.0 - 0.5 * np.exp(-((gt - 628.3) ** 2) / 8.0)  # shallow dip, min 1.5
        report = detect_revivals(make_series(gt, s), self.CHI, 0.2)
        assert report.dips == []

    def test_parameter_validation(self):
        series = make_series([0.0, 1.0, 2.0], [1.0, 0.5, 1.0])
        with pytest.raises(ValueError):
            detect_revivals(series, 0.0, 0.2)
        with pytest.raises(ValueError):
            detect_revivals(series, 0.01, 0.0)
        with pytest.raises(ValueError):
            detect_revivals(series, 0.01, 1.0)


def loop_dips(series, chi, threshold, lo, hi):
    """The dips of detect_revivals, found by a walk over every sample (the
    algorithm the candidate mask replaced)."""
    s, gt = series.s_field, series.gamma_t
    cutoff = threshold * float(s.max())
    period, half = 2.0 * math.pi / chi, math.pi / chi
    dips = []
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
    return dips


@st.composite
def dip_cases(draw):
    """A series with ties and NaN samples, and a window whose edges may
    sit on samples."""
    steps = draw(st.lists(st.sampled_from([0.5, 1.0, 157.08]), min_size=1, max_size=40))
    gt = np.cumsum(steps) - steps[0] + draw(st.sampled_from([0.0, 300.0, 620.0]))
    levels = st.sampled_from([0.0, 0.05, 0.1, 0.5, 1.0, 2.0, math.nan])
    s = draw(st.lists(st.one_of(levels, st.floats(0.0, 2.0)), min_size=len(gt), max_size=len(gt)))
    edge = st.one_of(st.none(), st.sampled_from(gt.tolist()), st.floats(-10.0, 1000.0))
    window = draw(st.tuples(edge, edge))
    chi = draw(st.sampled_from([0.01, 0.02, 1.0, 1e308]))
    return make_series(gt, s), chi, draw(st.floats(0.01, 0.99)), window


@given(dip_cases())
@settings(max_examples=300, deadline=None)
def test_dip_mask_matches_loop(case):
    series, chi, threshold, window = case
    try:
        report = detect_revivals(series, chi, threshold, window=window)
    except ValueError:
        # an upper edge, given or defaulted, below the lower one
        return
    assert report.dips == loop_dips(series, chi, threshold, *report.window)


def reference_csv(header, columns):
    """A CSV table built row by row: numbers at 12 significant digits,
    labels as they are."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(x if isinstance(x, str) else format(float(x), ".12g") for x in row))
    return "\n".join(lines) + "\n"


class TestCsv:
    def test_series_roundtrip(self, tmp_path):
        init = InitialState(kind="fock", fock_n=3)
        params = SystemParams(chi=0.01, gamma=1.0, q=0.9)
        series = run_evolve(init, params, np.linspace(0.0, 5.0, 11))
        path = tmp_path / "series.csv"
        series.write_csv(str(path))
        back = EntropySeries.read_csv(str(path))
        # 12 significant digits survive the round trip at this magnitude.
        np.testing.assert_allclose(back.t, series.t, rtol=1e-11)
        np.testing.assert_allclose(back.s_field, series.s_field, rtol=1e-11, atol=1e-11)

    def test_byte_determinism(self, tmp_path):
        init = InitialState(kind="coherent", alpha_sq=0.5)
        params = SystemParams(chi=0.01, gamma=1.0, q=0.95)
        a = run_evolve(init, params, np.linspace(0.0, 3.0, 7))
        b = run_evolve(init, params, np.linspace(0.0, 3.0, 7))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_csv(str(p1))
        b.write_csv(str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_columns_match_their_grid(self):
        t = np.arange(3.0)
        with pytest.raises(ValueError, match=r"s_atom must match the time grid shape \(3,\)"):
            EntropySeries(t, t, t, t[:2], t)
        with pytest.raises(ValueError, match="S_field must match the q grid shape"):
            SweepResult(q=t, s_field=t[:2])

    def test_malformed_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        for text, _ in MALFORMED_SERIES:
            p.write_text(text)
            with pytest.raises(ValueError, match="malformed series CSV"):
                EntropySeries.read_csv(str(p))
        # Header only: rejected, with no warning on the way.
        p.write_text(HEADER)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no data rows"):
                EntropySeries.read_csv(str(p))

    @pytest.mark.parametrize(
        "text, message", MALFORMED_SERIES + ((HEADER, "no data rows"), (HEADER + "\n \n", "no data rows"))
    )
    def test_revivals_reports_malformed(self, tmp_path, capsys, text, message):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        assert cli_main(["revivals", str(p), "--chi", "0.01"]) == 2
        assert capsys.readouterr() == ("", f"error: malformed series CSV {p}: {message}\n")

    def test_read_streams_the_file(self, tmp_path, rng):
        # The default evolve grid's 28,001 rows parse to a 1.07 MiB table.
        # Streamed to loadtxt, with columns that view that one table, the
        # read peaks at 1.2 times its bytes; a copy of the table for the
        # columns took it to 2.0, and reading the body into one string
        # first to 8.2.
        rows = 28_001
        t = np.linspace(0.0, 1400.0, rows)
        path = tmp_path / "s.csv"
        s_field = 3.0 * rng.random(rows)
        EntropySeries(t, t, s_field, 3.0 * rng.random(rows), rng.random(rows)).write_csv(str(path))
        back, peak = traced_peak(lambda: EntropySeries.read_csv(str(path)))
        assert peak < 1.5 * rows * len(SERIES_COLUMNS) * 8
        np.testing.assert_allclose(back.t, t, rtol=1e-11, atol=0)
        np.testing.assert_allclose(back.s_field, s_field, rtol=1e-11, atol=0)

    def test_write_streams_the_table(self, tmp_path, rng):
        # The columns of a 28,001-row series are stacked one formatting
        # block at a time: the write peaks at 0.59 times the 1.07 MiB table,
        # where stacking the whole table first took it to 1.52.
        rows = 28_001
        t = np.linspace(0.0, 1400.0, rows)
        series = EntropySeries(t, t, 3.0 * rng.random(rows), 3.0 * rng.random(rows), rng.random(rows))
        path = tmp_path / "s.csv"
        _, peak = traced_peak(lambda: series.write_csv(str(path)))
        assert peak < 0.75 * rows * len(SERIES_COLUMNS) * 8
        assert path.read_text() == reference_csv(SERIES_COLUMNS, (t, t, series.s_field, series.s_atom, series.purity_field))

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "gaps.csv"
        p.write_text("t,gamma_t,S_field,S_atom,purity_field\n1,2,3,4,5\n\n2,2,3,4,5\n\n")
        series = EntropySeries.read_csv(str(p))
        np.testing.assert_array_equal(series.t, [1.0, 2.0])

    def test_writer_matches_row_by_row_reference(self, tmp_path):
        # 6 rows fit in one formatting block, 2 * _WRITE_ROWS fill two
        # exactly, and 5,000 end in a partial block.
        for rows in (6, 2 * _WRITE_ROWS, 5000):
            self._check_writer(tmp_path, rows)

    @staticmethod
    def _check_writer(tmp_path, rows):
        values = [-0.0, 1.0 / 3.0, 1e-300, 5e-324, 1e300, 123456789012345.0]
        cols = [np.resize(values[k:] + values[:k], rows) for k in range(5)]
        cols[0] = np.arange(rows) + 1.0 / 3.0  # read_csv wants increasing t
        series = EntropySeries(*cols)
        sweep = SweepResult(q=cols[1], s_field=cols[2])
        labels = (["near-revival", "fractional-revival-candidate", "none"] * rows)[:rows]
        dip_cols = (cols[1], cols[2], cols[3], labels)
        dips = RevivalReport(0.2, (0.0, 1.0), [RevivalDip(*row) for row in zip(*dip_cols)])
        no_dips = RevivalReport(0.2, (0.0, 1.0))
        for obj, header, columns in (
            (series, SERIES_COLUMNS, cols),
            (sweep, SWEEP_COLUMNS, cols[1:3]),
            (dips, DIP_COLUMNS, dip_cols),
            (no_dips, DIP_COLUMNS, ([], [], [], [])),
        ):
            expected = reference_csv(header, columns)
            path = tmp_path / "out.csv"
            obj.write_csv(str(path))
            assert path.read_bytes() == expected.encode()
            if isinstance(obj, RevivalReport):
                # revivals without --out writes the same table to stdout
                text = io.StringIO()
                obj.write(text)
                assert text.getvalue() == expected
        series.write_csv(str(path))
        back = EntropySeries.read_csv(str(path))
        for got, col in zip(
            (back.t, back.gamma_t, back.s_field, back.s_atom, back.purity_field), cols
        ):
            want = np.array([float(format(x, ".12g")) for x in col])
            assert got.tobytes() == want.tobytes()
