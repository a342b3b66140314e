"""Driver-layer tests: grids, sweeps, CSV determinism, peak refinement,
and revival-dip classification on synthetic series."""

import io
import math
import warnings

import numpy as np
import pytest

from qkerr.blocks import SystemParams
from qkerr.harness import (
    DIP_COLUMNS,
    SERIES_COLUMNS,
    SWEEP_COLUMNS,
    EntropySeries,
    InitialState,
    RevivalDip,
    RevivalReport,
    SweepResult,
    _parabolic_peak,
    detect_revivals,
    find_optimal_q,
    q_grid,
    run_evolve,
    run_sweep_q,
    time_grid,
)


class TestGrids:
    def test_time_grid_spacing(self):
        g = time_grid(0.0, 1.0, 5)
        np.testing.assert_allclose(g, [0.0, 0.25, 0.5, 0.75, 1.0])

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

    def test_q_grid_bounds(self):
        g = q_grid(0.5, 1.0, 6)
        assert g[0] == 0.5 and g[-1] == 1.0
        with pytest.raises(ValueError):
            q_grid(0.05, 1.0, 10)  # floor is exclusive
        with pytest.raises(ValueError):
            q_grid(0.5, 1.01, 10)
        with pytest.raises(ValueError):
            q_grid(0.9, 0.8, 10)

    def test_q_grid_single_point(self):
        np.testing.assert_allclose(q_grid(0.7, 0.7, 1), [0.7])
        with pytest.raises(ValueError):
            q_grid(0.6, 0.7, 1)


class TestInitialState:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            InitialState(kind="squeezed")

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

    def test_default_grid(self):
        fock = InitialState(kind="fock")
        assert fock.default_t_max(2.0) == pytest.approx(350.0)
        assert fock.default_steps == 14_001
        coh = InitialState(kind="coherent")
        assert coh.default_t_max(-1.0) == pytest.approx(1400.0)
        assert coh.default_steps == 28_001
        with pytest.raises(ValueError):
            fock.default_t_max(0.0)


class TestSweep:
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
        c = find_optimal_q(init, SystemParams(chi=0.01, gamma=-0.7, q=0.3), 1.5, q_steps=10)
        d = find_optimal_q(init, SystemParams(chi=0.01, gamma=-0.7, q=1.0), 1.5, q_steps=10)
        assert (c.q_star, c.s_star) == (d.q_star, d.s_star)


class TestParabolicPeak:
    def test_exact_parabola(self):
        f = lambda x: -((x - 0.61) ** 2) + 2.0
        q, s = _parabolic_peak(f, 0.5, 0.6, 0.7, f(0.5), f(0.6), f(0.7), tol=1e-10)
        assert q == pytest.approx(0.61, abs=1e-8)
        assert s == pytest.approx(2.0, abs=1e-12)

    def test_flat_top_keeps_bracket(self):
        f = lambda x: 1.0
        q, s = _parabolic_peak(f, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0, tol=1e-6)
        assert 0.0 <= q <= 1.0
        assert s == 1.0

    def test_skewed_function(self):
        f = lambda x: math.sin(x)
        q, _ = _parabolic_peak(
            f, 1.0, 1.4, 2.0, f(1.0), f(1.4), f(2.0), tol=1e-9
        )
        assert q == pytest.approx(math.pi / 2.0, abs=1e-6)

    def test_bad_bracket_rejected(self):
        f = lambda x: x
        with pytest.raises(ValueError):
            _parabolic_peak(f, 0.0, 0.5, 1.0, 0.0, 0.5, 1.0)


class TestFindOptimalQ:
    def test_interior_peak_refined(self):
        init = InitialState(kind="fock", fock_n=5)
        result = find_optimal_q(init, SystemParams(omega=1.0, chi=0.0, gamma=-math.pi / 4.0), 1.0, q_steps=60)
        assert 0.93 < result.q_star < 0.95
        assert result.s_star > result.scan.s_field.max() - 1e-12
        assert result.scan.q.shape == (60,)

    def test_boundary_peak_returned_as_is(self):
        # N = 0: entropy identically zero, argmax lands on the first grid
        # point, which is the boundary.
        init = InitialState(kind="fock", fock_n=0)
        result = find_optimal_q(init, SystemParams(omega=1.0, chi=0.0, gamma=1.0), 1.0, q_steps=10)
        assert result.q_star == 0.5
        assert result.s_star == 0.0


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

    def test_header_and_format(self, tmp_path):
        series = make_series([0.0, 1.0, 2.0], [0.0, 1.0 / 3.0, 0.5])
        path = tmp_path / "s.csv"
        series.write_csv(str(path))
        lines = path.read_text().split("\n")
        assert lines[0] == "t,gamma_t,S_field,S_atom,purity_field"
        assert "0.333333333333" in lines[2]  # 12 significant digits

    def test_malformed_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        header = "t,gamma_t,S_field,S_atom,purity_field\n"
        for text in (
            "nope\n1,2\n",
            "",
            header + "1,2,3\n",
            header + "1,2,3,4,5\n2,2,3,4,5,6\n",
            # Uniform widths other than 5, which a bare numeric parser accepts.
            header + "1,2,3,4,5,6\n2,2,3,4,5,6\n",
            header + "1,2,3\n2,2,3\n",
            header + "1,2,x,4,5\n",
            header + "1,2,,4,5\n",
            # evolve never quotes a field or groups digits with underscores.
            header + '"1",2,3,4,5\n',
            header + "1_0,2,3,4,5\n",
            # A comment line is not data, and no line is skipped as one.
            header + "1,2,3,4,5\n# comment\n2,2,3,4,5\n",
            header + "2,2,3,4,5\n1,2,3,4,5\n",
        ):
            p.write_text(text)
            with pytest.raises(ValueError, match="malformed series CSV"):
                EntropySeries.read_csv(str(p))
        # Header only: rejected, with no warning on the way.
        p.write_text(header)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no data rows"):
                EntropySeries.read_csv(str(p))

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "gaps.csv"
        p.write_text("t,gamma_t,S_field,S_atom,purity_field\n1,2,3,4,5\n\n2,2,3,4,5\n\n")
        series = EntropySeries.read_csv(str(p))
        np.testing.assert_array_equal(series.t, [1.0, 2.0])

    def test_writer_matches_row_by_row_reference(self, tmp_path):
        values = [-0.0, 1.0 / 3.0, 1e-300, 5e-324, 1e300, 123456789012345.0]
        cols = [np.array(values[k:] + values[:k]) for k in range(5)]
        cols[0] = np.arange(len(values)) + 1.0 / 3.0  # read_csv wants increasing t
        series = EntropySeries(*cols)
        sweep = SweepResult(q=cols[1], s_field=cols[2])
        labels = ["near-revival", "fractional-revival-candidate", "none"] * 2
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

    def test_report_csv(self, tmp_path):
        gt = np.linspace(600, 660, 601)
        s = 2.0 - 1.9 * np.exp(-((gt - 628.3) ** 2) / 8.0)
        report = detect_revivals(make_series(gt, s), 0.01, 0.2)
        path = tmp_path / "dips.csv"
        report.write_csv(str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,gamma_t,S,classification"
        assert lines[1].endswith("near-revival")
        assert isinstance(report, RevivalReport)
