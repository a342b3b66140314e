"""End-to-end CLI tests: happy paths on small grids, exit-code contract."""

import math

import numpy as np
import pytest

from qkerr.cli import main
from qkerr.harness import EntropySeries


def run_cli(argv):
    """Invoke the entry point, normalizing argparse's SystemExit to a code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    return 0 if code is None else code


GAMMA_BS = str(-math.pi / 4.0)


class TestSweepQ:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            [
                "sweep-q",
                "--gamma", GAMMA_BS,
                "--t", "1",
                "--q-min", "0.9",
                "--q-max", "1.0",
                "--q-steps", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "q,S_field"
        assert len(lines) == 6
        # The q = 1 row is the non-deformed beam-splitter value.
        assert float(lines[-1].split(",")[1]) == pytest.approx(2.198, abs=1e-3)

    def test_q_floor_enforced(self, tmp_path):
        code = run_cli(
            ["sweep-q", "--gamma", "1", "--q-min", "0.04", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_missing_gamma(self, tmp_path):
        code = run_cli(["sweep-q", "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestEvolve:
    def test_happy_path(self, tmp_path):
        out = tmp_path / "series.csv"
        code = run_cli(
            [
                "evolve",
                "--gamma", "1",
                "--chi", "0.01",
                "--q", "0.9",
                "--t-max", "5",
                "--steps", "11",
                "--out", str(out),
            ]
        )
        assert code == 0
        series = EntropySeries.read_csv(str(out))
        assert series.t.shape == (11,)
        assert series.s_field[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(series.gamma_t, series.t)

    def test_default_steps_with_explicit_t_max(self, tmp_path):
        # gamma = 0 has no default span, but the sample count still defaults
        # by the initial kind.
        out = tmp_path / "series.csv"
        code = run_cli(["evolve", "--gamma", "0", "--q", "0.9", "--t-max", "5", "--out", str(out)])
        assert code == 0
        series = EntropySeries.read_csv(str(out))
        assert series.t.shape == (14_001,)
        assert series.t[-1] == 5.0
        np.testing.assert_allclose(series.s_field, 0.0, atol=1e-12)

    def test_t_min_flag(self, tmp_path):
        out = tmp_path / "series.csv"
        code = run_cli(
            [
                "evolve",
                "--gamma", "1",
                "--q", "1",
                "--t-min", "2",
                "--t-max", "4",
                "--steps", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        series = EntropySeries.read_csv(str(out))
        np.testing.assert_allclose(series.t, [2.0, 3.0, 4.0])

    def test_q_required_and_bounded(self, tmp_path):
        base = ["evolve", "--gamma", "1", "--t-max", "1", "--steps", "3",
                "--out", str(tmp_path / "x.csv")]
        assert run_cli(base) == 2  # --q missing
        assert run_cli(base + ["--q", "0.04"]) == 2
        assert run_cli(base + ["--q", "1.2"]) == 2

    def test_truncation_failure_exits_3(self, tmp_path):
        # |alpha|^2 = 5.2 is beyond the q = 0.9 convergence radius; state
        # preparation cannot converge.
        code = run_cli(
            [
                "evolve",
                "--gamma", "1",
                "--q", "0.9",
                "--initial", "coherent",
                "--alpha-sq", "5.2",
                "--t-max", "1",
                "--steps", "3",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 3

    def test_eigensolver_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        def failing(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        out = tmp_path / "x.csv"
        code = run_cli(
            ["evolve", "--gamma", "1", "--q", "0.9", "--t-max", "1", "--steps", "3", "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and "block N=5" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_degenerate_grid_exits_2(self, tmp_path):
        code = run_cli(
            [
                "evolve",
                "--gamma", "1",
                "--q", "1",
                "--t-min", "5",
                "--t-max", "5",
                "--steps", "3",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2


class TestFindOptimalQ:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = run_cli(
            [
                "find-optimal-q",
                "--gamma", GAMMA_BS,
                "--t", "1",
                "--q-steps", "40",
                "--out", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        q_star = float(captured.split("q_star = ")[1].split("\n")[0])
        s_star = float(captured.split("S_star = ")[1].split("\n")[0])
        assert q_star == pytest.approx(0.937, abs=0.005)
        assert s_star == pytest.approx(2.243, abs=0.01)
        assert out.read_text().startswith("q,S_field\n")


class TestRevivals:
    @pytest.fixture
    def fock_series(self, tmp_path):
        path = tmp_path / "f5.csv"
        code = run_cli(
            [
                "evolve",
                "--gamma", "1",
                "--chi", "0.01",
                "--q", "1",
                "--t-max", "660",
                "--steps", "13201",
                "--out", str(path),
            ]
        )
        assert code == 0
        return path

    def test_finds_near_revival(self, fock_series, tmp_path, capsys):
        out = tmp_path / "dips.csv"
        code = run_cli(
            [
                "revivals",
                str(fock_series),
                "--chi", "0.01",
                "--threshold", "0.2",
                "--window-lo", "565.5",
                "--window-hi", "660",
                "--out", str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "near-revival" in text

    def test_one_window_edge_defaults_the_other(self, fock_series, tmp_path):
        # A missing --window-hi is the series' largest gamma*t.
        gt_max = float(EntropySeries.read_csv(str(fock_series)).gamma_t.max())
        lo_only, both = tmp_path / "lo.csv", tmp_path / "both.csv"
        common = ["revivals", str(fock_series), "--chi", "0.01", "--threshold", "0.5"]
        assert run_cli(common + ["--window-lo", "300", "--out", str(lo_only)]) == 0
        assert run_cli(common + ["--window-lo", "300", "--window-hi", repr(gt_max), "--out", str(both)]) == 0
        assert lo_only.read_bytes() == both.read_bytes()
        rows = lo_only.read_text().splitlines()[1:]
        assert rows and all(float(row.split(",")[1]) >= 300.0 for row in rows)

    def test_stdout_when_no_out(self, fock_series, capsys):
        code = run_cli(["revivals", str(fock_series), "--chi", "0.01"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("t,gamma_t,S,classification")
        assert "dip(s) below" in captured.err

    def test_malformed_csv_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        header = "t,gamma_t,S_field,S_atom,purity_field\n"
        for text in (
            "not,a,series\n1,2,3\n",
            header,
            header + "1,2,3,4,5,6\n",
            header + "1,2,3,4,5\n1,2,3\n",
            header + "1,2,,4,5\n",
            header + "2,2,3,4,5\n1,2,3,4,5\n",
        ):
            bad.write_text(text)
            assert run_cli(["revivals", str(bad), "--chi", "0.01"]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli(["revivals", str(tmp_path / "absent.csv"), "--chi", "0.01"]) == 2

    def test_bad_threshold_exits_2(self, fock_series):
        assert run_cli(["revivals", str(fock_series), "--chi", "0.01", "--threshold", "1.5"]) == 2

    def test_infinite_chi_exits_2(self, fock_series, capsys):
        assert run_cli(["revivals", str(fock_series), "--chi", "inf"]) == 2
        assert "finite chi" in capsys.readouterr().err

    def test_huge_chi_labels_uncountable_dips_none(self, fock_series, tmp_path):
        # pi/chi is ~3e-308, so gamma*t in half-periods overflows past
        # gamma*t ~ 5.6; those dips have no revival clock to be read against.
        out = tmp_path / "dips.csv"
        assert run_cli(["revivals", str(fock_series), "--chi", "1e308", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        far = [label for _, gamma_t, _, label in rows if float(gamma_t) / (math.pi / 1e308) == math.inf]
        assert far and set(far) == {"none"}


class TestParser:
    def test_unknown_command(self):
        assert run_cli(["frobnicate"]) == 2

    def test_no_command(self):
        assert run_cli([]) == 2

    def test_log_base_choices(self, tmp_path):
        ok = run_cli(
            [
                "evolve",
                "--gamma", "1",
                "--q", "1",
                "--log-base", "e",
                "--t-max", "1",
                "--steps", "3",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert ok == 0
        bad = run_cli(
            [
                "evolve",
                "--gamma", "1",
                "--q", "1",
                "--log-base", "10",
                "--t-max", "1",
                "--steps", "3",
                "--out", str(tmp_path / "y.csv"),
            ]
        )
        assert bad == 2
