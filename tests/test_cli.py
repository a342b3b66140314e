"""End-to-end CLI tests: happy paths on small grids, exit-code contract."""

import contextlib
import errno
import io
import math
import os
import runpy
import signal
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkerr import cli, harness
from qkerr.cli import build_parser
from qkerr.harness import EntropySeries

from conftest import run_cli


GAMMA_BS = str(-math.pi / 4.0)


def fail_after_header(monkeypatch):
    """Make every CSV table write fail, as a full disk would, once its
    header line is written."""
    save = harness._save_table

    def failing(fh, columns, values, fmt):
        save(fh, columns, tuple(v[:0] for v in values), fmt)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(harness, "_save_table", failing)


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
        code = run_cli(
            ["sweep-q", "--gamma", "1", "--q-max", "1.2", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_missing_gamma(self, tmp_path):
        code = run_cli(["sweep-q", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_truncation_failure_names_q_once(self, tmp_path, capsys):
        # The first grid point, q = 0.9, hits the truncation cap (see
        # TestEvolve.test_truncation_failure_exits_3); its error already
        # names q, and the sweep passes it on unchanged.
        out = tmp_path / "x.csv"
        code = run_cli(
            [
                "sweep-q",
                "--gamma", "1",
                "--initial", "coherent",
                "--alpha-sq", "5.2",
                "--q-min", "0.9",
                "--q-max", "1",
                "--q-steps", "3",
                "--out", str(out),
            ]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("q=0.9") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, fail_eigvalsh, exit_code",
        [
            (["--gamma", "1e-300", "--t", "1e300"], False, 3),  # the phases keep no digits
            (["--gamma", "6e307"], False, 2),  # the block overflows
            (["--gamma", "1"], True, 3),  # the field density matrix's eigensolve fails
        ],
        ids=["phase", "overflow", "eigvalsh"],
    )
    def test_coherent_failure_names_q_once(self, tmp_path, monkeypatch, capsys, flags, fail_eigvalsh, exit_code):
        if fail_eigvalsh:
            def failing(matrix):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")

            monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        out = tmp_path / "x.csv"
        code = run_cli(["sweep-q", "--initial", "coherent", "--q-steps", "5", "--out", str(out)] + flags)
        err = capsys.readouterr().err
        assert code == exit_code
        assert err.startswith("error: q=0.5: ") and err.count("\n") == 1
        assert err.count("q=") == 1
        assert not out.exists()


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

    def test_negative_exponent_in_equals_form(self, tmp_path):
        # argparse takes "-1e-3" after a space for an option (its
        # negative-number pattern has no exponent); README gives this form.
        out = tmp_path / "series.csv"
        code = run_cli(["evolve", "--gamma=-1e-3", "--q", "1", "--t-max", "1", "--steps", "3", "--out", str(out)])
        assert code == 0
        series = EntropySeries.read_csv(str(out))
        np.testing.assert_allclose(series.gamma_t, -1e-3 * series.t)

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

    @pytest.mark.parametrize(
        "flags, gamma, t_max, rows",
        [
            # gamma*t spans 700 on Fock states and 1400 on coherent ones
            (["--fock-n", "1"], "2", 350.0, 14_001),
            (["--initial", "coherent", "--alpha-sq", "0.01"], "-1", 1400.0, 28_001),
        ],
        ids=["fock", "coherent"],
    )
    def test_default_grid(self, tmp_path, flags, gamma, t_max, rows):
        out = tmp_path / "series.csv"
        assert run_cli(["evolve", f"--gamma={gamma}", "--q", "1", "--out", str(out)] + flags) == 0
        series = EntropySeries.read_csv(str(out))
        assert series.t.shape == (rows,)
        assert (series.t[0], series.t[-1]) == (0.0, t_max)

    def test_gamma_zero_without_t_max_exits_2(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        assert run_cli(["evolve", "--gamma", "0", "--q", "0.9", "--steps", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: cannot infer a default time grid with gamma = 0; pass --t-max\n"
        assert not out.exists()

    def test_product_state_row_at_t0_is_exact(self, tmp_path):
        # U(0) = 1 exactly: V V^T used to leave 6.4e-16 of entropy here
        out = tmp_path / "series.csv"
        argv = ["evolve", "--gamma", "1", "--chi", "0.01", "--q", "1", "--fock-n", "5", "--t-max", "1", "--steps", "3"]
        assert run_cli(argv + ["--out", str(out)]) == 0
        assert out.read_text().split("\n")[1] == "0,0,0,0,1"

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

    @pytest.mark.parametrize(
        "flags",
        [["--initial", "coherent", "--tail-tol", tol] for tol in ("0", "1", "2", "inf", "nan")]
        + [["--fock-n", "-1"], ["--fock-n", "513"], ["--initial", "coherent", "--alpha-sq", "-1"]],
    )
    def test_bad_initial_state_exits_2(self, tmp_path, capsys, flags):
        out = tmp_path / "x.csv"
        code = run_cli(["evolve", "--gamma", "1", "--q", "0.9", "--t-max", "1", "--steps", "3",
                        "--out", str(out)] + flags)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, prefix, message",
        [
            (["evolve", "--gamma", "1", "--q", "1", "--steps", "5", "--t-max", "1e308"], "q=1: ", "|t| = 1e+308 (inf"),
            (["sweep-q", "--gamma", "1", "--t", "1e308", "--q-steps", "5"], "q=0.5: ", "|t| = 1e+308 (inf"),
            (["find-optimal-q", "--gamma", "1", "--t", "1e308", "--q-steps", "5"], "q=0.5: ", "|t| = 1e+308 (inf"),
            # gamma t stays finite, but the phases lambda * t (t = 7e302)
            # keep none of their digits
            (["evolve", "--gamma", "1e-300", "--q", "1", "--steps", "5"], "q=1: ", "|t| = 7e+302 (9.3e+287"),
            # the first q of the sweep fails
            (["sweep-q", "--gamma", "1e300", "--t", "1", "--fock-n", "5", "--q-steps", "5"], "q=0.5: ", "|t| = 1 (8.1e+284"),
            # the block of q 1 overflows, but the phases of q 0.5 fail first
            (["sweep-q", "--gamma", "6e307", "--t", "1", "--fock-n", "5", "--q-steps", "5"], "q=0.5: ", "|t| = 1 (inf"),
            (["sweep-q", "--gamma", "6e307", "--t", "0", "--fock-n", "5", "--q-steps", "5"], "q=0.5: ", "|t| = 0 (nan"),
        ],
        ids=[f"argv{i}" for i in range(7)],
    )
    def test_phase_overflow_exits_3(self, tmp_path, capsys, argv, prefix, message):
        # lambda * t overflows: NaN phases used to be written as S = 0, and
        # phases without digits as S = 0 on every row.
        out = tmp_path / "x.csv"
        code = run_cli(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert err == f"error: {prefix}phase lambda*t overflows on block N=5 at {message} rad of rounding)\n"
        assert not out.exists()

    def test_overflowed_block_of_a_sweep_exits_2(self, tmp_path, capsys):
        # gamma 1e308 overflows the couplings of every q's block
        out = tmp_path / "x.csv"
        assert run_cli(["sweep-q", "--gamma", "1e308", "--t", "1", "--q-steps", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: q=0.5: tridiagonal entries must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--gamma", "1", "--q", "1", "--steps", "3", "--t-min=-1.7e308", "--t-max", "1.7e308"],
            ["evolve", "--gamma", "1e308", "--q", "1", "--steps", "3", "--t-max", "1"],
            ["sweep-q", "--gamma", "1", "--omega", "1e308", "--q-steps", "3"],
            ["find-optimal-q", "--gamma", "1", "--chi", "1e308", "--q-steps", "3"],
            ["evolve", "--gamma", "1", "--q", "1", "--t-max", "1", "--steps", "1000000000000"],
            ["sweep-q", "--gamma", "1", "--q-steps", "1000000000000"],
            # past the sample cap, though the grid itself would fit in memory
            ["evolve", "--gamma", "1", "--q", "1", "--t-max", "1", "--steps", "100000000"],
            # the phases lambda * t stay finite, gamma * t does not
            ["evolve", "--gamma", "1.9", "--omega", "0.1", "--fock-n", "0", "--q", "1", "--steps", "3",
             "--t-max", "1e308"],
        ],
    )
    def test_overflowing_or_oversized_input_exits_2(self, tmp_path, capsys, argv):
        # Rejected before numpy warns of an overflow or fails to allocate.
        out = tmp_path / "x.csv"
        code = run_cli(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_truncation_failure_exits_3(self, tmp_path):
        # |alpha|^2 = 5.2 is inside the q = 0.9 convergence radius (5.263)
        # but so close to it that the tail weight does not fall below
        # tail_tol up to COHERENT_N_CAP: TruncationError, exit 3.
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

    def test_coherent_outside_radius_exits_2(self, tmp_path, capsys):
        # |alpha|^2 = 9 is beyond the q = 0.9 convergence radius: bad input.
        out = tmp_path / "x.csv"
        code = run_cli(
            [
                "evolve",
                "--gamma", "1",
                "--q", "0.9",
                "--initial", "coherent",
                "--alpha-sq", "9",
                "--t-max", "1",
                "--steps", "3",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert "[0, 5.26316)" in capsys.readouterr().err
        assert not out.exists()

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

    def test_field_eigensolver_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        # a coherent state reduces its field density matrices through eigvalsh
        def failing(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        out = tmp_path / "x.csv"
        argv = ["evolve", "--gamma", "1", "--q", "0.9", "--initial", "coherent", "--t-max", "1", "--steps", "3"]
        code = run_cli(argv + ["--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        message = "eigensolve failed on the field density matrix (dim 13): Eigenvalues did not converge"
        assert err == f"error: q=0.9: {message}\n"
        assert not out.exists()

    def test_killed_scorer_exits_2(self, tmp_path, monkeypatch, capsys):
        # 400 coherent samples on 11 levels make two parts, the second
        # scored in a forked child: one that dies before its reply fails
        # the call, and is reaped
        parent = os.getpid()
        eigvalsh = np.linalg.eigvalsh

        def dying(matrix):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return eigvalsh(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", dying)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        out = tmp_path / "x.csv"
        argv = ["evolve", "--gamma", "1", "--chi", "0.01", "--q", "0.99", "--initial", "coherent", "--steps", "400"]
        code = run_cli(argv + ["--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: the process scoring samples 200 to 399 was killed by signal 9 (Killed) before sending them\n"
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_out_of_memory_exits_2(self, tmp_path, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError("Unable to allocate 1.00 PiB")

        monkeypatch.setitem(cli._HANDLERS, "evolve", exhausted)
        code = run_cli(["evolve", "--gamma", "1", "--q", "0.9", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 1.00 PiB\n"

    def test_stacked_eigensolver_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        # a Fock sweep solves the blocks of all its q in one call, and halves
        # a failing stack until its first q fails alone
        def failing(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        out = tmp_path / "x.csv"
        code = run_cli(["sweep-q", "--gamma", "1", "--q-steps", "200", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "error: q=0.5: eigensolve failed on block N=5: Eigenvalues did not converge\n"
        assert not out.exists()

    def test_failed_write_keeps_old_output(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "x.csv"
        out.write_bytes(b"t,gamma_t,S_field,S_atom,purity_field\n0,0,0,0,1\n")
        fail_after_header(monkeypatch)
        code = run_cli(["evolve", "--gamma", "1", "--q", "0.9", "--t-max", "1", "--steps", "3", "--out", str(out)])
        assert code == 2
        assert "No space left on device" in capsys.readouterr().err
        assert out.read_bytes() == b"t,gamma_t,S_field,S_atom,purity_field\n0,0,0,0,1\n"
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unwritable_out_exits_2_naming_it(self, tmp_path, capsys, target):
        # a missing directory, and a directory in place of the file
        out = tmp_path / target
        code = run_cli(["evolve", "--gamma", "1", "--q", "0.9", "--t-max", "1", "--steps", "3", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.rstrip().endswith(f": {str(out)!r}")
        assert list(tmp_path.iterdir()) == []

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

    def test_failed_write_keeps_old_output(self, fock_series, tmp_path, monkeypatch):
        out = tmp_path / "dips.csv"
        out.write_bytes(b"old dips\n")
        fail_after_header(monkeypatch)
        assert run_cli(["revivals", str(fock_series), "--chi", "0.01", "--out", str(out)]) == 2
        assert out.read_bytes() == b"old dips\n"
        assert sorted(tmp_path.iterdir()) == sorted([out, fock_series])

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
            header + "1,2,3,4,5\n2,2,nan,4,5\n",
            header + "1,2,3,4,5\n2,inf,3,4,5\n",
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

    def test_same_outputs_edge_calls_parse(self, tmp_path):
        # the output-identity tool's own calls, so its list cannot go stale;
        # run_path compiles the script without writing bytecode
        tool = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"))
        calls = [argv for group in tool["EDGE_CALLS"] for argv in group]
        assert calls
        parser = build_parser()
        for argv in calls:
            parser.parse_args([arg.replace(tool["OUT"], str(tmp_path)) for arg in argv])

    def test_parser_built_once(self, tmp_path, monkeypatch, capsys):
        # main builds its parser on its first call and reuses it after an
        # argparse error (exit 2); the outputs of a repeated call stay the same.
        builds = []

        def counted():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            argv = ["sweep-q", "--gamma", GAMMA_BS, "--q-steps", "5", "--out", str(tmp_path / "s.csv")]
            runs = []
            for args in (argv, ["sweep-q", "--gamma", "x", "--out", "y.csv"], argv):
                code = run_cli(args)
                runs.append((code, capsys.readouterr(), (tmp_path / "s.csv").read_bytes()))
        finally:
            cli._parser.cache_clear()
        assert builds == [1]
        assert [code for code, _, _ in runs] == [0, 2, 0]
        assert runs[1][1].err.endswith("argument --gamma: invalid float value: 'x'\n")
        assert runs[0][1:] == runs[2][1:]

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
        # an explicit --log-base 2 is the default run, byte for byte
        argv = ["evolve", "--gamma", "1", "--q", "0.9", "--t-max", "1", "--steps", "3", "--out"]
        assert run_cli(argv + [str(tmp_path / "default.csv")]) == 0
        assert run_cli(argv + [str(tmp_path / "base2.csv"), "--log-base", "2"]) == 0
        assert (tmp_path / "base2.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()
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


# Values at the edges of the float range, drawn for every float flag
# alongside ordinary ones.
EXTREMES = (math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-320, 0.0, -1.0)
# A valid series with two dips, for revivals.
SERIES_TEXT = "t,gamma_t,S_field,S_atom,purity_field\n" + "".join(
    f"{t},{t},{s},{s},0.5\n" for t, s in enumerate((1.0, 0.1, 0.9, 1.2, 0.05, 0.8, 1.0))
)


# Spellings of a flag value that float() or int() may or may not accept,
# beyond what st.text draws by chance: exponents, padding, signs,
# underscores, non-ASCII digits, hex, fractions and blanks.
ODD_NUMERALS = ("1e-3", "-1e-3", " 0.5", "0.5 ", "+1", "-0", "1_0", "\u0660.\u0665", "\u0663", "0x1", "1/2", "",
                " ", "Infinity", "-nan", "1e999", "3.0")


def _not_numeral(text):
    # int() accepts no spelling float() rejects, so this bounds every
    # drawn count: a long digit string could ask for a huge grid
    try:
        float(text)
    except ValueError:
        return True
    return False


STRINGS = st.one_of(st.sampled_from(ODD_NUMERALS), st.text(max_size=8).filter(_not_numeral))


def flag(name, values, strings=False):
    """--name=value with value drawn from the strategy values, or with
    strings also a string from STRINGS."""
    value = values.map(repr)
    if strings:
        value = st.one_of(value, STRINGS)
    return value.map(lambda v: [f"--{name}={v}"])


def float_flag(name, lo, hi, strings=False):
    """A flag whose value is extreme or in [lo, hi]."""
    return flag(name, st.one_of(st.sampled_from(EXTREMES), st.floats(min_value=lo, max_value=hi)), strings)


def optional(argv):
    return st.one_of(st.just([]), argv)


@st.composite
def physics_flags(draw, strings):
    """Shared and initial-state flags, on tiny truncations."""
    argv = draw(float_flag("gamma", -2.0, 2.0, strings))
    argv += draw(optional(float_flag("omega", 0.1, 3.0, strings)))
    argv += draw(optional(float_flag("chi", 0.0, 0.1, strings)))
    if draw(st.booleans()):
        argv += ["--initial", "coherent"] + draw(optional(float_flag("alpha-sq", 0.0, 0.5, strings)))
        argv += draw(optional(float_flag("tail-tol", 1e-12, 1e-3, strings)))
    else:
        argv += draw(optional(flag("fock-n", st.sampled_from([-1, 0, 1, 5, 513]), strings)))
    return argv


@st.composite
def cli_calls(draw, strings=False):
    """(argv without --out, whether --out is given) for one subcommand;
    with strings, any numeric flag may also be an arbitrary string."""
    command = draw(st.sampled_from(["evolve", "sweep-q", "find-optimal-q", "revivals"]))
    if command == "revivals":
        argv = ["revivals", "SERIES"] + draw(float_flag("chi", 0.001, 1.0, strings))
        for name, lo, hi in (("threshold", 0.0, 1.0), ("window-lo", -10.0, 10.0), ("window-hi", -10.0, 10.0)):
            argv += draw(optional(float_flag(name, lo, hi, strings)))
        return argv, draw(st.booleans())
    argv = [command] + draw(physics_flags(strings))
    if command == "evolve":
        argv += draw(float_flag("q", 0.06, 1.0, strings)) + draw(float_flag("t-min", -5.0, 5.0, strings))
        argv += draw(float_flag("t-max", -5.0, 5.0, strings)) + draw(flag("steps", st.integers(-1, 3), strings))
    else:
        argv += draw(optional(float_flag("t", -5.0, 5.0, strings)))
        argv += draw(optional(float_flag("q-min", 0.06, 1.0, strings)))
        argv += draw(optional(float_flag("q-max", 0.06, 1.0, strings)))
        argv += draw(flag("q-steps", st.integers(-1, 3), strings))
    return argv, True


SERIES_HEADER = SERIES_TEXT.splitlines(keepends=True)[0].encode()


def run_cleanly(argv, with_out, series_bytes):
    """Run argv, with SERIES replaced by a file holding series_bytes, and
    check the exit contract: exit 0, 2 or 3, never a traceback or a numpy
    warning (warnings are errors here), and no output file from a failed
    run."""
    with tempfile.TemporaryDirectory() as tmp:
        series, out = Path(tmp) / "series.csv", Path(tmp) / "out.csv"
        series.write_bytes(series_bytes)
        argv = [str(series) if arg == "SERIES" else arg for arg in argv]
        if with_out:
            argv += ["--out", str(out)]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = run_cli(argv)
        assert code in (0, 2, 3), argv
        assert "Traceback" not in stderr.getvalue()
        if code != 0:
            # no output file, finished or temporary
            assert [p.name for p in Path(tmp).iterdir()] == ["series.csv"], argv


class TestExitContract:
    @given(cli_calls())
    @settings(max_examples=150, deadline=None)
    def test_any_float_input_exits_cleanly(self, call):
        argv, with_out = call
        run_cleanly(argv, with_out, SERIES_TEXT.encode())

    @given(cli_calls(strings=True))
    @settings(max_examples=150, deadline=None)
    def test_any_string_input_exits_cleanly(self, call):
        argv, with_out = call
        run_cleanly(argv, with_out, SERIES_TEXT.encode())

    @given(
        series=st.one_of(
            st.sampled_from([b"", SERIES_HEADER, SERIES_HEADER + b"\n", SERIES_HEADER.rstrip(b"\n")]),
            st.binary(max_size=64),
            st.text(max_size=64).map(lambda text: text.encode("utf-8", "surrogatepass")),
            st.text(max_size=64).map(lambda text: SERIES_HEADER + text.encode("utf-8", "surrogatepass")),
        ),
        with_out=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_malformed_series_exits_cleanly(self, series, with_out):
        # empty, header-only and random files for revivals
        run_cleanly(["revivals", "SERIES", "--chi=0.01"], with_out, series)
