"""Names that code outside the package reaches for.

README.md lists the exports in the bullets under "`qkerr.__all__` lists
what the package exports"; the last test keeps that list equal to
qkerr.__all__.  The benchmark's oracle self-check calls qkerr.dense_reference_evolve on
qkerr.TwoModeState and qkerr.SystemParams (a test runs it), its worker records
qkerr.__version__, and its tracer (bench/spans.py) wraps the names listed
in BOUNDARIES.  The tracer skips a name that no longer resolves and
reports its metrics as absent, so a rename or a deletion would pass
unnoticed there; these tests fail on it instead.  A smoke test runs a few
small CLI calls under the tracer, so a changed return value that a
recorder reads fails here too.
"""

import importlib
import re
from pathlib import Path

import qkerr
from qkerr.cli import main

from conftest import load_bench

README = Path(__file__).resolve().parents[1] / "README.md"


def test_benchmark_oracle_names():
    for name in ("dense_reference_evolve", "TwoModeState", "SystemParams", "__version__"):
        assert hasattr(qkerr, name), name


def test_benchmark_oracle_self_check():
    # The benchmark's worker reports each problem in this list as a failed
    # self-check.  Its dense-reference part calls
    # qkerr.dense_reference_evolve(TwoModeState, SystemParams, t).amplitudes.
    assert load_bench("oracle").self_check() == []


def test_traced_boundaries_resolve():
    boundaries = load_bench("spans").BOUNDARIES
    assert boundaries
    for span, module, cls, attr, _, _ in boundaries:
        owner = importlib.import_module(module)
        if cls is None:
            assert getattr(owner, attr, None) is not None, f"{span}: {module}.{attr}"
        else:
            # the tracer patches the class's own attribute, not an inherited one
            assert attr in vars(getattr(owner, cls)), f"{span}: {module}.{cls}.{attr}"


def test_tracer_records_small_runs(tmp_path, capsys):
    # The recorders read the return values of the traced calls (say
    # BlockMatrix.dim), and a failing recorder raises out of main.
    tracer = load_bench("spans").Tracer()
    tracer.start_round()
    tracer.install()
    try:
        calls = [
            ["evolve", "--gamma", "1", "--q", "0.9", "--fock-n", "3", "--t-max", "5", "--steps", "11"],
            ["evolve", "--gamma", "1", "--q", "0.9", "--initial", "coherent", "--t-max", "5", "--steps", "11"],
            ["sweep-q", "--gamma", "1", "--q-steps", "5"],
            ["find-optimal-q", "--gamma=-0.7853981633974483", "--t", "1", "--fock-n", "5", "--q-steps", "20"],
        ]
        for i, argv in enumerate(calls):
            assert main(argv + ["--out", str(tmp_path / f"{i}.csv")]) == 0, argv
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(0.0)
    assert [name for name, metric in metrics.items() if metric.get("absent")] == []
    # the coarse scan is one stacked sweep; the traced _entropy_at sees the
    # 9 one-q steps of the refinement
    assert metrics["harness.find_optimal_q.entropy_evals"]["value"] == 9
    # one state per evolve and per sweep, and two for the search (its scan
    # and its refinement), however many steps the refinement takes
    assert metrics["harness.state_build.calls"]["value"] <= 5


def test_tracer_counts_block_rows(tmp_path):
    # A Fock state with N = 3 occupies block 3 alone: 4 rows, read by the
    # recorders as BlockMatrix.dim and len(diag) (a dim taken from the
    # length of the (diag, offdiag) pair would read 2).
    tracer = load_bench("spans").Tracer()
    tracer.start_round()
    tracer.install()
    try:
        argv = ["evolve", "--gamma", "1", "--q", "0.9", "--fock-n", "3", "--t-max", "5", "--steps", "11"]
        assert main(argv + ["--out", str(tmp_path / "f3.csv")]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(0.0)
    assert metrics["blocks.build_block.rows"]["value"] == 4
    assert metrics["eigen.eigh_tridiagonal.rows"]["value"] == 4


def test_all_names_import():
    for name in qkerr.__all__:
        assert hasattr(qkerr, name), name


def readme_export_names():
    """Backticked names in the bullets that follow the README's export
    sentence, up to the first line that is neither a bullet nor its
    continuation."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if "`qkerr.__all__` lists what the package exports" in line)
    bullets = []
    for line in lines[start + 1 :]:
        if not line.strip():
            if bullets:
                break
            continue
        if not (line.startswith("* ") or line.startswith("  ")):
            break
        bullets.append(line)
    return set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", " ".join(bullets)))


def test_readme_lists_all_exports():
    assert readme_export_names() == set(qkerr.__all__)
