"""Names that code outside the package reaches for.

The benchmark's oracle self-check calls qkerr.dense_reference_evolve on
qkerr.TwoModeState and qkerr.SystemParams, its worker records
qkerr.__version__, and its tracer (bench/spans.py) wraps the names listed
in BOUNDARIES.  The tracer skips a name that no longer resolves and
reports its metrics as absent, so a rename or a deletion would pass
unnoticed there; these tests fail on it instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import qkerr

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans(monkeypatch):
    # read only: no bytecode cache is written next to the benchmark
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_oracle_names():
    for name in ("dense_reference_evolve", "TwoModeState", "SystemParams", "__version__"):
        assert hasattr(qkerr, name), name


def test_traced_boundaries_resolve(monkeypatch):
    boundaries = load_spans(monkeypatch).BOUNDARIES
    assert boundaries
    for span, module, cls, attr, _, _ in boundaries:
        owner = importlib.import_module(module)
        if cls is None:
            assert getattr(owner, attr, None) is not None, f"{span}: {module}.{attr}"
        else:
            # the tracer patches the class's own attribute, not an inherited one
            assert attr in vars(getattr(owner, cls)), f"{span}: {module}.{cls}.{attr}"


def test_all_names_import():
    for name in qkerr.__all__:
        assert hasattr(qkerr, name), name
