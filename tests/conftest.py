import importlib.util
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qkerr.cli import main
from qkerr.dynamics import TwoModeState, _propagate

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name: str):
    """Import bench/<name>.py by its path, read only: no bytecode cache is
    written next to the benchmark, and bench/ need not be on sys.path."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up in sys.modules
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def run_cli(argv):
    """Invoke the entry point, normalizing argparse's SystemExit to a code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    return 0 if code is None else code


def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc traced while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="session", autouse=True)
def no_child_left():
    """Fail the last test's teardown if the test process still has a
    child, running or unreaped: a series must reap the child it forks."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child of the test process outlived its test (waitpid gave pid {pid}, status {status})")


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


def random_triangle_state(rng: np.random.Generator, n_max: int) -> TwoModeState:
    """Random normalized two-mode state supported on n + m <= n_max."""
    dim = n_max + 1
    table = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    n_idx, m_idx = np.indices((dim, dim))
    table[n_idx + m_idx > n_max] = 0.0
    table /= np.linalg.norm(table)
    return TwoModeState(n_max=n_max, amplitudes=table)


def propagated_tables(state: TwoModeState, cache, times) -> np.ndarray:
    """The engine's amplitude tables psi[n, m] at each time, shape
    (len(times), dim, dim): dynamics._propagate's packed blocks, ascending
    N with m ascending within a block, unpacked onto the triangle."""
    packed = _propagate(state, cache, np.asarray(times, dtype=float))
    dim = state.n_max + 1
    psi = np.zeros((len(packed), dim, dim), dtype=complex)
    col = 0
    for n_total in state.occupied_blocks():
        ms = np.arange(n_total + 1)
        psi[:, n_total - ms, ms] = packed[:, col : col + n_total + 1]
        col += n_total + 1
    assert col == packed.shape[1]
    return psi
