"""Check that two source trees of qkerr give the same command-line outputs.

usage: python tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the qkerr package, such as the src/
of a checkout.  The calls are the benchmark's own (bench/workloads.py) and
EDGE_CALLS below.  Each call runs in a fresh `python -m qkerr` for each
side, with PYTHONPATH set to that side's tree, one OpenBLAS thread, no
bytecode written and a temporary directory of the side's own.  Exit codes,
stdout and stderr are compared with the temporary directory replaced by
{out}, and so are the bytes of every file a call writes.  Each call that
differs is printed, and the exit status is 1 if any does, else 0.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
OUT = "{out}"
GAMMA_BS = "--gamma=-0.7853981633974483"

# Calls at the engine's edges that the benchmark does not make, in groups
# that share one directory (a revivals call reads the CSV written before
# it).  A comment gives the exit code of a call that does not exit 0.
EDGE_CALLS = (
    # the last of the 2,048-sample chunks holds one sample
    (("evolve", "--gamma", "1", "--chi", "0.01", "--q", "0.7", "--fock-n", "40", "--steps", "2049",
      "--out", f"{OUT}/fock40-2049.csv"),),
    (("evolve", "--gamma", "1", "--chi", "0.01", "--q", "0.99", "--initial", "coherent", "--steps", "2049",
      "--out", f"{OUT}/coherent-2049.csv"),),
    (("evolve", "--gamma", "1", "--chi", "0.01", "--q", "0.7", "--fock-n", "200", "--out", f"{OUT}/fock200.csv"),),
    # a one-block chunk is propagated in parts of at most 512 KiB: at N = 512
    # parts of about 60 of its 1,022 samples, the last chunk of one sample;
    # at N = 40 three of 533, where parts of 799 would leave one sample
    (("evolve", "--gamma", "1", "--chi", "0.01", "--q", "0.7", "--fock-n", "512", "--steps", "2045",
      "--out", f"{OUT}/fock512-2045.csv"),),
    (("evolve", "--gamma", "1", "--chi", "0.01", "--q", "0.7", "--fock-n", "40", "--steps", "1599",
      "--out", f"{OUT}/fock40-1599.csv"),),
    # a coherent state on 47 levels, and its dips written to stdout
    (
        ("evolve", "--gamma", "1", "--chi", "0.01", "--q", "0.9", "--initial", "coherent", "--alpha-sq", "3",
         "--steps", "2001", "--out", f"{OUT}/coherent47.csv"),
        ("revivals", f"{OUT}/coherent47.csv", "--chi", "0.01"),
    ),
    (("evolve", "--gamma", "1", "--q", "0.9", "--initial", "coherent", "--alpha-sq", "1e-300",
      "--out", f"{OUT}/coherent-tiny.csv"),),
    (("evolve", "--gamma", "1", "--q", "0.9", "--initial", "coherent", "--alpha-sq", "0",
      "--out", f"{OUT}/coherent-vacuum.csv"),),
    # phases without digits: exit 3
    (("evolve", "--gamma", "1e-300", "--q", "1", "--steps", "5", "--out", f"{OUT}/fock-gamma-tiny.csv"),),
    (("evolve", "--gamma", "1e-300", "--q", "1", "--initial", "coherent", "--steps", "5",
      "--out", f"{OUT}/coherent-gamma-tiny.csv"),),
    (("sweep-q", "--gamma", "1", "--fock-n", "40", "--q-steps", "1000", "--out", f"{OUT}/sweep-fock40.csv"),),
    # one q per chunk: the complex eigenvector copy of one 201 x 201 block
    # already passes the 512 KiB cap
    (("sweep-q", "--gamma", "1", "--fock-n", "200", "--q-steps", "50", "--out", f"{OUT}/sweep-fock200.csv"),),
    (("sweep-q", "--gamma", "1", "--initial", "coherent", "--alpha-sq", "1", "--t", "3", "--q-steps", "40",
      "--out", f"{OUT}/sweep-coherent.csv"),),
    (("find-optimal-q", GAMMA_BS, "--initial", "coherent", "--alpha-sq", "1", "--q-steps", "30",
      "--out", f"{OUT}/optimal-coherent.csv"),),
    # couplings near the float limit: a Fock sweep fails a phase check
    # first (exit 3), a coherent one an overflowed block (exit 2), and
    # gamma 1e308 overflows at every q (exit 2)
    (("sweep-q", "--gamma", "6e307", "--out", f"{OUT}/sweep-gamma-huge.csv"),),
    (("sweep-q", "--gamma", "6e307", "--initial", "coherent", "--out", f"{OUT}/sweep-coherent-gamma-huge.csv"),),
    (("sweep-q", "--gamma", "1e308", "--out", f"{OUT}/sweep-gamma-max.csv"),),
    # the phases keep no digits from q 0.949749 up, inside the one chunk of
    # 200 q: exit 3, naming that q
    (("sweep-q", "--gamma", "1", "--fock-n", "5", "--t", "4.3e11", "--q-steps", "200",
      "--out", f"{OUT}/sweep-interior-phase.csv"),),
    # a coherent sweep whose phases keep no digits at its first q: exit 3
    (("sweep-q", "--gamma", "1e-300", "--initial", "coherent", "--t", "1e300", "--q-steps", "5",
      "--out", f"{OUT}/sweep-coherent-gamma-tiny.csv"),),
    # an intensity outside the radius of the low end of the grid: exit 2
    (("sweep-q", "--gamma", "1", "--initial", "coherent", "--alpha-sq", "5.2", "--q-min", "0.85",
      "--q-max", "0.95", "--q-steps", "5", "--out", f"{OUT}/sweep-coherent-radius.csv"),),
    (("evolve", "--gamma", "1", "--chi", "0.01", "--q", "0.7", "--log-base", "e", "--out", f"{OUT}/fock-nats.csv"),),
    (("sweep-q", "--gamma", "1", "--initial", "coherent", "--t", "0", "--out", f"{OUT}/sweep-coherent-t0.csv"),),
)


def bench_calls() -> list[tuple[tuple[str, ...], ...]]:
    """The CLI calls of every benchmark workload, one group per run, as
    bench/workloads.py gives them.  It is imported read only: no bytecode
    is written under bench/, which is on sys.path only while it imports."""
    saved_flag, saved_path = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        # dataclasses look their module up in sys.modules
        sys.modules[spec.name] = workloads
        spec.loader.exec_module(workloads)
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
    return [
        tuple(tuple(argv) for argv in run.commands(Path(OUT)))
        for workload in workloads.WORKLOADS.values()
        for run in workload.runs
    ]


def _snapshot(folder: Path) -> dict[str, tuple[int, int]]:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in folder.iterdir()}


def run_group(src: Path, group) -> list[tuple]:
    """Run one group of calls on the tree src in a new directory: for each
    call its exit code, stdout, stderr and the files it wrote or rewrote."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        for argv in group:
            before = _snapshot(folder)
            proc = subprocess.run(
                [sys.executable, "-m", "qkerr", *(arg.replace(OUT, tmp) for arg in argv)],
                cwd=tmp, env=env, capture_output=True, text=True,
            )
            written = {
                name: (folder / name).read_bytes()
                for name, stamp in _snapshot(folder).items()
                if before.get(name) != stamp
            }
            results.append((proc.returncode, proc.stdout.replace(tmp, OUT), proc.stderr.replace(tmp, OUT), written))
    return results


def _differences(parent, change) -> list[str]:
    labels = ("exit code", "stdout", "stderr")
    found = [f"{label}: {a!r} != {b!r}" for label, a, b in zip(labels, parent, change) if a != b]
    for name in sorted(parent[3].keys() | change[3].keys()):
        if name not in parent[3] or name not in change[3]:
            found.append(f"file {name} written by one side only")
        elif parent[3][name] != change[3][name]:
            found.append(f"file {name} differs")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all((Path(a) / "qkerr" / "__init__.py").is_file() for a in argv):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent_src, change_src = (Path(a).resolve() for a in argv)
    calls = differing = 0
    for group in bench_calls() + list(EDGE_CALLS):
        for call, parent, change in zip(group, run_group(parent_src, group), run_group(change_src, group)):
            calls += 1
            found = _differences(parent, change)
            if found:
                differing += 1
                print(" ".join(call))
                for line in found:
                    print(f"    {line}")
    print(f"{differing} of {calls} calls differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
