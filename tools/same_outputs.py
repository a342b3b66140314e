"""Check that two source trees of qkerr give the same command-line outputs.

usage: python tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the qkerr package, such as the src/
of a checkout.  The calls are the benchmark's own (bench/workloads.py) and
EDGE_CALLS below.  Each call runs in a fresh `python -m qkerr` for each
side, with PYTHONPATH set to that side's tree, one OpenBLAS thread, no
bytecode written and a temporary directory of the side's own.  The change
side runs twice: as is, and pinned to CPU 0 by os.sched_setaffinity, where
a several-block series forks no child; both runs must give the parent's
outputs.  Exit codes, stdout and stderr are compared with the temporary
directory replaced by {out}, and so are the bytes of every file a call
writes.  Each call that differs is printed, and the exit status is 1 if
any does, else 0.
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
    # grids whose last sample fell in a one-sample chunk when chunks held
    # 2,048 samples: now 3 parts of 683 at N = 40, and 8 parts of 256 or
    # 257 on 11 coherent levels
    (("evolve", "--gamma", "1", "--chi", "0.01", "--q", "0.7", "--fock-n", "40", "--steps", "2049",
      "--out", f"{OUT}/fock40-2049.csv"),),
    (("evolve", "--gamma", "1", "--chi", "0.01", "--q", "0.99", "--initial", "coherent", "--steps", "2049",
      "--out", f"{OUT}/coherent-2049.csv"),),
    # 400 samples on 11 levels: exactly two parts of 200, the least grid
    # whose later part a forked child scores
    (("evolve", "--gamma", "1", "--chi", "0.01", "--q", "0.99", "--initial", "coherent", "--steps", "400",
      "--out", f"{OUT}/coherent-400.csv"),),
    # 700 samples on 11 levels: three parts of 233, 233 and 234, the odd
    # split, where the child scores exactly one part
    (("evolve", "--gamma", "1", "--chi", "0.01", "--q", "0.99", "--initial", "coherent", "--steps", "700",
      "--out", f"{OUT}/coherent-700.csv"),),
    (("evolve", "--gamma", "1", "--chi", "0.01", "--q", "0.7", "--fock-n", "200", "--out", f"{OUT}/fock200.csv"),),
    # a one-block grid is propagated in the fewest near-equal parts of at
    # most 512 KiB: at N = 512 33 parts of 61 or 62 samples; at N = 40 three
    # of 533, where parts of 799 would leave one sample
    (("evolve", "--gamma", "1", "--chi", "0.01", "--q", "0.7", "--fock-n", "512", "--steps", "2045",
      "--out", f"{OUT}/fock512-2045.csv"),),
    (("evolve", "--gamma", "1", "--chi", "0.01", "--q", "0.7", "--fock-n", "40", "--steps", "1599",
      "--out", f"{OUT}/fock40-1599.csv"),),
    # a coherent state on 47 levels in 143 parts of 13 or 14 samples, and
    # its dips written to stdout
    (
        ("evolve", "--gamma", "1", "--chi", "0.01", "--q", "0.9", "--initial", "coherent", "--alpha-sq", "3",
         "--steps", "2001", "--out", f"{OUT}/coherent47.csv"),
        ("revivals", f"{OUT}/coherent47.csv", "--chi", "0.01"),
    ),
    # 712 samples on 47 levels: 51 parts of 13 or 14, where chunks of 237
    # sized by dense tables left one sample
    (("evolve", "--gamma", "1", "--chi", "0.01", "--q", "0.9", "--initial", "coherent", "--alpha-sq", "3",
      "--steps", "712", "--out", f"{OUT}/coherent47-712.csv"),),
    # 2,701 samples on 11 levels, one more than ten parts of 270: 11 parts
    # of 245 or 246
    (("evolve", "--gamma", "1", "--chi", "0.01", "--q", "1", "--initial", "coherent", "--steps", "2701",
      "--out", f"{OUT}/coherent-2701.csv"),),
    (("evolve", "--gamma", "1", "--q", "0.9", "--initial", "coherent", "--alpha-sq", "1e-300",
      "--out", f"{OUT}/coherent-tiny.csv"),),
    (("evolve", "--gamma", "1", "--q", "0.9", "--initial", "coherent", "--alpha-sq", "0",
      "--out", f"{OUT}/coherent-vacuum.csv"),),
    # the coherent walk to the end of its bracket row, exit 3: at the
    # 512-level cap, whose last test reads [514] (q 1, and q 0.7 near its
    # radius 1.96), and at the retained weight's overflow at n = 448
    (("evolve", "--gamma", "1", "--chi", "0.01", "--q", "1", "--initial", "coherent", "--alpha-sq", "450",
      "--steps", "201", "--out", f"{OUT}/coherent-cap.csv"),),
    (("evolve", "--gamma", "1", "--chi", "0.01", "--q", "1", "--initial", "coherent", "--alpha-sq", "800",
      "--steps", "201", "--out", f"{OUT}/coherent-overflow.csv"),),
    (("evolve", "--gamma", "1", "--chi", "0.01", "--q", "0.7", "--initial", "coherent", "--alpha-sq", "1.9",
      "--steps", "201", "--out", f"{OUT}/coherent-near-radius.csv"),),
    # long walks that succeed: 88 levels near the q 0.7 radius, and 64 at
    # q 0.9 with the tail cut at 1e-14
    (("evolve", "--gamma", "1", "--chi", "0.01", "--q", "0.7", "--initial", "coherent", "--alpha-sq", "1.5",
      "--steps", "201", "--out", f"{OUT}/coherent88.csv"),),
    (("evolve", "--gamma", "1", "--chi", "0.01", "--q", "0.9", "--initial", "coherent", "--alpha-sq", "3",
      "--tail-tol", "1e-14", "--steps", "201", "--out", f"{OUT}/coherent64.csv"),),
    # phases without digits: exit 3
    (("evolve", "--gamma", "1e-300", "--q", "1", "--steps", "5", "--out", f"{OUT}/fock-gamma-tiny.csv"),),
    (("evolve", "--gamma", "1e-300", "--q", "1", "--initial", "coherent", "--steps", "5",
      "--out", f"{OUT}/coherent-gamma-tiny.csv"),),
    # the phase check runs once over the grid of 19 parts, before any part
    # is propagated, and names its largest |t|
    (("evolve", "--gamma", "1e-300", "--q", "1", "--initial", "coherent", "--steps", "5000",
      "--out", f"{OUT}/coherent-gamma-tiny-5000.csv"),),
    # 1,000 q halved, lower q first, to chunks of 15 and 16
    (("sweep-q", "--gamma", "1", "--fock-n", "40", "--q-steps", "1000", "--out", f"{OUT}/sweep-fock40.csv"),),
    # halved to one q per chunk: the complex eigenvector copy of one
    # 201 x 201 block already passes the 512 KiB cap
    (("sweep-q", "--gamma", "1", "--fock-n", "200", "--q-steps", "50", "--out", f"{OUT}/sweep-fock200.csv"),),
    (("sweep-q", "--gamma", "1", "--initial", "coherent", "--alpha-sq", "1", "--t", "3", "--q-steps", "40",
      "--out", f"{OUT}/sweep-coherent.csv"),),
    (("find-optimal-q", GAMMA_BS, "--initial", "coherent", "--alpha-sq", "1", "--q-steps", "30",
      "--out", f"{OUT}/optimal-coherent.csv"),),
    # a scan of 900 q halved to chunks of 14 and 15, then a refinement on
    # the one N = 40 state its evaluator builds
    (("find-optimal-q", GAMMA_BS, "--t", "1", "--fock-n", "40", "--q-steps", "900",
      "--out", f"{OUT}/optimal-fock40.csv"),),
    # the refinement's evaluator scores in nats too
    (("find-optimal-q", GAMMA_BS, "--t", "1", "--fock-n", "10", "--log-base", "e",
      "--out", f"{OUT}/optimal-nats.csv"),),
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
    # the default 200 coherent q at alpha_sq 1 hold 81 levels at q 0.5 down
    # to 13 at q 1: chunks of 1 to 25 q, each block of a chunk in one
    # stacked solve, each q scored on its own rows; then the same scan as
    # the search's coarse grid, whose best q is its lowest
    (("sweep-q", "--gamma", "1", "--initial", "coherent", "--alpha-sq", "1", "--t", "3",
      "--out", f"{OUT}/sweep-coherent-200.csv"),),
    (("find-optimal-q", "--gamma", "1", "--initial", "coherent", "--alpha-sq", "1", "--t", "3",
      "--out", f"{OUT}/optimal-coherent-200.csv"),),
    # the vacuum: each q has its own state on block 0 alone, and the 200 q
    # are solved in one stack of 200 and scored one by one
    (("sweep-q", "--gamma", "1", "--initial", "coherent", "--alpha-sq", "0", "--t", "3",
      "--out", f"{OUT}/sweep-coherent-vacuum.csv"),),
    # 71 to 121 levels: each state alone passes the 512 KiB budget, so each
    # of the 60 chunks holds one q
    (("sweep-q", "--gamma", "1", "--initial", "coherent", "--alpha-sq", "30", "--q-min", "0.99", "--q-max", "1",
      "--q-steps", "60", "--t", "3", "--out", f"{OUT}/sweep-coherent-30.csv"),),
    # a coherent sweep scored in nats
    (("sweep-q", "--gamma", "1", "--initial", "coherent", "--alpha-sq", "1", "--t", "3", "--log-base", "e",
      "--q-steps", "40", "--out", f"{OUT}/sweep-coherent-nats.csv"),),
    # a coherent series on 171 levels, whose handed-over cache loses each
    # block's real eigenvectors as the kernel copies them: 13.5 MB real
    # beside 26.9 MB of complex copies
    (("evolve", "--gamma", "1", "--chi", "0.01", "--q", "1", "--initial", "coherent", "--alpha-sq", "100",
      "--steps", "201", "--out", f"{OUT}/coherent171.csv"),),
    # the same on 72 levels, where a part holds 6 samples
    (("evolve", "--gamma", "1", "--chi", "0.01", "--q", "1", "--initial", "coherent", "--alpha-sq", "30",
      "--steps", "201", "--out", f"{OUT}/coherent72.csv"),),
    # the several-block kernel inside a sweep: 3 q near 1, about 171
    # levels each, one q a chunk, each part multiplying by the cache's
    # real eigenvectors
    (("sweep-q", "--gamma", "1", "--chi", "0.01", "--initial", "coherent", "--alpha-sq", "100", "--q-min", "0.999",
      "--q-max", "1", "--q-steps", "3", "--t", "3", "--out", f"{OUT}/sweep-coherent-100.csv"),),
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


def _pin_to_cpu_0() -> None:
    os.sched_setaffinity(0, {0})


def run_group(src: Path, group, pinned: bool = False) -> list[tuple]:
    """Run one group of calls on the tree src in a new directory, each call
    pinned to CPU 0 if pinned: for each call its exit code, stdout, stderr
    and the files it wrote or rewrote."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        for argv in group:
            before = _snapshot(folder)
            proc = subprocess.run(
                [sys.executable, "-m", "qkerr", *(arg.replace(OUT, tmp) for arg in argv)],
                cwd=tmp, env=env, capture_output=True, text=True, preexec_fn=_pin_to_cpu_0 if pinned else None,
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
        runs = zip(group, run_group(parent_src, group), run_group(change_src, group), run_group(change_src, group, True))
        for call, parent, change, pinned in runs:
            calls += 1
            found = _differences(parent, change) + [f"pinned to CPU 0, {line}" for line in _differences(parent, pinned)]
            if found:
                differing += 1
                print(" ".join(call))
                for line in found:
                    print(f"    {line}")
    print(f"{differing} of {calls} calls differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
