"""One benchmark run in a fresh, single-threaded Python process.

Usage (started by run.py, not by hand):

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --setup-only

The first thing the worker does is ``import qkerr.cli`` (which pulls in
numpy) and time it: that is one ``setup_s`` sample.  ``--setup-only``
stops there.  Otherwise it repeats whole rounds of the workload's CLI
calls, each followed by its output checks and one ``--setup-only`` probe
process, for as many rounds as fit in ``--seconds`` (at least three), and
prints one JSON object as its last line.  The first round warms up and is
not timed; wall_s is the median of the other rounds and setup_s the median
of the import samples.  With ``--trace 1`` it alternates untraced and
traced rounds, starts no probes, and reports per-layer metrics.
CLI outputs go to a temporary directory under ``.bench_build/`` of the
checkout, which is removed at the end; the trace spans are kept in
``.bench_build/traces/``.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

_t0 = time.perf_counter()
import qkerr.cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_DIR = ROOT / ".bench_build"
# Fewest rounds a run makes, whatever --seconds says: the warm-up round and
# two timed ones.
MIN_ROUNDS = 3
# Fewest setup_s samples behind the reported median (this process's own
# import plus one fresh probe process after each round, topped up at the end).
SETUP_SAMPLES = 15


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, if it exposes one."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def run_metadata() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "qkerr": qkerr.__version__,
        "python_threads": threading.active_count(),
    }


def setup_probe() -> float:
    """setup_s as measured by a fresh worker that only imports qkerr.cli."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = qkerr.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed operation, not a crash of the run
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.setup_only:
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if Path(qkerr.__file__).resolve().parent != ROOT / "src" / "qkerr":
        print(f"error: imported qkerr from {qkerr.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    problems = expected = peak_rss_mib = None
    tracer = spans.Tracer() if args.trace else None
    walls = {False: [], True: []}
    setups = [SETUP_S]
    attempted = failed = 0
    reported: set[str] = set()

    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        out = Path(tmp)
        calls = [run.commands(out) for run in workload.runs]
        begin = time.perf_counter()
        rounds = 0
        while True:
            traced = tracer is not None and len(walls[False]) > len(walls[True])
            gc.collect()
            if traced:
                tracer.start_round()
                tracer.install()
            start = time.perf_counter()
            results = [[run_cli(argv) for argv in run_calls] for run_calls in calls]
            walls[traced].append(time.perf_counter() - start)
            if traced:
                tracer.uninstall()
            if expected is None:
                # The high-water mark after the first round is what one CLI
                # session needs.  Read later, it would depend on how many
                # rounds fit in the run, through the allocator's history.
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                problems = oracle.self_check()
                for problem in problems:
                    print(f"oracle self-check failed: {problem}", file=sys.stderr)
                expected = [run.expect(random.Random(f"{args.seed}/{run.stem}")) for run in workload.runs]

            for run, run_calls, exp, res in zip(workload.runs, calls, expected, results):
                for argv, (code, _, err) in zip(run_calls, res):
                    attempted += 1
                    if code != 0:
                        failed += 1
                        if argv[0] not in reported:
                            reported.add(argv[0])
                            print(f"{argv[0]} exited {code}: {err.strip()}", file=sys.stderr)
                for name, ok, detail in run.check(out, exp, [stdout for _, stdout, _ in res]):
                    attempted += 1
                    if not ok:
                        failed += 1
                        if name not in reported:
                            reported.add(name)
                            print(f"check {name} failed: {detail}", file=sys.stderr)
            if tracer is None:
                setups.append(setup_probe())
            rounds += 1
            # stop before a round that would end past --seconds, once the
            # minimum rounds (and, traced, one round of each kind) are done
            elapsed = time.perf_counter() - begin
            if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > args.seconds:
                if tracer is None or walls[True]:
                    break
    while tracer is None and len(setups) < SETUP_SAMPLES:
        setups.append(setup_probe())
    # the first round pays for lazy imports, first allocations and cold caches
    timed = walls[False][1:]

    if args.trace:
        overhead = statistics.median(walls[True]) - statistics.median(timed)
        metrics = tracer.metrics(overhead)
        trace_dir = WORK_DIR / "traces"
        trace_dir.mkdir(exist_ok=True)
        with open(trace_dir / f"{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                       "span_fields": ["id", "parent", "name", "start", "end", "round"], "spans": tracer.spans}, fh)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(timed), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "rounds": {"untraced": walls[False], "traced": walls[True], "setup_s": setups},
        "meta": run_metadata(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
