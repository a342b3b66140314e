"""qkerr benchmark: drives `qkerr.cli.main` through fixed workloads.

    python3 bench/run.py                          # every workload, default seed
    python3 bench/run.py --workload fock-n40 --seed 7 --seconds 40 --trace 0
    python3 bench/run.py --trace 1                # per-layer metrics instead

Each workload run happens in one fresh worker process (bench/worker.py),
started from this process.  With --workload, the last line printed is one JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics (wall_s, setup_s, peak_rss_mib), with --trace 1 the
per-layer ones.  Without --workload, every workload runs in turn and a
table is printed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# The names of workloads.WORKLOADS, listed here so that this process never
# imports numpy.
WORKLOADS = ("acceptance-cli", "fock-n40", "q-scan")
DEFAULT_SEED = 2406
DEFAULT_SECONDS = 40
# A run ends within about --seconds plus set-up and oracle work; anything
# far beyond that is a hang.
WORKER_TIMEOUT_S = 160
# One BLAS thread: on two shared vCPUs a second one only spins (37 s of CPU
# per 25 s run, for the same wall time) and takes the core that absorbs the
# rest of the machine's load.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker(args: list[str], timeout: float) -> dict:
    """Run bench/worker.py in a fresh process and parse its last line."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT,
        env={**os.environ, **SINGLE_THREADED},
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker {' '.join(args)} timed out after {timeout:g} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(result line, run metadata) of one workload run."""
    res = _worker(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        WORKER_TIMEOUT_S,
    )
    line = {key: res[key] for key in ("correct", "attempted", "failed", "metrics")}
    meta = dict(res["meta"], workload=workload, seed=seed, seconds=seconds, trace=trace, rounds=res["rounds"])
    return line, meta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="draws the rows checked against the oracle")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0, help="1: per-layer metrics from a traced run")
    args = parser.parse_args()
    if not (ROOT / "src" / "qkerr" / "cli.py").is_file():
        print(f"error: no qkerr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            line, meta = run_workload(name, args.seed, args.seconds, args.trace)
            results[name] = line
            print("run " + json.dumps(meta), flush=True)
            if not args.workload:
                for metric, m in line["metrics"].items():
                    value = "absent" if m["value"] is None else f"{m['value']:.6g} {m['unit']}"
                    print(f"{name:15s} {metric:40s} {value}")
                print(f"{name:15s} {'attempted':40s} {line['attempted']}")
                print(f"{name:15s} {'failed':40s} {line['failed']}", flush=True)
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload:
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
