"""Outside-in tracing of qkerr's layer boundaries.

The tracer wraps, from outside the package, the module-level names one
layer calls in another (for example ``qkerr.dynamics.eigh_tridiagonal``,
the name dynamics looks up when it calls the eigen layer).  Each wrapped
call becomes a span (id, parent id, name, start, end, round) kept in
memory; counters are recorded at the same boundaries.  Per-layer metrics
are derived from the spans at the end: self time is a span's duration
minus the durations of its direct children.

A name missing from the package (after a refactor) is not an error: the
metrics that depend on it are reported as absent.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from collections import Counter


# Recorders turn one finished call (args, kwargs, result) into counter
# increments, keyed by metric name.
def _block_rows(tracer, args, kwargs, result):
    return {"blocks.build_block.rows": result.dim}


def _eigen_rows(tracer, args, kwargs, result):
    return {"eigen.eigh_tridiagonal.rows": len(args[0])}


def _csv_bytes(name):
    return lambda tracer, args, kwargs, result: {f"{name}.bytes": os.path.getsize(args[-1])}


def _eigvalsh_matrices(tracer, args, kwargs, result):
    return {"dynamics.eigvalsh.matrices": 1 if result.ndim == 1 else result.shape[0]}


def _reduce_bytes(tracer, args, kwargs, result):
    # computed, not measured: the rho_field and rho_atom stacks, two complex
    # (samples, dim, dim) arrays
    state, times = args[0], args[2]
    dim = state.n_max + 1
    return {"dynamics.reduce.bytes": 2 * len(times) * dim * dim * 16}


def _propagate_counts(tracer, args, kwargs, result):
    state, cache, times = args[0], args[1], args[2]
    counts = {"dynamics.propagate.samples": len(times), "dynamics.propagate.bytes": result.nbytes}
    # blocks holding weight count once per spectral cache, however many
    # chunks reuse it; keeping the cache keeps its id from being recycled
    if id(cache) not in tracer.caches:
        tracer.caches[id(cache)] = cache
        amps = state.amplitudes
        counts["useful_blocks"] = sum(
            bool(amps[[n_total - m for m in range(n_total + 1)], list(range(n_total + 1))].any())
            for n_total in range(state.n_max + 1)
        )
    return counts


def _entropy_evals(tracer, args, kwargs, result):
    return {"harness.find_optimal_q.entropy_evals": 1} if tracer.open["harness.find_optimal_q"] else {}


# (span name, module, class or None, attribute, recorder, spanned).
# Unspanned names only count calls: box_n runs once per matrix element,
# and a span there would cost more than the work it measures.
BOUNDARIES = (
    ("qalgebra.box_n", "qkerr.blocks", None, "box_n", None, False),
    ("qalgebra.box_n", "qkerr.qalgebra", None, "box_n", None, False),
    ("blocks.build_block", "qkerr.dynamics", None, "build_block", _block_rows, True),
    ("eigen.eigh_tridiagonal", "qkerr.dynamics", None, "eigh_tridiagonal", _eigen_rows, True),
    ("dynamics.build_spectral_cache", "qkerr.harness", None, "build_spectral_cache", None, True),
    ("dynamics.propagate", "qkerr.dynamics", None, "_propagate", _propagate_counts, True),
    ("dynamics.reduce", "qkerr.harness", None, "entropy_series", _reduce_bytes, True),
    ("dynamics.eigvalsh", "numpy.linalg", None, "eigvalsh", _eigvalsh_matrices, True),
    ("harness.state_build", "qkerr.harness", "InitialState", "build", None, True),
    ("harness.write_csv", "qkerr.harness", "EntropySeries", "write_csv", _csv_bytes("harness.write_csv"), True),
    ("harness.write_csv", "qkerr.harness", "SweepResult", "write_csv", _csv_bytes("harness.write_csv"), True),
    ("harness.write_csv", "qkerr.harness", "RevivalReport", "write_csv", _csv_bytes("harness.write_csv"), True),
    ("harness.read_csv", "qkerr.harness", "EntropySeries", "read_csv", _csv_bytes("harness.read_csv"), True),
    ("harness.detect_revivals", "qkerr.cli", None, "detect_revivals", None, True),
    ("harness.find_optimal_q", "qkerr.cli", None, "find_optimal_q", None, True),
    ("harness.entropy_at", "qkerr.harness", None, "_entropy_at", _entropy_evals, True),
    ("cli.main", "qkerr.cli", None, "main", None, True),
)

# Per-layer metric -> (unit, span names it needs).
PER_LAYER = {
    "blocks.build_block.calls": ("count", ["blocks.build_block"]),
    "blocks.build_block.self_s": ("s", ["blocks.build_block"]),
    "blocks.build_block.rows": ("rows", ["blocks.build_block"]),
    "qalgebra.box_n.calls": ("count", ["qalgebra.box_n"]),
    "eigen.eigh_tridiagonal.calls": ("count", ["eigen.eigh_tridiagonal"]),
    "eigen.eigh_tridiagonal.self_s": ("s", ["eigen.eigh_tridiagonal"]),
    "eigen.eigh_tridiagonal.rows": ("rows", ["eigen.eigh_tridiagonal"]),
    "dynamics.build_spectral_cache.calls": ("count", ["dynamics.build_spectral_cache"]),
    "dynamics.build_spectral_cache.self_s": ("s", ["dynamics.build_spectral_cache"]),
    "dynamics.spectral_blocks.useful_ratio": ("ratio", ["dynamics.propagate", "eigen.eigh_tridiagonal"]),
    "harness.state_build.calls": ("count", ["harness.state_build"]),
    "dynamics.propagate.self_s": ("s", ["dynamics.propagate"]),
    "dynamics.propagate.samples": ("count", ["dynamics.propagate"]),
    "dynamics.propagate.bytes": ("bytes", ["dynamics.propagate"]),
    "dynamics.reduce.self_s": ("s", ["dynamics.reduce"]),
    "dynamics.reduce.bytes": ("bytes", ["dynamics.reduce"]),
    "dynamics.eigvalsh.self_s": ("s", ["dynamics.eigvalsh"]),
    "dynamics.eigvalsh.matrices": ("count", ["dynamics.eigvalsh"]),
    "harness.write_csv.self_s": ("s", ["harness.write_csv"]),
    "harness.write_csv.bytes": ("bytes", ["harness.write_csv"]),
    "harness.read_csv.self_s": ("s", ["harness.read_csv"]),
    "harness.read_csv.bytes": ("bytes", ["harness.read_csv"]),
    "harness.detect_revivals.self_s": ("s", ["harness.detect_revivals"]),
    "harness.find_optimal_q.entropy_evals": ("count", ["harness.find_optimal_q", "harness.entropy_at"]),
    "cli.main.calls": ("count", ["cli.main"]),
    "cli.main.self_s": ("s", ["cli.main"]),
    "trace.overhead_s": ("s", []),
}


def _resolve(module: str, cls: str | None):
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


class Tracer:
    """Spans and counters for the rounds run while it is installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float, int]] = []
        self.counts: list[Counter] = []
        self.round = -1
        self.present: set[str] = set()
        self._stack: list[int] = []
        self.open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self.caches: dict[int, object] = {}

    def start_round(self) -> None:
        self.round += 1
        self.counts.append(Counter())
        self.caches = {}

    def install(self) -> None:
        self.present = set()
        for name, module, cls, attr, recorder, spanned in BOUNDARIES:
            owner = _resolve(module, cls)
            raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if raw is None:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(name, raw.__func__, recorder, spanned))
            else:
                new = self._wrap(name, raw, recorder, spanned)
            setattr(owner, attr, new)
            self._patches.append((owner, attr, raw))
            self.present.add(name)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)
        self.caches = {}

    def _wrap(self, name, fn, recorder, spanned):
        counts = self.counts

        if not spanned:
            def counted(*args, **kwargs):
                counts[-1][name + ".calls"] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack, open_ = self.spans, self._stack, self.open

        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)  # reserve the id; filled in when the call ends
            stack.append(span_id)
            open_[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_[name] -= 1
                stack.pop()
                spans[span_id] = (span_id, parent, name, start, end, self.round)
            tally = counts[-1]
            tally[name + ".calls"] += 1
            if recorder is not None:
                tally.update(recorder(self, args, kwargs, result))
            return result

        return traced

    def self_times(self) -> list[Counter]:
        """Per round: span name -> summed self time."""
        child_time: Counter = Counter()
        for span in self.spans:
            if span[1] is not None:
                child_time[span[1]] += span[4] - span[3]
        rounds = [Counter() for _ in self.counts]
        for span_id, _, name, start, end, rnd in self.spans:
            rounds[rnd][name] += (end - start) - child_time[span_id]
        return rounds

    def metrics(self, overhead_s: float) -> dict[str, dict]:
        """Per-layer metrics per traced round (median over rounds)."""
        selfs = self.self_times()
        out = {}
        for metric, (unit, needs) in PER_LAYER.items():
            if not all(n in self.present for n in needs):
                out[metric] = {"value": None, "unit": unit, "absent": True}
                continue
            if metric == "trace.overhead_s":
                value = overhead_s
            elif metric == "dynamics.spectral_blocks.useful_ratio":
                per_round = [
                    c["useful_blocks"] / c["eigen.eigh_tridiagonal.calls"]
                    for c in self.counts
                    if c["eigen.eigh_tridiagonal.calls"]
                ]
                value = statistics.median(per_round) if per_round else None
            elif metric.endswith(".self_s"):
                name = metric[: -len(".self_s")]
                value = statistics.median(r[name] for r in selfs)
            else:
                value = statistics.median(c[metric] for c in self.counts)
            out[metric] = {"value": value, "unit": unit}
        return out
