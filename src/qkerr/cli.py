"""Command-line driver.

Subcommands::

    sweep-q         entropy vs deformation at fixed time  -> CSV (q, S_field)
    evolve          entropy vs time for one deformation   -> CSV time series
    find-optimal-q  deformation maximizing the entropy    -> scan CSV + summary
    revivals        dip detection on an evolve CSV        -> dip table

Exit codes: 0 success, 2 invalid arguments or malformed input, 3 numerical
or convergence failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections import Counter
from dataclasses import replace

import numpy as np

from .blocks import SystemParams
from .exceptions import ConvergenceError
from .harness import (
    NUMBER_FORMAT,
    EntropySeries,
    InitialState,
    check_grid_q,
    detect_revivals,
    find_optimal_q,
    q_grid,
    run_evolve,
    run_sweep_q,
    time_grid,
)

# The library's defaults, which the CLI's defaults are read from.
_PARAMS = SystemParams()
_INITIAL = InitialState(kind="fock")

# evolve's default time grid per initial kind, (gamma*t span, samples),
# kept here and not in the library: dips are ~1 wide in gamma*t, so a 0.05
# spacing resolves them with room to spare.
_DEFAULT_GRIDS = {"fock": (700.0, 14_001), "coherent": (1400.0, 28_001)}


def _log_base(text: str) -> float:
    if text == "2":
        return 2.0
    if text == "e":
        return math.e
    raise argparse.ArgumentTypeError("log base must be 2 or e")


def _add_physics(parser: argparse.ArgumentParser) -> None:
    """The system and initial-state flags of every subcommand that simulates."""
    parser.add_argument("--omega", type=float, default=_PARAMS.omega, help="atomic frequency (default %(default)g)")
    parser.add_argument("--chi", type=float, default=_PARAMS.chi, help="Kerr strength (default %(default)g)")
    parser.add_argument("--gamma", type=float, required=True, help="mode-exchange coupling")
    parser.add_argument(
        "--log-base",
        type=_log_base,
        default=2.0,
        metavar="{2,e}",
        help="entropy log base (default 2)",
    )
    parser.add_argument(
        "--initial",
        choices=["fock", "coherent"],
        default="fock",
        help="field-mode preparation (default fock)",
    )
    parser.add_argument("--fock-n", type=int, default=_INITIAL.fock_n, help="Fock quantum number (default %(default)d)")
    parser.add_argument(
        "--alpha-sq", type=float, default=_INITIAL.alpha_sq, help="coherent |alpha|^2 (default %(default)g)"
    )
    parser.add_argument(
        "--tail-tol", type=float, default=_INITIAL.tail_tol, help="coherent truncation tolerance (default %(default)g)"
    )


def _add_q_scan(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--t", type=float, default=1.0, help="evolution time (default 1)")
    parser.add_argument("--q-min", type=float, default=0.5)
    parser.add_argument("--q-max", type=float, default=1.0)
    parser.add_argument("--q-steps", type=int, default=200)
    parser.add_argument("--out", required=True, help="CSV path for the q scan")


def _initial_from(args: argparse.Namespace) -> InitialState:
    return InitialState(
        kind=args.initial,
        fock_n=args.fock_n,
        alpha_sq=args.alpha_sq,
        tail_tol=args.tail_tol,
    )


def _params_from(args: argparse.Namespace) -> SystemParams:
    return SystemParams(omega=args.omega, chi=args.chi, gamma=args.gamma)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkerr",
        description="Entanglement dynamics of a deformed bosonic mode coupled to a Kerr mode.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep-q", help="entropy vs deformation at fixed time")
    _add_physics(p_sweep)
    _add_q_scan(p_sweep)

    p_evolve = sub.add_parser("evolve", help="entropy time series for one deformation")
    _add_physics(p_evolve)
    p_evolve.add_argument("--q", type=float, required=True, help="deformation parameter")
    p_evolve.add_argument("--t-min", type=float, default=0.0, help="grid start time (default 0)")
    p_evolve.add_argument("--t-max", type=float, default=None, help="grid end time (default spans the revival window)")
    p_evolve.add_argument("--steps", type=int, default=None, help="grid samples (default matches the default span)")
    p_evolve.add_argument("--out", required=True, help="output CSV path")

    p_opt = sub.add_parser("find-optimal-q", help="deformation maximizing the fixed-time entropy")
    _add_physics(p_opt)
    _add_q_scan(p_opt)

    p_rev = sub.add_parser("revivals", help="detect and classify entropy dips in an evolve CSV")
    p_rev.add_argument("series", help="CSV produced by the evolve subcommand")
    p_rev.add_argument("--chi", type=float, required=True, help="Kerr strength used for the run")
    p_rev.add_argument("--threshold", type=float, default=0.2, help="dip cutoff as a fraction of max S (default 0.2)")
    p_rev.add_argument("--window-lo", type=float, default=None, help="window lower edge in gamma*t units")
    p_rev.add_argument("--window-hi", type=float, default=None, help="window upper edge in gamma*t units")
    p_rev.add_argument("--out", default=None, help="dip CSV path (default: stdout)")

    return parser


def _cmd_sweep_q(args: argparse.Namespace) -> int:
    qs = q_grid(args.q_min, args.q_max, args.q_steps)
    result = run_sweep_q(_initial_from(args), _params_from(args), qs, args.t, log_base=args.log_base)
    result.write_csv(args.out)
    print(f"wrote {qs.shape[0]} rows to {args.out}")
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    q = check_grid_q(args.q)
    gt_max, steps = _DEFAULT_GRIDS[args.initial]
    if args.t_max is None and args.gamma == 0.0:
        raise ValueError("cannot infer a default time grid with gamma = 0; pass --t-max")
    t_max = gt_max / abs(args.gamma) if args.t_max is None else args.t_max
    times = time_grid(args.t_min, t_max, steps if args.steps is None else args.steps)
    series = run_evolve(_initial_from(args), replace(_params_from(args), q=q), times, log_base=args.log_base)
    series.write_csv(args.out)
    print(f"wrote {times.shape[0]} rows to {args.out}")
    return 0


def _cmd_find_optimal_q(args: argparse.Namespace) -> int:
    qs = q_grid(args.q_min, args.q_max, args.q_steps)
    result = find_optimal_q(_initial_from(args), _params_from(args), qs, args.t, log_base=args.log_base)
    result.scan.write_csv(args.out)
    print(f"q_star = {NUMBER_FORMAT % result.q_star}")
    print(f"S_star = {NUMBER_FORMAT % result.s_star}")
    return 0


def _cmd_revivals(args: argparse.Namespace) -> int:
    series = EntropySeries.read_csv(args.series)
    report = detect_revivals(series, args.chi, args.threshold, window=(args.window_lo, args.window_hi))
    if args.out is not None:
        report.write_csv(args.out)
    else:
        report.write(sys.stdout)
    counts = Counter(dip.classification for dip in report.dips)
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items())) or "no dips"
    print(f"{len(report.dips)} dip(s) below {NUMBER_FORMAT % report.threshold} of max ({summary})", file=sys.stderr)
    return 0


_HANDLERS = {
    "sweep-q": _cmd_sweep_q,
    "evolve": _cmd_evolve,
    "find-optimal-q": _cmd_find_optimal_q,
    "revivals": _cmd_revivals,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call (building costs about
    ten times a parse) and not at import."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        # Subclasses ValueError, so it must be caught first.
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
