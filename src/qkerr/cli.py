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
import math
import sys
from dataclasses import replace

import numpy as np

from .blocks import SystemParams
from .exceptions import ConvergenceError
from .harness import (
    Q_FLOOR,
    EntropySeries,
    InitialState,
    detect_revivals,
    find_optimal_q,
    q_grid,
    run_evolve,
    run_sweep_q,
    time_grid,
)
from .qalgebra import TAIL_TOL


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _log_base(text: str) -> float:
    if text == "2":
        return 2.0
    if text == "e":
        return math.e
    raise argparse.ArgumentTypeError("log base must be 2 or e")


def _q_value(text: str) -> float:
    try:
        q = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid q value {text!r}") from None
    if not Q_FLOOR < q <= 1.0:
        raise argparse.ArgumentTypeError(f"q must lie in ({Q_FLOOR}, 1], got {text}")
    return q


def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--omega", type=float, default=1.0, help="atomic mode frequency (default 1)")
    parser.add_argument("--chi", type=float, default=0.0, help="Kerr strength (default 0)")
    parser.add_argument("--gamma", type=float, required=True, help="mode-exchange coupling")
    parser.add_argument(
        "--log-base",
        type=_log_base,
        default=2.0,
        metavar="{2,e}",
        help="entropy log base (default 2)",
    )


def _add_initial(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--initial",
        choices=["fock", "coherent"],
        default="fock",
        help="field-mode preparation (default fock)",
    )
    parser.add_argument("--fock-n", type=int, default=5, help="number-state quantum number (default 5)")
    parser.add_argument("--alpha-sq", type=float, default=0.5, help="coherent |alpha|^2 (default 0.5)")
    parser.add_argument("--alpha-phase", type=float, default=0.0, help="coherent phase arg(alpha) (default 0)")
    parser.add_argument(
        "--tail-tol", type=float, default=TAIL_TOL, help=f"coherent truncation tail tolerance (default {TAIL_TOL:g})"
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
        alpha_phase=args.alpha_phase,
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
    _add_shared(p_sweep)
    _add_initial(p_sweep)
    _add_q_scan(p_sweep)

    p_evolve = sub.add_parser("evolve", help="entropy time series for one deformation")
    _add_shared(p_evolve)
    _add_initial(p_evolve)
    p_evolve.add_argument("--q", type=_q_value, required=True, help="deformation parameter")
    p_evolve.add_argument("--t-min", type=float, default=0.0, help="grid start time (default 0)")
    p_evolve.add_argument("--t-max", type=float, default=None, help="grid end time (default spans the revival window)")
    p_evolve.add_argument("--steps", type=int, default=None, help="grid samples (default matches the default span)")
    p_evolve.add_argument("--out", required=True, help="output CSV path")

    p_opt = sub.add_parser("find-optimal-q", help="deformation maximizing the fixed-time entropy")
    _add_shared(p_opt)
    _add_initial(p_opt)
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
    initial = _initial_from(args)
    result = run_sweep_q(initial, _params_from(args), qs, args.t, log_base=args.log_base)
    result.write_csv(args.out)
    print(f"wrote {qs.shape[0]} rows to {args.out}")
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    initial = _initial_from(args)
    t_max = initial.default_t_max(args.gamma) if args.t_max is None else args.t_max
    steps = initial.default_steps if args.steps is None else args.steps
    times = time_grid(args.t_min, t_max, steps)
    series = run_evolve(initial, replace(_params_from(args), q=args.q), times, log_base=args.log_base)
    series.write_csv(args.out)
    print(f"wrote {times.shape[0]} rows to {args.out}")
    return 0


def _cmd_find_optimal_q(args: argparse.Namespace) -> int:
    qs = q_grid(args.q_min, args.q_max, args.q_steps)
    result = find_optimal_q(_initial_from(args), _params_from(args), qs, args.t, log_base=args.log_base)
    result.scan.write_csv(args.out)
    print(f"q_star = {_fmt(result.q_star)}")
    print(f"S_star = {_fmt(result.s_star)}")
    return 0


def _cmd_revivals(args: argparse.Namespace) -> int:
    series = EntropySeries.read_csv(args.series)
    report = detect_revivals(series, args.chi, args.threshold, window=(args.window_lo, args.window_hi))
    if args.out is not None:
        report.write_csv(args.out)
    else:
        report.write(sys.stdout)
    counts: dict[str, int] = {}
    for dip in report.dips:
        counts[dip.classification] = counts.get(dip.classification, 0) + 1
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items())) or "no dips"
    print(f"{len(report.dips)} dip(s) below {_fmt(report.threshold)} of max ({summary})", file=sys.stderr)
    return 0


_HANDLERS = {
    "sweep-q": _cmd_sweep_q,
    "evolve": _cmd_evolve,
    "find-optimal-q": _cmd_find_optimal_q,
    "revivals": _cmd_revivals,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        # Subclasses ValueError, so it must be caught first.
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
