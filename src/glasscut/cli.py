"""Command-line entry points: solve, validate, bench.

``solve`` mirrors the competition setup: instances with at most two chains
go to DPA*, everything else to up to four restarting-MBA* worker processes
(two guides x two growth factors) sharing the best waste as their bound.
``validate`` re-checks a solution file independently; ``bench`` runs
algorithm combinations over a directory of instances and appends one CSV row
per run.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import fields
from fractions import Fraction
from typing import Optional

from .branching import forget_children
from .fileio import load_instance, read_solution, write_solution
from .model import GlasscutError, GuideKind, Instance, Params
from .search import DEFAULT_THREADS, SearchResult, portfolio_solve
from .solution import build_solution_tree
from .validator import objective_of, validate

GUIDES = {g.value: g for g in GuideKind}
# Longest single sleep of --challenge-compat, in seconds.
_SLEEP_SLICE_S = 3600.0


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    """One integer flag per ``Params`` field: ``--plate-width`` and so on."""
    for f in fields(Params):
        sub.add_argument("--" + f.name.replace("_", "-"), type=int, default=f.default)


def _params_from(args: argparse.Namespace) -> Params:
    return Params(**{f.name: getattr(args, f.name) for f in fields(Params)})


def _growth_factor(text: str) -> str:
    """A restart growth factor above 1, kept as written (``1.5``, ``3/2``)."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if value <= 1:
        raise argparse.ArgumentTypeError(f"must exceed 1, got {text}")
    return text


def _positive_int(text: str) -> int:
    """An integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    """A finite time limit above 0 seconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and exceed 0, got {text}")
    return value


def _output_error(path: str) -> Optional[str]:
    """Why no file can be written at ``path``, or None.  Checked before a
    command spends its time on results that it could not save."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        return f"BAD_OUTPUT no such directory: {directory}"
    if os.path.isdir(path):
        return f"BAD_OUTPUT is a directory: {path}"
    return None


def _capacity_error(args: argparse.Namespace, instance: Instance) -> Optional[str]:
    """Why the MBA* portfolio could not expand a node, if it runs (``mbastar``,
    or ``auto`` or ``dpastar`` on more than two chains) and its first fringe
    capacity, ``--queue-size-init``, is already above ``--node-cap``: each
    worker would stop with outcome memory before its first expansion."""
    mba = args.algorithm == "mbastar" or (
        args.algorithm in ("auto", "dpastar") and len(instance.chains) > 2)
    if mba and args.node_cap is not None and args.queue_size_init > args.node_cap:
        return (f"BAD_ARGS --queue-size-init {args.queue_size_init} is above --node-cap "
                f"{args.node_cap}: no MBA* worker could expand a node")
    return None


def _no_solution_reason(results: list[SearchResult]) -> str:
    """Why ``solve`` has no solution to write: how its searches ended
    (``SearchResult.outcome``) and the nodes they expanded."""
    outcomes = sorted({r.outcome for r in results})
    expanded = sum(r.nodes_expanded for r in results)
    reason = (f"no feasible solution found: search outcome {'/'.join(outcomes) or 'none'}, "
              f"{expanded} nodes expanded")
    if "memory" in outcomes:
        reason += ("; a capacity, beam width or open list passed the node cap "
                   "(--node-cap, by default a share of the free memory)")
    return reason


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="glasscut")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance within a time limit")
    solve.add_argument("-p", "--prefix", required=True, help="instance path prefix")
    solve.add_argument("-t", "--time-limit", type=_positive_seconds, default=3600.0)
    solve.add_argument("-o", "--output", default=None, help="solution CSV path")
    solve.add_argument(
        "--threads",
        type=_positive_int,
        default=DEFAULT_THREADS,
        help="restarting-MBA* worker processes sharing the bound, one per distinct "
        "guide and growth factor, so at most 4 (fewer with --guide or --growth); "
        "one worker searches in-process and is deterministic "
        "(default: min(4, CPUs), here %(default)s)",
    )
    solve.add_argument("--guide", choices=sorted(GUIDES), default=None)
    solve.add_argument("--growth", type=_growth_factor, default=None,
                       help="restart growth factor, above 1")
    solve.add_argument("--queue-size-init", type=_positive_int, default=2)
    solve.add_argument("--no-symmetry", action="store_true")
    solve.add_argument(
        "--algorithm",
        choices=["auto", "mbastar", "astar", "ibs", "dpastar"],
        default="auto",
    )
    solve.add_argument("--node-cap", type=_positive_int, default=None)
    solve.add_argument("--seed", type=int, default=None, help="accepted and ignored")
    solve.add_argument(
        "--challenge-compat",
        action="store_true",
        help="stay alive until the time limit even after an early finish",
    )
    _add_param_flags(solve)

    val = sub.add_parser("validate", help="check a solution file")
    val.add_argument("-p", "--prefix", required=True)
    val.add_argument("-s", "--solution", required=True)
    _add_param_flags(val)

    bench = sub.add_parser("bench", help="run algorithm combinations over a directory")
    bench.add_argument("--dir", required=True)
    bench.add_argument("-t", "--time-limit", type=_positive_seconds, default=180.0)
    bench.add_argument("-o", "--output", default="results.csv")
    bench.add_argument("--algos", nargs="+", default=["mbastar"], choices=["mbastar", "ibs"])
    bench.add_argument("--guides", nargs="+", default=["p", "a"], choices=sorted(GUIDES))
    bench.add_argument("--growth", type=_growth_factor, default="1.5")
    bench.add_argument("--symmetry", choices=["on", "off", "both"], default="on")
    bench.add_argument("--instances", nargs="*", default=None, help="restrict to these names")
    _add_param_flags(bench)
    return parser


def cmd_solve(args: argparse.Namespace) -> int:
    started = time.monotonic()
    try:
        instance = load_instance(args.prefix, _params_from(args))
    except (GlasscutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if instance.n_items == 0:
        print("error: NO_ITEMS instance has no items", file=sys.stderr)
        return 1
    out_path = args.output or f"{os.path.basename(args.prefix)}_solution.csv"
    problem = _output_error(out_path) or _capacity_error(args, instance)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 1

    incumbent, results = portfolio_solve(
        instance,
        time_limit=args.time_limit,
        threads=args.threads,
        use_symmetry=not args.no_symmetry,
        capacity_init=args.queue_size_init,
        guide=GUIDES[args.guide] if args.guide else None,
        growth=args.growth,
        algorithm=args.algorithm,
        node_cap=args.node_cap,
    )
    if incumbent.leaf is None:
        print(f"error: {_no_solution_reason(results)}", file=sys.stderr)
        return 1
    tree = build_solution_tree(incumbent.leaf, instance)
    try:
        write_solution(tree, out_path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    name = os.path.basename(str(args.prefix))
    print(f"{name},{incumbent.waste},{incumbent.time_to_best:.2f}")
    if args.challenge_compat:
        # bounded slices: time.sleep overflows on a limit such as 1e308 s
        deadline = started + args.time_limit
        while (leftover := deadline - time.monotonic()) > 0:
            time.sleep(min(leftover, _SLEEP_SLICE_S))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        instance = load_instance(args.prefix, _params_from(args))
        tree = read_solution(args.solution)
    except (GlasscutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = validate(instance, tree)
    if not report.ok:
        for v in report.violations:
            print(v)
        return 1
    print(f"feasible, objective {objective_of(instance, tree)}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        params = _params_from(args)
        files = sorted(os.listdir(args.dir))
    except (GlasscutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    problem = _output_error(args.output)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 1
    names = []
    for fn in files:
        if fn.endswith("_batch.csv"):
            names.append(fn[: -len("_batch.csv")])
    if args.instances:
        missing = [n for n in dict.fromkeys(args.instances) if n not in names]
        if missing:
            print(f"error: BAD_ARGS no instance {' '.join(missing)} in {args.dir}",
                  file=sys.stderr)
            return 1
        names = [n for n in names if n in set(args.instances)]
    if not names:
        print("error: no instances found", file=sys.stderr)
        return 1
    instances = {}
    for name in names:  # all of them before the first run, which may take hours
        try:
            instances[name] = load_instance(os.path.join(args.dir, name), params)
        except (GlasscutError, OSError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    sym_options = {"on": [True], "off": [False], "both": [True, False]}[args.symmetry]
    new_file = not os.path.exists(args.output)
    try:
        out = open(args.output, "a", encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with out:
        if new_file:
            out.write("instance,algorithm,guide,growth,waste,time_to_best\n")
        for name, instance in instances.items():
            for algo in args.algos:
                for guide_key in args.guides:
                    for sym in sym_options:
                        forget_children(instance)  # no run starts from another's memo
                        incumbent, _ = portfolio_solve(
                            instance, args.time_limit, threads=1, use_symmetry=sym,
                            guide=GUIDES[guide_key], growth=args.growth, algorithm=algo,
                        )
                        waste, t_best = incumbent.waste, incumbent.time_to_best
                        label = algo + ("+sym" if sym else "+nosym")
                        t_txt = "" if t_best is None else f"{t_best:.2f}"
                        w_txt = "" if waste is None else str(waste)
                        out.write(
                            f"{name},{label},{guide_key},{args.growth},{w_txt},{t_txt}\n"
                        )
                        out.flush()
                        print(f"{name} {label} guide={guide_key}: waste={w_txt}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve":
        return cmd_solve(args)
    if args.command == "validate":
        return cmd_validate(args)
    if args.command == "bench":
        return cmd_bench(args)
    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    sys.exit(main())
