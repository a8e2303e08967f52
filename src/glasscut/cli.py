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
import os
import sys
import time
from fractions import Fraction
from typing import Optional

from .fileio import load_instance, read_solution, write_solution
from .model import GlasscutError, GuideKind, Instance, Params, root_node
from .search import (
    DEFAULT_THREADS,
    Incumbent,
    iterative_beam_search,
    portfolio_solve,
    restarting_mba_star,
)
from .solution import build_solution_tree
from .validator import objective_of, validate

GUIDES = {
    "w": GuideKind.WASTE,
    "p": GuideKind.WASTE_PERCENTAGE,
    "a": GuideKind.WASTE_PERCENTAGE_OVER_MEAN_ITEM_AREA,
}


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--plate-width", type=int, default=6000)
    sub.add_argument("--plate-height", type=int, default=3210)
    sub.add_argument("--n-plates", type=int, default=100)
    sub.add_argument("--min1", type=int, default=100)
    sub.add_argument("--max1", type=int, default=3500)
    sub.add_argument("--min2", type=int, default=100)
    sub.add_argument("--min-waste", type=int, default=20)


def _params_from(args: argparse.Namespace) -> Params:
    return Params(
        plate_width=args.plate_width,
        plate_height=args.plate_height,
        n_plates=args.n_plates,
        min1=args.min1,
        max1=args.max1,
        min2=args.min2,
        min_waste=args.min_waste,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="glasscut")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance within a time limit")
    solve.add_argument("-p", "--prefix", required=True, help="instance path prefix")
    solve.add_argument("-t", "--time-limit", type=float, default=3600.0)
    solve.add_argument("-o", "--output", default=None, help="solution CSV path")
    solve.add_argument(
        "--threads",
        type=int,
        default=DEFAULT_THREADS,
        help="restarting-MBA* worker processes sharing the bound; 1 searches "
        "in-process and is deterministic (default: min(4, CPUs), here %(default)s)",
    )
    solve.add_argument("--guide", choices=sorted(GUIDES), default=None)
    solve.add_argument("--growth", default=None, help="restart growth factor")
    solve.add_argument("--queue-size-init", type=int, default=2)
    solve.add_argument("--no-symmetry", action="store_true")
    solve.add_argument(
        "--algorithm",
        choices=["auto", "mbastar", "astar", "ibs", "dpastar"],
        default="auto",
    )
    solve.add_argument("--node-cap", type=int, default=None)
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
    bench.add_argument("-t", "--time-limit", type=float, default=180.0)
    bench.add_argument("-o", "--output", default="results.csv")
    bench.add_argument("--algos", nargs="+", default=["mbastar"], choices=["mbastar", "ibs"])
    bench.add_argument("--guides", nargs="+", default=["p", "a"], choices=sorted(GUIDES))
    bench.add_argument("--growth", default="1.5")
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

    incumbent, _results = portfolio_solve(
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
        print("error: no feasible solution found", file=sys.stderr)
        return 1
    tree = build_solution_tree(incumbent.leaf, instance)
    out_path = args.output or f"{os.path.basename(args.prefix)}_solution.csv"
    write_solution(tree, out_path)
    name = os.path.basename(str(args.prefix))
    print(f"{name},{incumbent.waste},{incumbent.time_to_best:.2f}")
    if args.challenge_compat:
        leftover = args.time_limit - (time.monotonic() - started)
        if leftover > 0:
            time.sleep(leftover)
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


def _bench_single(
    instance: Instance,
    algo: str,
    guide: GuideKind,
    growth: str,
    sym: bool,
    time_limit: float,
) -> tuple[Optional[int], Optional[float]]:
    incumbent = Incumbent()
    root = root_node(instance)
    if algo == "mbastar":
        restarting_mba_star(
            root, instance, guide, Fraction(growth), time_limit, incumbent, use_symmetry=sym
        )
    else:
        iterative_beam_search(root, instance, guide, time_limit, incumbent, use_symmetry=sym)
    return incumbent.waste, incumbent.time_to_best


def cmd_bench(args: argparse.Namespace) -> int:
    params = _params_from(args)
    names = []
    for fn in sorted(os.listdir(args.dir)):
        if fn.endswith("_batch.csv"):
            names.append(fn[: -len("_batch.csv")])
    if args.instances:
        names = [n for n in names if n in set(args.instances)]
    if not names:
        print("error: no instances found", file=sys.stderr)
        return 1
    sym_options = {"on": [True], "off": [False], "both": [True, False]}[args.symmetry]
    new_file = not os.path.exists(args.output)
    with open(args.output, "a", encoding="utf-8") as out:
        if new_file:
            out.write("instance,algorithm,guide,growth,waste,time_to_best\n")
        for name in names:
            instance = load_instance(os.path.join(args.dir, name), params)
            for algo in args.algos:
                for guide_key in args.guides:
                    for sym in sym_options:
                        waste, t_best = _bench_single(
                            instance, algo, GUIDES[guide_key], args.growth, sym, args.time_limit
                        )
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
