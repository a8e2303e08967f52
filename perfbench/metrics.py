"""Every metric the benchmark reports: unit, direction, bound, and the
end-to-end metric and workload a per-layer metric should move. A per-layer
metric's layer is the first part of its name (``trace.*`` is the tracer's
own cost).

``BENCHMARK.json`` lists the same names, units, directions and bounds; a
test keeps them equal. This file is the only full list.
"""

from __future__ import annotations

import statistics
from typing import NamedTuple


class Metric(NamedTuple):
    """A gated end-to-end metric."""

    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: float  # allowed worsening, as a share of the parent's median
    what: str


class Reported(NamedTuple):
    """An end-to-end figure that is printed and recorded but not gated."""

    name: str
    unit: str
    what: str


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric(s) and workload(s) it should move


MBA, DPA, PORT = "mba_many_chains", "dpa_two_chains", "portfolio_budget"
FIXED = f"{MBA}, {DPA}"
ALL = f"{MBA}, {DPA}, {PORT}"

# Times and rates are at the reference speed of speed.py; the wall-clock
# figures are among the reported ones.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           "median time of fileio.load_instance on the generated CSVs plus model.root_node "
           "(3 samples per solve)"),
    Metric("solve_s", "s", "lower", 0.24,
           "search time summed over the suite (per instance: median over passes); in "
           "wall-clock seconds on portfolio_budget, whose searches have a wall-clock budget"),
    Metric("expansions_per_s", "expansions/s", "higher", 0.24,
           "nodes expanded, summed over workers and the suite, per second of search"),
    Metric("waste_pct", "%", "lower", 0.2,
           "final waste summed over the suite divided by the suite's total item area; an "
           "instance without a solution is charged its own item area (100% waste)"),
    Metric("peak_rss_mb", "MB", "lower", 0.1,
           "peak resident memory of the process that ran the workload"),
)

REPORTED = (
    Reported("wall_setup_s", "s", "setup_s in wall-clock seconds"),
    Reported("wall_solve_s", "s", "solve_s in wall-clock seconds"),
    Reported("wall_expansions_per_s", "expansions/s", "expansions_per_s in wall-clock seconds"),
    Reported("probe_slowdown", "ratio",
             "median probe time over its nominal time: how slow the machine ran"),
    Reported("post_s", "s",
             "median wall time of build_solution_tree, write, read back, validate, objective_of"),
    Reported("failed_frac", "fraction", "failed repetitions divided by attempted repetitions"),
    Reported("time_to_first_s", "s", "median over the suite of the time to the first incumbent"),
    Reported("time_to_best_s", "s", "median over the suite of the time to the final incumbent"),
)


def _site(name: str, fields: str, moves: str) -> list[LayerMetric]:
    units = {"calls": ("count", "lower"), "time_s": ("s", "lower"), "out": ("count", "lower"),
             "hit_ratio": ("fraction", "higher"), "kept_ratio": ("fraction", "lower"),
             "admitted_ratio": ("fraction", "lower")}
    return [LayerMetric(f"{name}.{f}", *units[f], moves) for f in fields.split()]


BRANCHING_MOVES = f"solve_s and expansions_per_s on {ALL}, most on {MBA}"
FRINGE_MOVES = f"expansions_per_s on {MBA} and {PORT}; no change on {DPA}"
STORE_MOVES = f"solve_s and peak_rss_mb on {DPA} only"
LOOP_MOVES = f"solve_s and time_to_best_s on {FIXED}"
POST_MOVES = f"post_s on {ALL}"

PER_LAYER = tuple(
    _site("branching.enumerate_insertions", "calls time_s out", BRANCHING_MOVES)
    + _site("branching.apply_insertion", "calls time_s", BRANCHING_MOVES)
    + _site("branching.pair_combos", "calls time_s hit_ratio", BRANCHING_MOVES)
    + _site("branching.symmetry_allows", "calls time_s kept_ratio",
            f"expansions_per_s on {MBA} and {PORT}; no change on {DPA}")
    + _site("branching.filter_dominated_children", "time_s kept_ratio", f"solve_s on {MBA}")
    + [LayerMetric("branching.dead_end_ratio", "fraction", "lower",
                   f"time_to_first_s and waste_pct on {MBA}")]
    + _site("search.guide_value", "calls time_s", FRINGE_MOVES)
    + _site("search.fringe.push", "calls time_s", FRINGE_MOVES)
    + _site("search.fringe.pop_best", "calls time_s", FRINGE_MOVES)
    + _site("search.fringe.pop_worst", "calls time_s", FRINGE_MOVES)
    + [LayerMetric("search.fringe.peak_len", "count", "lower", FRINGE_MOVES)]
    + _site("search.dominance_store.admit", "calls time_s admitted_ratio", STORE_MOVES)
    + [
        LayerMetric("search.dominance_store.peak_size", "count", "lower", STORE_MOVES),
        LayerMetric("search.incumbent.offers", "count", "lower", LOOP_MOVES),
        LayerMetric("search.incumbent.improvements", "count", "lower", LOOP_MOVES),
        LayerMetric("search.children_pushed_ratio", "fraction", "lower", LOOP_MOVES),
        LayerMetric("search.nodes_expanded", "count", "lower", LOOP_MOVES),
        LayerMetric("search.restarts", "count", "lower", LOOP_MOVES),
        LayerMetric("search.loop.self_s", "s", "lower", LOOP_MOVES),
        LayerMetric("search.incumbent.time_to_first_s", "s", "lower",
                    f"itself, on {ALL} (untraced pass; ungated end-to-end figure)"),
        LayerMetric("search.incumbent.time_to_best_s", "s", "lower",
                    f"itself, on {ALL} (untraced pass; ungated end-to-end figure)"),
        LayerMetric("search.portfolio.worker_expansions.min", "count", "higher",
                    f"expansions_per_s and waste_pct on {PORT}"),
        LayerMetric("search.portfolio.worker_expansions.max", "count", "higher",
                    f"expansions_per_s and waste_pct on {PORT}"),
        LayerMetric("model.bytes_per_node", "bytes", "lower", f"peak_rss_mb on {DPA} and {MBA}"),
        LayerMetric("model.root_node.time_s", "s", "lower", f"setup_s on {ALL}"),
        LayerMetric("fileio.load_instance.time_s", "s", "lower", f"setup_s on {ALL}"),
        LayerMetric("solution.build_solution_tree.time_s", "s", "lower", POST_MOVES),
        LayerMetric("fileio.write_solution.time_s", "s", "lower", POST_MOVES),
        LayerMetric("fileio.read_solution.time_s", "s", "lower", POST_MOVES),
        LayerMetric("validator.validate.time_s", "s", "lower", POST_MOVES),
        LayerMetric("validator.objective_of.time_s", "s", "lower", POST_MOVES),
    ]
    + [LayerMetric(f"{layer}.self_s", "s", "lower", moves) for layer, moves in (
        ("fileio", f"setup_s and post_s on {ALL}"),
        ("model", f"setup_s on {ALL}"),
        ("branching", BRANCHING_MOVES),
        ("search", f"solve_s and expansions_per_s on {ALL}"),
        ("solution", POST_MOVES),
        ("validator", POST_MOVES),
    )]
    + [LayerMetric("trace.overhead_frac", "fraction", "lower",
                   f"nothing: traced over untraced time per expansion, minus 1, on {ALL}")]
)

LAYERS = ("fileio", "model", "branching", "search", "solution", "validator")
# search time not covered by the wrapped calls lives in these spans' self time
LOOP_SPANS = ("search.mba_star", "search.dpa_star", "search.restarting_mba_star")
# portfolio_solve waits on its worker threads, so its self time is not work
WAITING_SPANS = ("search.portfolio_solve",)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict[str, tuple[int, float, float]], counts: dict[str, int],
                  distinct_counts: int) -> dict[str, float]:
    """Per-layer values of one traced pass; call sites report self time."""
    def calls(name: str) -> int:
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[2]

    values: dict[str, float] = {}
    for m in PER_LAYER:
        site, _, field = m.name.rpartition(".")
        if field == "calls":
            values[m.name] = calls(site)
        elif field == "time_s":
            values[m.name] = self_s(site)
    pushes = calls("search.fringe.push") or counts["dominance_store.admitted"]
    values.update({
        "branching.enumerate_insertions.out": counts["enumerate_insertions.out"],
        "branching.pair_combos.hit_ratio":
            1 - ratio(distinct_counts, calls("branching.pair_combos"))
            if calls("branching.pair_combos") else 0.0,
        "branching.symmetry_allows.kept_ratio":
            ratio(counts["symmetry_allows.kept"], calls("branching.symmetry_allows")),
        "branching.filter_dominated_children.kept_ratio":
            ratio(counts["filter_dominated_children.out"], counts["filter_dominated_children.in"]),
        "branching.dead_end_ratio":
            ratio(counts["children.dead_ends"], calls("branching.children")),
        "search.fringe.peak_len": counts["fringe.peak_len"],
        "search.dominance_store.admit.admitted_ratio":
            ratio(counts["dominance_store.admitted"], calls("search.dominance_store.admit")),
        "search.dominance_store.peak_size": counts["dominance_store.peak_size"],
        "search.incumbent.offers": calls("search.incumbent.offer"),
        "search.incumbent.improvements": counts["incumbent.improvements"],
        "search.children_pushed_ratio": ratio(pushes, counts["children.out"]),
        "search.restarts": calls("search.mba_star"),
        "search.loop.self_s": sum(self_s(name) for name in LOOP_SPANS),
    })
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            rec[2] for name, rec in stats.items()
            if name.startswith(layer + ".") and name not in WAITING_SPANS)
    return values


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
