"""The three benchmark workloads and the per-instance solve each one runs.

Every workload solves a suite of generated instances. One instance is far
too noisy a sample: across seeds a single instance's search time varies by
20-45% and its waste by 15-25%, so a run sums over many instances and the
suite's size comes from ``--seconds`` (see ``suite_size``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from glasscut import search
from glasscut.model import GuideKind, Instance, Node

from generator import Profile
from speed import ReferenceClock

MBA_GUIDE = GuideKind.WASTE_PERCENTAGE
MBA_GROWTH = Fraction(3, 2)
MBA_CAPACITY_INIT = 2
MBA_CAPACITY_MAX = 64
PORTFOLIO_THREADS = 2
PORTFOLIO_BUDGET_S = 1.5
# Tracing slows the search by 13-35%, so a traced pass gets this much more of
# a wall-clock budget, so that it is not cut shorter than an untraced pass.
TRACED_BUDGET_STRETCH = 1.5


class WallClockIncumbent(search.Incumbent):
    """An incumbent that also stamps each improvement with the benchmark's
    own clock, started when the search starts.

    The program stamps improvements with the clock of the current MBA* call,
    which restarts at every restart, so ``time_to_best`` is not a time since
    the search started once a restart has happened."""

    def __init__(self) -> None:
        super().__init__()
        self.started = time.perf_counter()
        self.stamps: list[float] = []

    def offer(self, leaf: Node, elapsed: float) -> bool:
        improved = super().offer(leaf, elapsed)
        if improved:
            self.stamps.append(time.perf_counter() - self.started)
        return improved


@dataclass
class SolveResult:
    incumbent: WallClockIncumbent
    outcome: str
    nodes_expanded: int
    search_s: float  # wall time
    scaled_s: float  # the same at the reference speed (see speed.py)
    worker_expansions: list[int] = field(default_factory=list)


def solve_mba_schedule(instance: Instance, root: Node, time_limit: float,
                       clock: ReferenceClock) -> SolveResult:
    """Restarting MBA* with a capacity ceiling instead of a clock: successive
    ``mba_star`` calls share one incumbent, the capacity grows from 2 by 3/2
    through ``next_capacity`` while it stays at most ``MBA_CAPACITY_MAX``, and
    the schedule stops early on an iteration that discards nothing.

    Like the program's own restarts, which never stop without a solution
    while time remains, the schedule goes on past the ceiling until the
    first incumbent appears. Symmetry breaking can leave so many nodes
    without children that small capacities find no solution at all; such an
    instance then shows as a long search instead of a missing answer.

    Each ``mba_star`` call is timed between probes of its own, so the scaled
    time follows the machine's speed through the schedule. The times to the
    first and best solution include those probes (about 5 ms each)."""
    incumbent = WallClockIncumbent()
    deadline = incumbent.started + time_limit
    capacity = MBA_CAPACITY_INIT
    expanded = 0
    search_s = scaled_s = 0.0
    outcome = "exhausted"
    while capacity <= MBA_CAPACITY_MAX or incumbent.leaf is None:
        res, wall, scaled = clock.timed(lambda: search.mba_star(
            root, instance, MBA_GUIDE, capacity, deadline - time.perf_counter(), incumbent))
        expanded += res.nodes_expanded
        search_s += wall
        scaled_s += scaled
        if res.outcome != "exhausted":
            outcome = res.outcome
            break
        if not res.discarded_any:
            break
        capacity = search.next_capacity(capacity, MBA_GROWTH)
    return SolveResult(incumbent, outcome, expanded, search_s, scaled_s)


def solve_dpa(instance: Instance, root: Node, time_limit: float,
              clock: ReferenceClock) -> SolveResult:
    """DPA* until its search is exhausted."""
    incumbent = WallClockIncumbent()
    res, search_s, scaled_s = clock.timed(
        lambda: search.dpa_star(root, instance, time_limit, incumbent))
    return SolveResult(incumbent, res.outcome, res.nodes_expanded, search_s, scaled_s)


def solve_portfolio(instance: Instance, root: Node, time_limit: float,
                    clock: ReferenceClock) -> SolveResult:
    """The default ``solve`` path: the restarting-MBA* thread portfolio, for a
    budget of ``time_limit``. ``portfolio_solve`` makes its own incumbent and
    root, so the wall-clock incumbent is swapped in through the module
    attribute."""
    del root  # portfolio_solve builds its own root from the instance
    original = search.Incumbent
    search.Incumbent = WallClockIncumbent
    try:
        (incumbent, results), search_s, scaled_s = clock.timed(lambda: search.portfolio_solve(
            instance, time_limit, threads=PORTFOLIO_THREADS, algorithm="mbastar"))
    finally:
        search.Incumbent = original
    expansions = [r.nodes_expanded for r in results]
    outcome = "/".join(sorted({r.outcome for r in results}))
    return SolveResult(incumbent, outcome, sum(expansions), search_s, scaled_s, expansions)


@dataclass(frozen=True)
class Workload:
    name: str
    profile: Profile
    solve: Callable[[Instance, Node, float, ReferenceClock], SolveResult]
    # wall-clock budget of one search; None for deterministic work, which is
    # repeated and compared across passes
    budget_s: Optional[float]
    # 1 / mean search time of one instance, on a shared 2-vCPU Xeon with CPython 3.11
    instances_per_second: float
    why: str

    @property
    def fixed_work(self) -> bool:
        return self.budget_s is None

    def time_limit(self, time_left: float, traced: bool) -> float:
        """A search's time limit: the budget, if any, stretched in a traced
        pass, and never more than what is left of the run."""
        if self.budget_s is None:
            return time_left
        return min(time_left, self.budget_s * (TRACED_BUDGET_STRETCH if traced else 1.0))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mba_many_chains", Profile(24, 8), solve_mba_schedule, None, 1.2,
            "synthetic X-like, 8 chains: capped restarting MBA* runs all four branching "
            "stages, the fringe, the Ratio guide and worst-node discards, as on every "
            "instance with >2 chains",
        ),
        Workload(
            "dpa_two_chains", Profile(14, 2), solve_dpa, None, 7.5,
            "synthetic B-like, 2 chains: exhaustive DPA* stresses DominanceStore.admit and "
            "an int-keyed heap with symmetry off; bypasses Fringe, guide_value and "
            "symmetry_allows",
        ),
        Workload(
            "portfolio_budget", Profile(30, 8), solve_portfolio, PORTFOLIO_BUDGET_S,
            1 / PORTFOLIO_BUDGET_S,
            "synthetic X-like, default 2-thread MBA* portfolio at a fixed budget: the only "
            "workload where workers share the GIL and the incumbent",
        ),
    )
}


def suite_size(workload: Workload, seconds: float) -> int:
    """Instances per run. Fixed-work suites are solved twice, so one pass takes
    about half the run; the portfolio suite is solved once at a fixed budget."""
    share = 0.5 if workload.fixed_work else 1.0
    return max(2, round(seconds * share * workload.instances_per_second))


def instance_seed(workload: Workload, seed: int, index: int) -> str:
    """Seed of one instance; the workload name keeps the streams apart."""
    return f"{workload.name}/{seed}/{index}"


def wall_times(incumbent: WallClockIncumbent) -> Optional[tuple[float, float]]:
    """(time to first, time to best) in seconds since the search started."""
    if not incumbent.stamps:
        return None
    return incumbent.stamps[0], incumbent.stamps[-1]
