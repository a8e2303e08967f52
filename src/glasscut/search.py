"""Tree search algorithms over the insertion scheme.

Every search expands nodes through one child block (``_expander``): complete
children go to the incumbent, and children whose waste already reaches the
incumbent's are cut (waste never decreases along a branch, so this pruning
is exact).  So is a child whose ``waste_floor`` reaches it: every
completion covers the plates before the child's and its plate left of
``x1_curr`` over the full height, and packs every item, so no completion
wastes less than the floor and this pruning is exact too.  A child's waste,
guide key and items packed follow from its parent and its insertion, so an
open child stays a (waste, parent, insertion) entry.  A ``Node`` is built
only for a node the search expands and for a complete child that improves
the incumbent.  One best-first loop (``_best_first``) runs three searches:

* ``astar`` expands the best open node until none is left;
* ``mba_star`` also discards the *worst* open nodes beyond a capacity D,
  kept in a sorted ``Fringe``: D=1 degenerates to a greedy descent,
  unbounded D is plain A*;
* ``dpa_star``, for at most two chains, is waste-guided A* whose admission
  hook, a ``DominanceStore``, keeps the non-dominated fronts seen so far per
  (chain-1 consumed, chain-2 consumed) state and rejects dominated children.

``restarting_mba_star`` reruns MBA* with geometrically growing D; an
iteration that never discarded anything and still emptied its fringe is a
proof of optimality within the scheme, so the loop stops.
``iterative_beam_search`` is the width-doubling level-synchronous baseline.
``portfolio_solve`` prepares the chosen algorithm as searches that take only
a time limit and an incumbent, one restarting MBA* per portfolio entry, and
one runner runs a single search in-process and several as worker processes
that share the incumbent's waste as their pruning bound.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from bisect import bisect_left, insort
from heapq import heappop, heappush, nsmallest
from operator import itemgetter
from typing import Callable, Optional, Union

from . import branching
from .branching import Insertion, _allowed_depths, depths_after, insertion_front
from .model import (
    GlasscutError, GuideKind, Instance, Node, Params, admit_front, counts_after, root_node,
    waste_floor,
)

# The per-expansion call of every search: the insertions of the children it
# keeps.  Searches call it, and ``branching.apply_insertion``, through their
# modules, where a tracer or a test can wrap them.
children = branching.child_insertions

# module aliases of the guides: attribute lookups on an Enum class are slow
_WASTE, _WASTE_PERCENTAGE, _WASTE_PERCENTAGE_OVER_MEAN_ITEM_AREA = GuideKind


class ChainCountError(GlasscutError):
    """Raised when DPA* is asked to solve an instance with over two chains."""


def guide_scale(params: Params) -> int:
    """Scale of the integer guide keys of one search: (n_plates * W * H)^4.

    A node's area is at most n_plates * W * H = M and its item area at most
    its area, so every guide ratio has a denominator of at most M^2.  Two
    such ratios are either equal or at least 1 / M^4 apart, so multiplying
    by M^4 and rounding down keeps their order and their ties exactly."""
    return (params.n_plates * params.plate_width * params.plate_height) ** 4


def guide_value(
    waste: int, area: int, item_area: int, n_packed: int, kind: GuideKind, scale: int
) -> int:
    """Ordering key of a node with these figures: the guide's ratio times
    ``scale`` (see ``guide_scale``) rounded down, which orders and ties
    nodes exactly as the ratio does; zero on the empty root.  The figures
    come from a ``Node`` or, for a child not built yet, from its parent and
    its insertion."""
    if kind is _WASTE:
        return waste
    if area == 0:
        return 0
    if kind is _WASTE_PERCENTAGE:
        return waste * scale // area
    if n_packed == 0:
        return 0
    # waste percentage divided by the mean packed item area
    return waste * n_packed * scale // (area * item_area)


class Incumbent:
    """Best complete solution so far of one run.  In a multi-process
    portfolio the parent process keeps it; workers only share its waste."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.leaf: Optional[Node] = None
        self.waste: Optional[int] = None
        self.time_to_best: Optional[float] = None
        self.history: list[tuple[float, int]] = []

    def offer(self, leaf: Node, elapsed: float) -> bool:
        """Publish a complete leaf if it improves; never regresses."""
        with self._lock:
            if self.waste is not None and leaf.waste >= self.waste:
                return False
            self.leaf = leaf
            self.waste = leaf.waste
            self.time_to_best = elapsed
            self.history.append((elapsed, leaf.waste))
            return True

    def bound(self) -> Optional[int]:
        # stale reads only weaken pruning, never correctness
        return self.waste


@dataclass
class SearchResult:
    outcome: str  # "exhausted" | "timeout" | "memory" | "proved"
    nodes_expanded: int = 0
    discarded_any: bool = False
    iterations: int = 0
    final_capacity: Optional[int] = None


class _Clock:
    """Deadline ``time_limit`` seconds from now; ``elapsed`` counts from
    ``started`` (a ``time.monotonic()`` reading), by default also now."""

    __slots__ = ("start", "deadline")

    def __init__(self, time_limit: float, started: Optional[float] = None):
        now = time.monotonic()
        self.start = now if started is None else started
        self.deadline = now + time_limit

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


# An open child: its waste, its parent and the insertion that makes it.  It
# becomes a ``Node`` only when the search expands it; the root is
# (waste, root, None).
OpenChild = tuple[int, Node, Optional[Insertion]]


# Most open entries a run of ``Fringe`` holds before it splits in halves.  A
# pop_best plus two push_within calls on a full fringe of random keys (2
# vCPUs, CPython 3.11.7) took 1.2 / 1.7 / 3.5-3.9 us at capacity 64 / 10^4 /
# 10^5 with runs of 512, and within noise of that with runs of 256 or 1024;
# two lazy heaps took 3.4 / 4.2 / 6.9 us.
_RUN = 512


class Fringe:
    """Double-ended priority structure of open (guide, -items packed,
    counter, open child) entries; the counter makes every key unique.

    The entries are one sorted sequence cut into runs of at most ``_RUN``,
    each a sorted list: a push bisects the runs' last entries for its run
    and inserts there, the best entry is the first of the first run and
    the worst the last of the last one.  An empty run is dropped, and a
    full one splits in halves."""

    def __init__(self) -> None:
        self._runs: list[list[tuple]] = []
        self._lasts: list[tuple] = []  # the last entry of each run
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def entries(self) -> list[tuple]:
        """The open entries, best first."""
        return [entry for run in self._runs for entry in run]

    def push(self, entry: tuple) -> None:
        runs, lasts = self._runs, self._lasts
        self._len += 1
        i = bisect_left(lasts, entry)
        if i < len(lasts):
            run = runs[i]
            insort(run, entry)
        elif i:  # past every entry: the end of the last run
            i -= 1
            run = runs[i]
            run.append(entry)
            lasts[i] = entry
        else:
            runs.append([entry])
            lasts.append(entry)
            return
        if len(run) > _RUN:
            half = len(run) >> 1
            runs.insert(i + 1, run[half:])
            del run[half:]
            lasts.insert(i, run[-1])

    def push_within(self, capacity: int, entry: tuple) -> bool:
        """Push ``entry`` and keep the best ``capacity`` open entries: an
        entry worse than every open entry of a full fringe is not pushed,
        and otherwise the worst entry makes room for it.  True when the
        entry or an open one was discarded."""
        if self._len < capacity:
            self.push(entry)
            return False
        if entry > self._lasts[-1]:
            return True
        self.push(entry)
        self.pop_worst()
        return True

    def pop_best(self) -> OpenChild:
        run = self._runs[0]
        entry = run.pop(0)
        if not run:
            del self._runs[0]
            del self._lasts[0]
        self._len -= 1
        return entry[-1]

    def pop_worst(self) -> OpenChild:
        run = self._runs[-1]
        entry = run.pop()
        if run:
            self._lasts[-1] = run[-1]
        else:
            self._runs.pop()
            self._lasts.pop()
        self._len -= 1
        return entry[-1]


class _MinHeap(list):
    """Open list of a search without a capacity: a plain min-heap of
    (guide, -items packed, counter, open child) entries.  A ``list``
    subclass, so ``len()`` and the truth test run in C."""

    __slots__ = ()

    def push_within(self, capacity: Optional[int], entry: tuple) -> bool:
        """Push ``entry`` and discard nothing: ``Fringe.push_within`` for a
        search whose ``capacity`` is None."""
        heappush(self, entry)
        return False

    def pop_best(self) -> OpenChild:
        return heappop(self)[-1]


# Bytes per open node that the default cap charges every search.
# tracemalloc's peak over the peak open-list length (2 vCPUs, CPython 3.11):
# A* 1.2-1.4 KB on open lists of 15,000-42,000; DPA* 3.4-5.4 KB, but its open
# lists stayed at 1,800-3,400 in 20-30 s runs, as its store and expanded
# nodes, not its open list, grow with the run.
NODE_BYTES = 3400


def _default_node_cap(workers: int = 1) -> int:
    """Fringe size cap derived from available memory (coarse) at
    ``NODE_BYTES`` per node, 2,000,000 where it cannot be read; each of
    ``workers`` processes gets an equal share."""
    nodes = 2_000_000
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    nodes = int(line.split()[1]) * 1024 // NODE_BYTES
                    break
    except OSError:
        pass
    return max(100_000, min(nodes // workers, 20_000_000))


def _expander(
    instance: Instance,
    incumbent: Incumbent,
    clock: _Clock,
    guide: GuideKind,
    use_symmetry: bool,
    use_dominance: bool,
    admit: Optional[Callable[[tuple, tuple, tuple], bool]],
    memoize: bool = False,
) -> tuple[Callable[[Node], list[tuple]], Callable[[OpenChild], Node]]:
    """The child block of every search.

    ``expand(node)`` returns the kept children of ``node`` in generation
    order as open-list entries (guide key, -items packed, counter, open
    child), counting the kept children from 1, less those whose waste or
    ``waste_floor`` reaches the bound (both cuts are exact) and those that
    ``admit`` rejects; it builds and offers a complete child only when it
    improves the incumbent, and reads the bound once per expansion and again
    after each offer.  Waste, floor, key and admission all follow from the
    parent and the insertion, worked out in line but for ``guide_value``,
    so no child is built here.  ``build(open_child)`` makes the
    ``Node`` that the search expands.  ``memoize`` takes the kept
    insertions from the instance's child memo (``branching.child_memo``),
    for the searches that restart from the root."""
    offer, bound, elapsed = incumbent.offer, incumbent.bound, clock.elapsed
    apply = branching.apply_insertion
    height = instance.params.plate_height
    plate_area = instance.params.plate_width * height
    scale = guide_scale(instance.params)
    # a child's waste_floor is its floor area, below, plus this
    floor_offset = waste_floor(0, height, 0, instance.total_item_area)
    next_count = itertools.count(1).__next__  # the root's entry counts 0

    def expand(node: Node) -> list[tuple]:
        kept = []
        best = bound()
        node_item_area, node_packed = node.item_area, node.n_packed
        for ins in children(node, instance, use_symmetry, use_dominance, memoize):
            _, _, completes, pls, plate, x1_prev, x1_curr, y2_prev, y2_curr, _, x3_curr, _ = ins
            item_area = node_item_area
            for pl in pls:
                item_area += pl.width * pl.height
            # the area waste_floor counts, which a complete child covers
            floor_area = plate * plate_area + x1_curr * height
            area = floor_area if completes else (
                plate * plate_area + x1_prev * height + (x1_curr - x1_prev) * y2_prev
                + (x3_curr - x1_prev) * (y2_curr - y2_prev))
            waste = area - item_area
            if best is not None and (waste >= best or floor_area + floor_offset >= best):
                continue
            if completes:
                offer(apply(node, ins, instance), elapsed())
                best = bound()
                continue
            if admit is not None and not admit(
                counts_after(node.counts, ins), depths_after(ins), insertion_front(ins)
            ):
                continue
            n_packed = node_packed + len(pls)
            key = guide_value(waste, area, item_area, n_packed, guide, scale)
            kept.append((key, -n_packed, next_count(), (waste, node, ins)))
        return kept

    def build(child: OpenChild) -> Node:
        _, parent, ins = child
        return parent if ins is None else apply(parent, ins, instance)

    return expand, build


def _best_first(
    root: Node,
    instance: Instance,
    guide: GuideKind,
    time_limit: float,
    incumbent: Incumbent,
    use_symmetry: bool,
    use_dominance: bool,
    capacity: Optional[int] = None,
    node_cap: Optional[int] = None,
    admit: Optional[Callable[[tuple, tuple, tuple], bool]] = None,
    started: Optional[float] = None,
) -> SearchResult:
    """The best-first loop of A*, MBA* and DPA*: expand the open node of
    smallest (guide, -items packed, age) key until none is left.  With a
    ``capacity`` only the best ``capacity`` open nodes are kept: a child
    that a full fringe would discard at once is never pushed
    (``Fringe.push_within``).  Without one the open nodes are a plain
    min-heap, and the search ends with "memory" once more than ``node_cap``
    are open.
    Only a search with a ``capacity`` uses the child memo: MBA* is restarted
    from the same root, while DPA*'s store already rejects every front it
    meets again.  Open nodes are children not built yet; a popped one is
    built only when the bound does not prune it.  Under the waste guide the popped key is
    the node's waste, so the first node the bound prunes ends the search:
    the bound prunes every open node."""
    clock = _Clock(time_limit, started)
    if root.complete:
        incumbent.offer(root, clock.elapsed())
        return SearchResult("exhausted", 0)
    # a capped fringe never holds more than its capacity
    fringe, open_max = (_MinHeap(), node_cap) if capacity is None else (Fringe(), capacity)
    push_within, pop_best, bound = fringe.push_within, fringe.pop_best, incumbent.bound
    expand, build = _expander(instance, incumbent, clock, guide, use_symmetry, use_dominance,
                              admit, memoize=capacity is not None)
    expanded = 0
    discarded = False
    push_within(capacity, (0, 0, 0, (root.waste, root, None)))  # the only open node
    while fringe:
        if clock.expired():
            return SearchResult("timeout", expanded, discarded)
        child = pop_best()
        best = bound()
        if best is not None and child[0] >= best:  # child[0]: its waste
            if guide is _WASTE:
                break
            continue
        node = build(child)
        expanded += 1
        for entry in expand(node):
            if push_within(capacity, entry):
                discarded = True
        if len(fringe) > open_max:
            return SearchResult("memory", expanded)
    return SearchResult("exhausted", expanded, discarded)


def astar(
    root: Node,
    instance: Instance,
    guide: GuideKind,
    time_limit: float,
    incumbent: Incumbent,
    use_symmetry: bool = True,
    use_dominance: bool = True,
    node_cap: Optional[int] = None,
) -> SearchResult:
    """Plain best-first search; reports "memory" once more than ``node_cap``
    nodes are open (by default a share of the available memory)."""
    cap = node_cap if node_cap is not None else _default_node_cap()
    return _best_first(
        root, instance, guide, time_limit, incumbent, use_symmetry, use_dominance, node_cap=cap,
    )


def mba_star(
    root: Node,
    instance: Instance,
    guide: GuideKind,
    capacity: int,
    time_limit: float,
    incumbent: Incumbent,
    use_symmetry: bool = True,
    use_dominance: bool = True,
    started: Optional[float] = None,
) -> SearchResult:
    """A* with a bounded fringe: worst nodes are discarded beyond ``capacity``.

    Incumbent improvements are stamped with the seconds since ``started``
    (a ``time.monotonic()`` reading), by default since this call began.
    The child memo is first fitted to ``capacity``."""
    if capacity < 1:
        raise ValueError("fringe capacity must be at least 1")
    branching.fit_child_memo(instance, capacity)
    return _best_first(
        root, instance, guide, time_limit, incumbent, use_symmetry, use_dominance,
        capacity=capacity, started=started,
    )


def next_capacity(capacity: int, growth: Fraction) -> int:
    """Strictly growing restart schedule, even for factors just above 1."""
    return max(capacity + 1, math.ceil(capacity * growth))


def restarting_mba_star(
    root: Node,
    instance: Instance,
    guide: GuideKind,
    growth: Union[float, str, Fraction],
    time_limit: float,
    incumbent: Incumbent,
    capacity_init: int = 2,
    use_symmetry: bool = True,
    use_dominance: bool = True,
    node_cap: Optional[int] = None,
) -> SearchResult:
    """MBA* restarted with geometrically growing capacity.

    The incumbent carries across restarts, so later iterations prune with the
    best waste found by earlier ones.  An iteration that explored its whole
    tree without discarding proves optimality within the scheme.  Incumbent
    improvements are stamped with the seconds since this call began.  The
    search stops with outcome "memory" when the next capacity would exceed
    ``node_cap`` (by default a share of the available memory).
    """
    growth = Fraction(str(growth)) if not isinstance(growth, Fraction) else growth
    if growth <= 1:
        raise ValueError("growth factor must exceed 1")
    clock = _Clock(time_limit)
    cap = node_cap if node_cap is not None else _default_node_cap()
    capacity = capacity_init
    expanded = 0
    iterations = 0
    while not clock.expired():
        if capacity > cap:
            return SearchResult("memory", expanded, True, iterations, capacity)
        # called through the module, where a tracer can count the restarts
        res = mba_star(
            root,
            instance,
            guide,
            capacity,
            clock.deadline - time.monotonic(),
            incumbent,
            use_symmetry=use_symmetry,
            use_dominance=use_dominance,
            started=clock.start,
        )
        expanded += res.nodes_expanded
        iterations += 1
        if res.outcome == "timeout":
            return SearchResult("timeout", expanded, True, iterations, capacity)
        if not res.discarded_any:
            return SearchResult("proved", expanded, False, iterations, capacity)
        capacity = next_capacity(capacity, growth)
    return SearchResult("timeout", expanded, True, iterations, capacity)


def iterative_beam_search(
    root: Node,
    instance: Instance,
    guide: GuideKind,
    time_limit: float,
    incumbent: Incumbent,
    width_init: int = 2,
    use_symmetry: bool = True,
    use_dominance: bool = True,
    node_cap: Optional[int] = None,
) -> SearchResult:
    """Level-synchronous beam with doubling width, restarted until timeout
    or, with outcome "memory", until the width would exceed ``node_cap``.

    Each level keeps the best ``width`` children of the level before it,
    selected while they are generated: at most ``width + 1`` of a level's
    children are held at once, plus those of the node being expanded.  A
    kept child is built when it is expanded."""
    if width_init < 1:
        raise ValueError("beam width must be at least 1")
    clock = _Clock(time_limit)
    cap = node_cap if node_cap is not None else _default_node_cap()
    width = width_init
    expanded = 0
    iterations = 0
    if root.complete:
        incumbent.offer(root, clock.elapsed())
        return SearchResult("exhausted", 0)
    expand, build = _expander(instance, incumbent, clock, guide, use_symmetry, use_dominance,
                              None, memoize=True)

    def level_children(level: list[OpenChild]):
        nonlocal expanded
        for child in level:
            bound = incumbent.bound()  # read anew: expanding a node may improve it
            if bound is not None and child[0] >= bound:
                continue
            expanded += 1
            yield from expand(build(child))

    while not clock.expired():
        if width > cap:
            return SearchResult("memory", expanded, True, iterations, width)
        branching.fit_child_memo(instance, width)
        level = [(root.waste, root, None)]
        truncated = False
        while level:
            if clock.expired():
                return SearchResult("timeout", expanded, True, iterations, width)
            # as sorted(...)[:width + 1] on (guide, -items packed), ties in
            # generation order, but holding at most width + 1 children; the
            # extra one marks a truncated level
            best = nsmallest(width + 1, level_children(level), key=itemgetter(0, 1))
            if len(best) > width:
                truncated = True
                best.pop()
            level = [child for _, _, _, child in best]
        iterations += 1
        if not truncated:
            return SearchResult("exhausted", expanded, False, iterations, width)
        width *= 2
    return SearchResult("timeout", expanded, True, iterations, width)


# ---------------------------------------------------------------------------
# DPA*

class DominanceStore:
    """Non-dominated fronts per (chain-1 consumed, chain-2 consumed) state.

    Fronts are only compared within the same plate index and the same
    allowed next insertion depths (both are part of what a front can
    actually reach); entries dominated by a newcomer are evicted, so the
    fronts of a bucket are pairwise incomparable.  Each is kept as the
    profile that ``admit_front`` records.  This is the paper's
    pseudo-dominance rule: it can prune the scheme optimum."""

    def __init__(self) -> None:
        self._by_state: dict[tuple, list[tuple]] = {}
        self.size = 0  # fronts recorded, over all buckets

    def admit(self, counts: tuple, depths: tuple, front: tuple) -> bool:
        """Record ``front`` of a node with these chain ``counts`` and next
        insertion ``depths`` unless a recorded one dominates it: one scan of
        the bucket (``admit_front``) rejects it or evicts the fronts it
        dominates."""
        bucket = (counts, depths, front[0])
        entries = self._by_state.get(bucket)
        if entries is None:
            entries = self._by_state[bucket] = []
        evicted = admit_front(entries, front)
        if evicted < 0:
            return False
        self.size += 1 - evicted
        return True


def dpa_star(
    root: Node,
    instance: Instance,
    time_limit: float,
    incumbent: Incumbent,
    node_cap: Optional[int] = None,
) -> SearchResult:
    """Waste-guided A* with front memoization, for at most two chains.

    Symmetry breaking stays off here: it exists to compensate for the lack
    of a global dominance store, which this search does have, and keeping it
    off leaves the result closer to the scheme optimum."""
    if len(instance.chains) > 2:
        raise ChainCountError("CHAIN_COUNT DPA* handles at most two chains")
    cap = node_cap if node_cap is not None else _default_node_cap()
    store = DominanceStore()
    store.admit(root.counts, _allowed_depths(root), root.front_key())
    return _best_first(
        root, instance, _WASTE, time_limit, incumbent, use_symmetry=False, use_dominance=True,
        node_cap=cap, admit=store.admit,
    )


# ---------------------------------------------------------------------------
# portfolio of workers

PORTFOLIO = (
    (GuideKind.WASTE_PERCENTAGE, Fraction("1.33")),
    (GuideKind.WASTE_PERCENTAGE, Fraction("1.5")),
    (GuideKind.WASTE_PERCENTAGE_OVER_MEAN_ITEM_AREA, Fraction("1.33")),
    (GuideKind.WASTE_PERCENTAGE_OVER_MEAN_ITEM_AREA, Fraction("1.5")),
)


# Worker count of the portfolio: the paper's four, or one per CPU if fewer.
DEFAULT_THREADS = min(4, os.cpu_count() or 1)
# Seconds a worker process may take past the deadline to report its result
# before it is terminated.
WORKER_GRACE_S = 0.5
# Longest single wait for a worker's message, in seconds.
_WAIT_SLICE_S = 3600.0


def portfolio_solve(
    instance: Instance,
    time_limit: float,
    threads: int = DEFAULT_THREADS,
    use_symmetry: bool = True,
    capacity_init: int = 2,
    guide: Optional[GuideKind] = None,
    growth: Optional[Union[float, str, Fraction]] = None,
    algorithm: str = "auto",
    node_cap: Optional[int] = None,
) -> tuple[Incumbent, list[SearchResult]]:
    """Entry point mirroring the competition setup.

    ``auto`` runs DPA* on instances with at most two chains (falling back to
    the MBA* portfolio on a memory break, with an INFO event on the
    ``glasscut.search`` logger) and otherwise the MBA* portfolio: one
    restarting MBA* per distinct (guide, growth) entry of the first
    ``threads`` of ``PORTFOLIO``, where explicit ``guide`` / ``growth``
    settings override every entry.  ``astar`` and ``ibs`` run one search.
    ``_run_portfolio`` runs the searches.  ``node_cap`` caps the open nodes
    of DPA* and A*, the width of IBS and the capacity of each MBA* worker.
    """
    incumbent = Incumbent()
    root = root_node(instance)
    clock = _Clock(time_limit)

    if algorithm == "auto":
        algorithm = "dpastar" if len(instance.chains) <= 2 else "mbastar"

    if algorithm == "dpastar":
        try:
            res = dpa_star(root, instance, time_limit, incumbent, node_cap=node_cap)
        except ChainCountError as exc:
            reason = str(exc)
        else:
            if res.outcome != "memory":
                return incumbent, [res]
            reason = "memory"
        # fall back to the portfolio with whatever time remains, as an INFO
        # event, off unless the caller configures logging; imported here, as
        # only a fallback needs it: the logging module adds about 0.7 MB to a
        # process's memory
        import logging

        logging.getLogger(__name__).info(
            "DPA* falls back to the MBA* portfolio (%s) with %.3f s left",
            reason, max(0.0, clock.deadline - time.monotonic()))
        algorithm = "mbastar"
    # prepared per call, so a search that a tracer or a test patched runs
    if algorithm == "astar":
        searches = [partial(astar, root, instance, guide or GuideKind.WASTE,
                            use_symmetry=use_symmetry, node_cap=node_cap)]
    elif algorithm == "ibs":
        searches = [partial(iterative_beam_search, root, instance,
                            guide or GuideKind.WASTE_PERCENTAGE,
                            use_symmetry=use_symmetry, node_cap=node_cap)]
    elif algorithm == "mbastar":
        # one worker per distinct configuration: a second worker with the
        # same guide, growth, root and bound would repeat the first one's search
        fixed_growth = Fraction(str(growth)) if growth is not None else None
        configs = []
        for g, gr in PORTFOLIO[:max(1, threads)]:
            config = (guide or g, gr if fixed_growth is None else fixed_growth)
            if config not in configs:
                configs.append(config)
        cap = node_cap if node_cap is not None else _default_node_cap(len(configs))
        searches = [partial(restarting_mba_star, root, instance, g, gr,
                            capacity_init=capacity_init, use_symmetry=use_symmetry,
                            node_cap=cap) for g, gr in configs]
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return _run_portfolio(instance, root, clock, searches, incumbent)


# A search with every setting bound but its time limit and its incumbent.
Search = Callable[[float, Incumbent], SearchResult]


def _run_portfolio(instance: Instance, root: Node, clock: _Clock, searches: list[Search],
                   incumbent: Incumbent) -> tuple[Incumbent, list[SearchResult]]:
    """Run ``searches`` on the time left: a single one in this process,
    deterministically; several as one worker process each, which share the
    best waste as their bound and whose leaves the parent rebuilds from
    ``root`` and offers to ``incumbent``."""
    if len(searches) == 1:
        return incumbent, [searches[0](max(0.0, clock.deadline - time.monotonic()), incumbent)]

    # imported here, as only a multi-worker portfolio needs them: the
    # multiprocessing modules add about 1.6 MB to a process's memory
    import multiprocessing

    # a search of a module-level function on picklable arguments pickles,
    # so any start method works
    ctx = multiprocessing.get_context()
    # the best waste of any worker, -1 before the first solution; it starts
    # from the caller's incumbent (DPA*'s, after a fallback)
    shared = ctx.Value("q", -1 if incumbent.waste is None else incumbent.waste)
    workers: list[tuple] = []
    try:
        for search in searches:
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_portfolio_worker, daemon=True,
                               args=(search, clock.deadline, shared, writer))
            proc.start()
            writer.close()  # so the worker's exit closes the pipe
            workers.append((proc, reader))
        results = _collect_workers(workers, instance, root, clock, incumbent)
    finally:
        for proc, reader in workers:
            if proc.is_alive():
                proc.terminate()
            proc.join()
            reader.close()
    return incumbent, [r for r in results if r is not None]


class _SharedBound:
    """A worker process's side of the portfolio incumbent.

    ``bound`` reads the shared best waste without a lock: a stale read only
    weakens pruning.  ``offer`` sets it under the lock if the leaf improves
    and then sends the leaf to the parent as its insertions from the root;
    the parent rebuilds the ``Node`` chain."""

    def __init__(self, shared, conn) -> None:
        self._shared = shared
        self._best = shared.get_obj()
        self._conn = conn

    def bound(self) -> Optional[int]:
        waste = self._best.value
        return None if waste < 0 else waste

    def offer(self, leaf: Node, elapsed: float) -> bool:
        with self._shared.get_lock():
            best = self._best.value
            if 0 <= best <= leaf.waste:
                return False
            self._best.value = leaf.waste
        insertions = []
        while leaf.parent is not None:
            insertions.append(leaf.insertion)
            leaf = leaf.parent
        self._conn.send(("leaf", tuple(reversed(insertions))))
        return True


def _portfolio_worker(search: Search, deadline: float, shared, conn) -> None:
    """One worker process: ``search`` until ``deadline`` (a
    ``time.monotonic()`` reading), then its result or its exception."""
    try:
        conn.send(("done", search(deadline - time.monotonic(), _SharedBound(shared, conn))))
    except Exception as exc:
        import traceback

        text = traceback.format_exc()
        try:
            conn.send(("error", exc, text))
        except Exception:  # the exception itself does not pickle
            conn.send(("error", RuntimeError(repr(exc)), text))
    finally:
        conn.close()


def _collect_workers(
    workers: list[tuple],
    instance: Instance,
    root: Node,
    clock: _Clock,
    incumbent: Incumbent,
) -> list[Optional[SearchResult]]:
    """Offer each leaf the workers send to ``incumbent``, stamped with the
    parent's clock, until every worker has reported or the grace period
    after the deadline is over.  A worker's exception is raised here, as is
    an error for a worker that ended without a result.

    A worker holds the only write end of its pipe, so the end of the pipe
    is the worker's exit."""
    from multiprocessing.connection import wait

    results: list[Optional[SearchResult]] = [None] * len(workers)
    waiting = {reader: i for i, (_proc, reader) in enumerate(workers)}
    while waiting:
        left = clock.deadline + WORKER_GRACE_S - time.monotonic()
        # bounded slices: the wait takes whole milliseconds as a C int
        ready = wait(list(waiting), min(max(0.0, left), _WAIT_SLICE_S))
        if not ready and left <= _WAIT_SLICE_S:
            break  # the workers still running get terminated
        for reader in ready:
            i = waiting[reader]
            try:
                kind, *payload = reader.recv()
            except EOFError:
                proc = workers[i][0]
                proc.join()
                raise RuntimeError(
                    f"portfolio worker {i} exited with code {proc.exitcode} without a result"
                ) from None
            if kind == "leaf":
                leaf = root
                for ins in payload[0]:
                    leaf = branching.apply_insertion(leaf, ins, instance)
                incumbent.offer(leaf, clock.elapsed())
            elif kind == "done":
                results[i] = payload[0]
                del waiting[reader]
            else:
                exc, text = payload
                raise exc from RuntimeError(f"in portfolio worker {i}:\n{text}")
    return results
