"""Tree search algorithms over the insertion scheme.

All searches share the same ingredients: a guide function orders the open
nodes, complete leaves go to a common incumbent, and nodes whose waste
already reaches the incumbent's are cut (waste never decreases along a
branch, so this pruning is exact).

* ``astar`` expands the best node until the fringe is empty.
* ``mba_star`` is A* that additionally discards the *worst* open nodes
  whenever the fringe exceeds a capacity D: D=1 degenerates to a greedy
  descent, unbounded D is plain A*.
* ``restarting_mba_star`` reruns MBA* with geometrically growing D; an
  iteration that never discarded anything and still emptied its fringe is a
  proof of optimality within the scheme, so the loop stops.
* ``iterative_beam_search`` is the width-doubling level-synchronous baseline.
* ``dpa_star`` handles instances with at most two chains: it memoizes, per
  (chain-1 consumed, chain-2 consumed) state, the non-dominated fronts seen
  so far and prunes any newly generated node some stored front dominates.
* ``portfolio_solve`` runs several restarting-MBA* workers, one process
  each, that share the incumbent's waste as their pruning bound.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Optional, Union

from .model import GlasscutError, GuideKind, Instance, Node, front_key_leq, root_node
from .branching import apply_insertion, children

class ChainCountError(GlasscutError):
    """Raised when DPA* is asked to solve an instance with over two chains."""


class Ratio:
    """Exact non-negative rational ordered by cross-multiplication.

    Cheaper than Fraction in the fringe hot path (no normalization, no
    numeric-tower dispatch); comparisons against ints, floats and Fractions
    still work for convenience."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        self.num = num
        self.den = den

    def __lt__(self, other) -> bool:
        if type(other) is Ratio:
            return self.num * other.den < other.num * self.den
        return self.num < other * self.den

    def __eq__(self, other) -> bool:
        if type(other) is Ratio:
            return self.num * other.den == other.num * self.den
        return self.num == other * self.den

    def __gt__(self, other) -> bool:
        if type(other) is Ratio:
            return self.num * other.den > other.num * self.den
        return self.num > other * self.den

    def __le__(self, other) -> bool:
        return not self.__gt__(other)

    def __ge__(self, other) -> bool:
        return not self.__lt__(other)

    def __neg__(self) -> "Ratio":
        return Ratio(-self.num, self.den)

    def __repr__(self) -> str:
        return f"Ratio({self.num}/{self.den})"

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)


Number = Union[int, Ratio]


def guide_value(node: Node, kind: GuideKind) -> Number:
    """Ordering key of a node; exact arithmetic, zero on the empty root."""
    if kind is GuideKind.WASTE:
        return node.waste
    if node.area == 0:
        return Ratio(0, 1)
    if kind is GuideKind.WASTE_PERCENTAGE:
        return Ratio(node.waste, node.area)
    if node.n_packed == 0:
        return Ratio(0, 1)
    # waste percentage divided by the mean packed item area
    return Ratio(node.waste * node.n_packed, node.area * node.item_area)


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


class Fringe:
    """Double-ended priority structure over (guide, -items packed, counter).

    Two lazy heaps share one live-entry table; stale heap entries are skipped
    on pop and compacted away when they outnumber the live ones.
    """

    def __init__(self) -> None:
        self._min: list[tuple] = []
        self._max: list[tuple] = []
        self._live: dict[int, tuple] = {}  # counter -> (key, node)

    def __len__(self) -> int:
        return len(self._live)

    def push(self, key: tuple, node: Node) -> None:
        counter = key[-1]
        self._live[counter] = (key, node)
        heappush(self._min, key)
        heappush(self._max, tuple(-k for k in key))

    def pop_best(self) -> Node:
        while True:
            key = heappop(self._min)
            entry = self._live.pop(key[-1], None)
            if entry is not None:
                self._maybe_compact()
                return entry[1]

    def pop_worst(self) -> Node:
        while True:
            neg = heappop(self._max)
            entry = self._live.pop(-neg[-1], None)
            if entry is not None:
                self._maybe_compact()
                return entry[1]

    def _maybe_compact(self) -> None:
        dead = len(self._min) + len(self._max) - 2 * len(self._live)
        if dead > 2 * len(self._live) + 1024:
            keys = [key for key, _ in self._live.values()]
            self._min = keys[:]
            self._max = [tuple(-k for k in key) for key in keys]
            heapify(self._min)
            heapify(self._max)


# Bytes per live MBA* node, parents included, as tracemalloc measures it
# (perfbench's model.bytes_per_node); DPA* nodes take about a third of this.
NODE_BYTES = 4500


def _default_node_cap(workers: int = 1) -> int:
    """Fringe size cap derived from available memory (coarse); each of
    ``workers`` processes gets an equal share."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    kib = int(line.split()[1])
                    nodes = kib * 1024 // (NODE_BYTES * workers)
                    return max(100_000, min(nodes, 20_000_000))
    except OSError:
        pass
    return 2_000_000


def astar(
    root: Node,
    instance: Instance,
    guide: GuideKind,
    time_limit: float,
    incumbent: Incumbent,
    use_symmetry: bool = True,
    use_dominance: bool = True,
    bound_pruning: bool = True,
    node_cap: Optional[int] = None,
) -> SearchResult:
    """Plain best-first search; reports "memory" when the fringe hits the cap."""
    clock = _Clock(time_limit)
    cap = node_cap if node_cap is not None else _default_node_cap()
    heap: list[tuple] = []
    counter = 0
    expanded = 0
    if root.complete:
        incumbent.offer(root, clock.elapsed())
        return SearchResult("exhausted", 0)
    heappush(heap, (guide_value(root, guide), 0, counter, root))
    while heap:
        if clock.expired():
            return SearchResult("timeout", expanded)
        _, _, _, node = heappop(heap)
        bound = incumbent.bound()
        if bound_pruning and bound is not None and node.waste >= bound:
            continue
        expanded += 1
        for child in children(node, instance, use_symmetry, use_dominance):
            if child.complete:
                incumbent.offer(child, clock.elapsed())
                continue
            if bound_pruning:
                bound = incumbent.bound()
                if bound is not None and child.waste >= bound:
                    continue
            counter += 1
            heappush(heap, (guide_value(child, guide), -child.n_packed, counter, child))
        if len(heap) > cap:
            return SearchResult("memory", expanded)
    return SearchResult("exhausted", expanded)


def mba_star(
    root: Node,
    instance: Instance,
    guide: GuideKind,
    capacity: int,
    time_limit: float,
    incumbent: Incumbent,
    use_symmetry: bool = True,
    use_dominance: bool = True,
    bound_pruning: bool = True,
    trace: Optional[list] = None,
    started: Optional[float] = None,
) -> SearchResult:
    """A* with a bounded fringe: worst nodes are discarded beyond ``capacity``.

    Incumbent improvements are stamped with the seconds since ``started``
    (a ``time.monotonic()`` reading), by default since this call began."""
    if capacity < 1:
        raise ValueError("fringe capacity must be at least 1")
    clock = _Clock(time_limit, started)
    fringe = Fringe()
    counter = 0
    expanded = 0
    discarded = False
    if root.complete:
        incumbent.offer(root, clock.elapsed())
        return SearchResult("exhausted", 0)
    fringe.push((guide_value(root, guide), 0, counter), root)
    while len(fringe):
        if clock.expired():
            return SearchResult("timeout", expanded, discarded)
        node = fringe.pop_best()
        bound = incumbent.bound()
        if bound_pruning and bound is not None and node.waste >= bound:
            continue
        expanded += 1
        if trace is not None:
            trace.append(node)
        for child in children(node, instance, use_symmetry, use_dominance):
            if child.complete:
                incumbent.offer(child, clock.elapsed())
                continue
            if bound_pruning:
                bound = incumbent.bound()
                if bound is not None and child.waste >= bound:
                    continue
            counter += 1
            fringe.push((guide_value(child, guide), -child.n_packed, counter), child)
        while len(fringe) > capacity:
            fringe.pop_worst()
            discarded = True
    return SearchResult("exhausted", expanded, discarded)


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
) -> SearchResult:
    """Level-synchronous beam with doubling width, restarted until timeout."""
    clock = _Clock(time_limit)
    width = width_init
    expanded = 0
    iterations = 0
    if root.complete:
        incumbent.offer(root, clock.elapsed())
        return SearchResult("exhausted", 0)
    while not clock.expired():
        level = [root]
        truncated = False
        counter = 0
        while level:
            if clock.expired():
                return SearchResult("timeout", expanded, True, iterations, width)
            scored: list[tuple] = []
            for node in level:
                bound = incumbent.bound()
                if bound is not None and node.waste >= bound:
                    continue
                expanded += 1
                for child in children(node, instance, use_symmetry, use_dominance):
                    if child.complete:
                        incumbent.offer(child, clock.elapsed())
                        continue
                    bound = incumbent.bound()
                    if bound is not None and child.waste >= bound:
                        continue
                    counter += 1
                    scored.append((guide_value(child, guide), -child.n_packed, counter, child))
            scored.sort(key=lambda t: t[:3])
            if len(scored) > width:
                truncated = True
                scored = scored[:width]
            level = [t[3] for t in scored]
        iterations += 1
        if not truncated:
            return SearchResult("exhausted", expanded, False, iterations, width)
        width *= 2
    return SearchResult("timeout", expanded, True, iterations, width)


# ---------------------------------------------------------------------------
# DPA*

def _pending_mode(node: Node) -> Optional[int]:
    """Forced next-insertion depth, if any (these restrict continuations, so
    nodes in different modes must not dominate one another)."""
    if node.last_was_waste:
        return max(1, node.last_depth)
    if node.last_was_two and node.last_depth != 3:
        return 3
    return None


class DominanceStore:
    """Non-dominated fronts per (chain-1 consumed, chain-2 consumed) state.

    Fronts are only compared within the same plate index and the same pending
    insertion mode (both are part of what a front can actually reach);
    entries dominated by a newcomer are evicted."""

    def __init__(self) -> None:
        self._by_state: dict[tuple, list[tuple]] = {}
        self.size = 0

    def admit(self, node: Node) -> bool:
        front = node.front_key()
        bucket = (node.counts, _pending_mode(node), node.bin)
        entries = self._by_state.get(bucket)
        if entries is None:
            self._by_state[bucket] = [front]
            self.size += 1
            return True
        for e in entries:
            if front_key_leq(e, front):
                return False
        kept = [e for e in entries if not front_key_leq(front, e)]
        self.size -= len(entries) - len(kept)
        kept.append(front)
        self.size += 1
        self._by_state[bucket] = kept
        return True


def dpa_star(
    root: Node,
    instance: Instance,
    time_limit: float,
    incumbent: Incumbent,
    use_symmetry: bool = False,
    node_cap: Optional[int] = None,
) -> SearchResult:
    """Waste-guided A* with front memoization, for at most two chains.

    Symmetry breaking stays off here: it exists to compensate for the lack
    of a global dominance store, which this search does have, and keeping it
    off leaves the result closer to the scheme optimum."""
    if len(instance.chains) > 2:
        raise ChainCountError("CHAIN_COUNT DPA* handles at most two chains")
    clock = _Clock(time_limit)
    cap = node_cap if node_cap is not None else _default_node_cap()
    store = DominanceStore()
    heap: list[tuple] = []
    counter = 0
    expanded = 0
    if root.complete:
        incumbent.offer(root, clock.elapsed())
        return SearchResult("exhausted", 0)
    store.admit(root)
    heappush(heap, (root.waste, 0, counter, root))
    while heap:
        if clock.expired():
            return SearchResult("timeout", expanded)
        waste, _, _, node = heappop(heap)
        bound = incumbent.bound()
        if bound is not None and waste >= bound:
            # the guide is the bound itself: everything left is no better
            return SearchResult("exhausted", expanded)
        expanded += 1
        for child in children(node, instance, use_symmetry):
            if child.complete:
                incumbent.offer(child, clock.elapsed())
                continue
            bound = incumbent.bound()
            if bound is not None and child.waste >= bound:
                continue
            if not store.admit(child):
                continue
            counter += 1
            heappush(heap, (child.waste, -child.n_packed, counter, child))
        if len(heap) > cap:
            return SearchResult("memory", expanded)
    return SearchResult("exhausted", expanded)


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
    the MBA* portfolio on a memory break) and otherwise the restarting-MBA*
    portfolio: ``threads`` workers, one process each when there are several,
    that share the best waste as their bound.  ``threads=1`` searches in the
    calling process and is deterministic.  Explicit ``guide`` / ``growth``
    settings override the portfolio entry of each worker; ``node_cap`` caps
    the fringe of DPA* and A* and the capacity of each MBA* worker.
    """
    incumbent = Incumbent()
    root = root_node(instance)
    clock = _Clock(time_limit)

    if algorithm == "auto":
        algorithm = "dpastar" if len(instance.chains) <= 2 else "mbastar"

    if algorithm == "dpastar":
        try:
            res = dpa_star(root, instance, time_limit, incumbent, node_cap=node_cap)
        except ChainCountError:
            res = None
        if res is not None and res.outcome != "memory":
            return incumbent, [res]
        # fall back to the portfolio with whatever time remains
        return _run_portfolio(
            instance, root, clock, threads, use_symmetry, capacity_init, guide, growth,
            incumbent, node_cap,
        )

    if algorithm == "astar":
        res = astar(root, instance, guide or GuideKind.WASTE, time_limit, incumbent, use_symmetry, node_cap=node_cap)
        return incumbent, [res]
    if algorithm == "ibs":
        res = iterative_beam_search(
            root, instance, guide or GuideKind.WASTE_PERCENTAGE, time_limit, incumbent,
            use_symmetry=use_symmetry,
        )
        return incumbent, [res]
    if algorithm == "mbastar":
        return _run_portfolio(
            instance, root, clock, threads, use_symmetry, capacity_init, guide, growth,
            incumbent, node_cap,
        )
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _run_portfolio(
    instance: Instance,
    root: Node,
    clock: _Clock,
    threads: int,
    use_symmetry: bool,
    capacity_init: int,
    guide: Optional[GuideKind],
    growth: Optional[Union[float, str, Fraction]],
    incumbent: Incumbent,
    node_cap: Optional[int],
) -> tuple[Incumbent, list[SearchResult]]:
    configs = []
    for i in range(max(1, threads)):
        g, gr = PORTFOLIO[i % len(PORTFOLIO)]
        configs.append((guide or g, Fraction(str(growth)) if growth is not None else gr))

    if len(configs) == 1:
        res = restarting_mba_star(
            root, instance, *configs[0], max(0.0, clock.deadline - time.monotonic()),
            incumbent, capacity_init=capacity_init, use_symmetry=use_symmetry,
            node_cap=node_cap,
        )
        return incumbent, [res]

    # imported here, as only a multi-worker portfolio needs them: the
    # multiprocessing modules add about 1.6 MB to a process's memory
    import multiprocessing

    # workers get only picklable arguments, so any start method works
    ctx = multiprocessing.get_context()
    # the best waste of any worker, -1 before the first solution; it starts
    # from the caller's incumbent (DPA*'s, after a fallback)
    shared = ctx.Value("q", -1 if incumbent.waste is None else incumbent.waste)
    cap = node_cap if node_cap is not None else _default_node_cap(len(configs))
    workers: list[tuple] = []
    try:
        for g, gr in configs:
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_portfolio_worker,
                args=(instance, root, g, gr, capacity_init, use_symmetry, cap,
                      clock.deadline, shared, writer),
                daemon=True,
            )
            proc.start()
            writer.close()  # so the worker's exit closes the pipe
            workers.append((proc, reader))
        results = _collect_workers(workers, root, clock, incumbent)
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


def _portfolio_worker(
    instance: Instance,
    root: Node,
    guide: GuideKind,
    growth: Fraction,
    capacity_init: int,
    use_symmetry: bool,
    node_cap: int,
    deadline: float,
    shared,
    conn,
) -> None:
    """One worker process: restarting MBA* until ``deadline`` (a
    ``time.monotonic()`` reading), then its result or its exception."""
    try:
        res = restarting_mba_star(
            root, instance, guide, growth, deadline - time.monotonic(),
            _SharedBound(shared, conn), capacity_init=capacity_init,
            use_symmetry=use_symmetry, node_cap=node_cap,
        )
        conn.send(("done", res))
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
    root: Node,
    clock: _Clock,
    incumbent: Incumbent,
) -> list[Optional[SearchResult]]:
    """Offer each leaf the workers send to ``incumbent``, stamped with the
    parent's clock, until every worker has reported or the grace period
    after the deadline is over.  A worker's exception is raised here, as is
    an error for a worker that ended without a result."""
    from multiprocessing.connection import wait

    results: list[Optional[SearchResult]] = [None] * len(workers)
    waiting = {}  # pipe or process sentinel -> worker index
    for i, (proc, reader) in enumerate(workers):
        waiting[reader] = waiting[proc.sentinel] = i

    def receive(i: int) -> None:
        kind, *payload = workers[i][1].recv()
        if kind == "leaf":
            leaf = root
            for ins in payload[0]:
                leaf = apply_insertion(leaf, ins)
            incumbent.offer(leaf, clock.elapsed())
        elif kind == "done":
            results[i] = payload[0]
        else:
            exc, text = payload
            raise exc from RuntimeError(f"in portfolio worker {i}:\n{text}")

    while waiting:
        timeout = clock.deadline + WORKER_GRACE_S - time.monotonic()
        ready = wait(list(waiting), max(0.0, timeout))
        if not ready:
            break  # the workers still running get terminated
        for obj in ready:
            i = waiting.get(obj)
            if i is None:
                continue
            proc, reader = workers[i]
            if obj is reader:
                try:
                    receive(i)
                except EOFError:
                    del waiting[reader]
            else:
                # the process has ended, so the pipe holds all it sent
                while results[i] is None and reader.poll():
                    try:
                        receive(i)
                    except EOFError:
                        break
                if results[i] is None:
                    raise RuntimeError(
                        f"portfolio worker {i} exited with code {proc.exitcode} "
                        "without a result"
                    )
            if results[i] is not None:
                waiting = {k: v for k, v in waiting.items() if v != i}
    return results
