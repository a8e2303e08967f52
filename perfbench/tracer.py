"""Span tracing of the program's layers, done from the benchmark's side.

``traced(tracer)`` assigns timing wrappers to the module and class
attributes the program calls through (``glasscut.search.children``,
``glasscut.branching.symmetry_allows``, ``Fringe.push``, ...) and puts the
originals back on exit. A span holds its id, name, start, end, parent span
and thread; spans stay in memory (up to ``SPAN_CAP`` per thread, the rest
only counted) and are written out by the caller when the run ends. Every
call, kept or not, feeds the per-name call count, total time and self time,
where self time is the span's duration minus the time of the spans it
directly caused in the same thread.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import threading
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterator

from glasscut import branching, fileio, model, search, solution, validator

SPAN_CAP = 20_000


class _ThreadState:
    def __init__(self, thread_id: int) -> None:
        self.thread_id = thread_id
        self.stack: list[list[int]] = []  # open spans: [span id, child ns]
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.dropped = 0


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.scope: object = None  # set per instance by the caller
        self.distinct_counts: set[tuple] = set()  # (scope, node.counts) seen by pair_combos
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._register = threading.Lock()
        self._ids = itertools.count(1)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            with self._register:
                self._threads.append(state)
            self._local.state = state
        return state

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """``fn`` with a span around each call; ``observe(state, args, result)``
        records counts at the same boundary."""
        ids, state_of = self._ids, self._state

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            state = state_of()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = [next(ids), 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                rec = state.stats.get(name)
                if rec is None:
                    rec = state.stats[name] = [0, 0, 0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[1]
                if len(state.spans) < SPAN_CAP:
                    state.spans.append(
                        (frame[0], name, start, end, parent[0] if parent else None))
                else:
                    state.dropped += 1
            if observe is not None:
                observe(state, args, result)
            return result

        return traced_call

    def stats(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total s, self s), merged over threads."""
        merged: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for state in self._threads:
            for name, rec in state.stats.items():
                for i in range(3):
                    merged[name][i] += rec[i]
        return {n: (r[0], r[1] / 1e9, r[2] / 1e9) for n, r in merged.items()}

    def counts(self) -> dict[str, int]:
        merged: dict[str, int] = defaultdict(int)
        for state in self._threads:
            for name, value in state.counts.items():
                merged[name] += value
            for name, value in state.peaks.items():
                merged[name] = max(merged[name], value)
        return merged

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines, then one line per thread with
        the number of spans it dropped."""
        with open(path, "w", encoding="utf-8") as out:
            for state in self._threads:
                for span_id, name, start, end, parent in state.spans:
                    out.write(json.dumps({
                        "run": self.run_id, "thread": state.thread_id, "id": span_id,
                        "name": name, "start_ns": start, "end_ns": end, "parent": parent,
                    }) + "\n")
            for state in self._threads:
                out.write(json.dumps({"run": self.run_id, "thread": state.thread_id,
                                      "dropped": state.dropped}) + "\n")


def _count_children(state, args, result) -> None:
    state.counts["children.out"] += len(result)
    state.counts["children.dead_ends"] += not result


def _count_insertions(state, args, result) -> None:
    state.counts["enumerate_insertions.out"] += len(result)


def _count_kept(state, args, result) -> None:
    state.counts["symmetry_allows.kept"] += bool(result)


def _count_filtered(state, args, result) -> None:
    state.counts["filter_dominated_children.in"] += len(args[0])
    state.counts["filter_dominated_children.out"] += len(result)


def _count_push(state, args, result) -> None:
    fringe = args[0]
    state.peaks["fringe.peak_len"] = max(state.peaks["fringe.peak_len"], len(fringe))


def _count_admit(state, args, result) -> None:
    store = args[0]
    state.counts["dominance_store.admitted"] += bool(result)
    state.peaks["dominance_store.peak_size"] = max(
        state.peaks["dominance_store.peak_size"], store.size)


def _count_offer(state, args, result) -> None:
    state.counts["incumbent.improvements"] += bool(result)


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install the wrappers for the duration of the block."""
    patched: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str, observe: Callable | None = None) -> None:
        original = getattr(owner, attr)
        patched.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, observe))

    def count_distinct(state, args, result) -> None:
        tracer.distinct_counts.add((tracer.scope, args[0].counts))

    try:
        patch(fileio, "load_instance", "fileio.load_instance")
        patch(fileio, "write_solution", "fileio.write_solution")
        patch(fileio, "read_solution", "fileio.read_solution")
        patch(model, "root_node", "model.root_node")
        patch(search, "root_node", "model.root_node")
        patch(search, "children", "branching.children", _count_children)
        patch(branching, "enumerate_insertions", "branching.enumerate_insertions",
              _count_insertions)
        patch(branching, "pair_combos", "branching.pair_combos", count_distinct)
        patch(branching, "symmetry_allows", "branching.symmetry_allows", _count_kept)
        patch(branching, "apply_insertion", "branching.apply_insertion")
        patch(branching, "filter_dominated_children", "branching.filter_dominated_children",
              _count_filtered)
        patch(search, "guide_value", "search.guide_value")
        patch(search.Fringe, "push", "search.fringe.push", _count_push)
        patch(search.Fringe, "pop_best", "search.fringe.pop_best")
        patch(search.Fringe, "pop_worst", "search.fringe.pop_worst")
        patch(search.DominanceStore, "admit", "search.dominance_store.admit", _count_admit)
        patch(search.Incumbent, "offer", "search.incumbent.offer", _count_offer)
        patch(search, "mba_star", "search.mba_star")
        patch(search, "restarting_mba_star", "search.restarting_mba_star")
        patch(search, "dpa_star", "search.dpa_star")
        patch(search, "portfolio_solve", "search.portfolio_solve")
        patch(solution, "build_solution_tree", "solution.build_solution_tree")
        patch(validator, "validate", "validator.validate")
        patch(validator, "objective_of", "validator.objective_of")
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def bytes_per_node(solve: Callable[[], object]) -> float:
    """Traced peak memory of one solve divided by the peak number of search
    nodes alive at once. Nodes are counted by a subclass swapped in for
    ``Node`` where the program constructs it; memory comes from tracemalloc,
    started just before the solve, so it covers everything the solve keeps
    (nodes, their insertions, the open list and the caches)."""
    live = [0, 0]  # now, peak
    lock = threading.Lock()

    class CountedNode(model.Node):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            with lock:
                live[0] += 1
                live[1] = max(live[1], live[0])

        def __del__(self):
            with lock:
                live[0] -= 1

    originals = [(model, model.Node), (branching, branching.Node)]
    for owner, _ in originals:
        owner.Node = CountedNode
    gc.collect()  # garbage of earlier solves would otherwise be freed during this one
    tracemalloc.start()
    try:
        solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        for owner, original in originals:
            owner.Node = original
    return peak / max(1, live[1])
