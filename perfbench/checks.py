"""The output check that decides which repetitions failed.

A repetition is one solve of one generated instance. It fails when it finds
no solution, when the independent validator rejects the solution read back
from its CSV file, when ``objective_of`` differs from the incumbent's waste,
and, on a fixed-work workload, when it ends in ``memory`` or ``timeout`` or
its (waste, nodes expanded) differ from another repetition of the same
instance. Nothing is compared with a number taken from a time budget or
from another machine.

Failures split in two. A wrong output (a rejected or mispriced solution,
repetitions that disagree) makes the run incorrect. A missing output (no
solution, a search that did not finish) only counts as failed: the program
gave no answer rather than a wrong one.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional

from glasscut import fileio, solution, validator
from glasscut.model import GlasscutError, Instance, Node

INCOMPLETE_OUTCOMES = ("memory", "timeout")


@dataclass
class Repetition:
    """What the check needs to know about one solve."""

    instance_index: int
    waste: Optional[int]
    nodes_expanded: int
    outcome: str
    failure: Optional[str] = None
    wrong_output: bool = False

    def fail(self, reason: str, wrong_output: bool) -> None:
        if self.failure is None:
            self.failure = reason
        self.wrong_output = self.wrong_output or wrong_output


def check_solution(instance: Instance, leaf: Optional[Node], rep: Repetition,
                   path: str) -> float:
    """Build, write, read back, validate and price the incumbent's solution,
    recording any failure on ``rep``. Returns the wall time of this
    post-processing, the ``post_s`` sample of the repetition."""
    if leaf is None:
        rep.fail("no solution", wrong_output=False)
        return 0.0
    started = time.perf_counter()
    try:
        tree = solution.build_solution_tree(leaf, instance)
        fileio.write_solution(tree, path)
        tree = fileio.read_solution(path)
        report = validator.validate(instance, tree)
        objective = validator.objective_of(instance, tree) if report.ok else None
    except GlasscutError as exc:
        rep.fail(f"solution error: {exc}", wrong_output=True)
        return time.perf_counter() - started
    post_s = time.perf_counter() - started
    if not report.ok:
        rep.fail(f"validator: {report.violations[0]}", wrong_output=True)
    elif objective != rep.waste:
        rep.fail(f"objective_of {objective} != incumbent waste {rep.waste}", wrong_output=True)
    return post_s


def check_fixed_work(reps: Iterable[Repetition]) -> None:
    """Mark fixed-work repetitions that did not finish or that disagree with
    another repetition of the same instance. Every repetition of a
    disagreeing instance fails, since there is no telling which one is wrong."""
    by_instance: dict[int, list[Repetition]] = defaultdict(list)
    for rep in reps:
        if rep.outcome in INCOMPLETE_OUTCOMES:
            rep.fail(f"ended in {rep.outcome}", wrong_output=False)
        by_instance[rep.instance_index].append(rep)
    for group in by_instance.values():
        signatures = {(r.waste, r.nodes_expanded) for r in group
                      if r.outcome not in INCOMPLETE_OUTCOMES}
        if len(signatures) > 1:
            for rep in group:
                rep.fail(f"repetitions disagree: {sorted(signatures, key=str)}",
                         wrong_output=True)


def failed_count(reps: Iterable[Repetition]) -> int:
    return sum(rep.failure is not None for rep in reps)
