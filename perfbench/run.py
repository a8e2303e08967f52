"""Benchmark of the glasscut solver on generated instances.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The seed generates a suite of instances in
the challenge CSV format; the program receives them only through
``fileio.load_instance``. Every solution is checked (see ``checks.py``).

``--trace 0`` measures the end-to-end metrics with no tracing: fixed-work
suites are solved twice and each instance's two repetitions must agree.
Their times and rates are at the reference speed of ``speed.py``; the
wall-clock figures are printed next to them.
``--trace 1`` solves the suite once untraced and once traced, requires the
same waste and nodes expanded from both on fixed-work suites, and reports
the per-layer metrics and the tracing overhead.

A report is printed first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. Spans and
a full result record are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 150.0  # searches share what is left of this, so a run ends within 180 s
SETUP_REPS = 3  # set-up samples per solve


@dataclass
class Sample:
    """One solve of one instance."""

    index: int
    item_area: int
    setup_s: list[float]
    scaled_setup_s: list[float]
    search_s: float
    scaled_s: float
    post_s: float
    first_best: Optional[tuple[float, float]]
    worker_expansions: list[int]
    rep: "checks.Repetition"


@dataclass
class Suite:
    prefixes: list[str]
    samples: list[Sample] = field(default_factory=list)


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> bool:
    """Put the checkout's ``src`` first on the path and make sure the
    program imported is that one. Everything that imports ``glasscut``
    (this file's other imports included) waits until this has run."""
    if not (SRC / "glasscut" / "__init__.py").is_file():
        print(f"error: the program source {SRC / 'glasscut'} is missing", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import glasscut

    if Path(glasscut.__file__).resolve().parent != SRC / "glasscut":
        print(f"error: imported glasscut from {glasscut.__file__}", file=sys.stderr)
        return False
    return True


def solve_instance(workload, index: int, prefix: str, work_dir: Path, deadline: float,
                   clock, tracer=None) -> Sample:
    from glasscut import fileio, model
    import checks
    from workloads import wall_times

    def set_up():
        walls = []
        for _ in range(SETUP_REPS):
            started = time.perf_counter()
            instance = fileio.load_instance(prefix)
            root = model.root_node(instance)
            walls.append(time.perf_counter() - started)
        return instance, root, walls

    (instance, root, setups), wall, scaled = clock.timed(set_up)
    if tracer is not None:
        tracer.scope = index
    time_limit = workload.time_limit(max(0.0, deadline - time.perf_counter()), tracer is not None)
    result = workload.solve(instance, root, time_limit, clock)
    incumbent = result.incumbent
    rep = checks.Repetition(index, incumbent.waste, result.nodes_expanded, result.outcome)
    post_s = checks.check_solution(instance, incumbent.leaf, rep,
                                   str(work_dir / f"{index}_solution.csv"))
    return Sample(index, instance.total_item_area, setups, [t * scaled / wall for t in setups], result.search_s, result.scaled_s,
                  post_s, wall_times(incumbent), result.worker_expansions, rep)


def run_pass(workload, suite: Suite, work_dir: Path, deadline: float, clock,
             tracer=None) -> list[Sample]:
    samples = []
    for index, prefix in enumerate(suite.prefixes):
        if time.perf_counter() >= deadline:
            break
        samples.append(solve_instance(workload, index, prefix, work_dir, deadline, clock, tracer))
    suite.samples.extend(samples)
    return samples


def end_to_end(samples: list[Sample], fixed_work: bool) -> dict[str, float]:
    """End-to-end values over the samples of one or more passes. A search
    with a wall-clock budget takes the same wall time at any machine speed,
    so its ``solve_s`` is that wall time, not scaled."""
    from metrics import median, ratio

    by_instance: dict[int, list[Sample]] = {}
    for s in samples:
        by_instance.setdefault(s.index, []).append(s)
    firsts = [s for group in by_instance.values() for s in group[:1]]
    expanded = sum(s.rep.nodes_expanded for s in samples)
    stamps = [g for g in (
        [s.first_best for s in group if s.first_best] for group in by_instance.values()) if g]
    wall_solve_s = sum(median([s.search_s for s in group]) for group in by_instance.values())
    return {
        "setup_s": median([t for s in samples for t in s.scaled_setup_s]),
        "solve_s": sum(median([s.scaled_s for s in group]) for group in by_instance.values())
        if fixed_work else wall_solve_s,
        "expansions_per_s": ratio(expanded, sum(s.scaled_s for s in samples)),
        "wall_setup_s": median([t for s in samples for t in s.setup_s]),
        "wall_solve_s": wall_solve_s,
        "wall_expansions_per_s": ratio(expanded, sum(s.search_s for s in samples)),
        # an instance without a solution is charged 100% waste
        "waste_pct": 100 * ratio(
            sum(s.item_area if s.rep.waste is None else s.rep.waste for s in firsts),
            sum(s.item_area for s in firsts)),
        "post_s": median([s.post_s for s in samples]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "time_to_first_s": median([median([fb[0] for fb in g]) for g in stamps]),
        "time_to_best_s": median([median([fb[1] for fb in g]) for g in stamps]),
    }


def traced_metrics(workload, suite: Suite, work_dir: Path, deadline: float, clock,
                   run_id: str) -> dict[str, float]:
    """Untraced pass, traced pass, bytes per node; the per-layer metrics."""
    import tracer as tracing
    from glasscut import fileio, model
    from metrics import layer_metrics, ratio

    untraced = run_pass(workload, suite, work_dir, deadline, clock)
    tracer = tracing.Tracer(run_id)
    with tracing.traced(tracer):
        traced = run_pass(workload, suite, work_dir, deadline, clock, tracer)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(str(OUT / f"spans-{run_id}.jsonl"))

    def solve_first():
        instance = fileio.load_instance(suite.prefixes[0])
        time_limit = workload.time_limit(max(0.0, deadline - time.perf_counter()), False)
        return workload.solve(instance, model.root_node(instance), time_limit, clock)

    values = layer_metrics(tracer.stats(), tracer.counts(), len(tracer.distinct_counts))
    plain = end_to_end(untraced, workload.fixed_work)
    with_trace = end_to_end(traced, workload.fixed_work)
    per_worker = [sum(w) for w in zip(*(s.worker_expansions for s in traced))]
    values.update({
        "search.nodes_expanded": sum(s.rep.nodes_expanded for s in traced),
        "search.portfolio.worker_expansions.min": min(per_worker, default=0),
        "search.portfolio.worker_expansions.max": max(per_worker, default=0),
        "search.incumbent.time_to_first_s": plain["time_to_first_s"],
        "search.incumbent.time_to_best_s": plain["time_to_best_s"],
        "model.bytes_per_node": tracing.bytes_per_node(solve_first),
        "trace.overhead_frac":
            ratio(plain["expansions_per_s"], with_trace["expansions_per_s"]) - 1,
    })
    return values


def report(workload_name: str, seed: int, trace: int, suite: Suite, failed: int,
           metrics: dict[str, tuple[float, str]]) -> None:
    passes = len(suite.samples) // max(1, len(suite.prefixes))
    print(f"workload {workload_name}  seed {seed}  trace {trace}: {len(suite.prefixes)} "
          f"instances, {passes} passes, {len(suite.samples)} repetitions, {failed} failed")
    for s in suite.samples:
        if s.rep.failure:
            print(f"  FAILED instance {s.index}: {s.rep.failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit}")


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not import_program():
        return 2
    import checks
    from generator import write_instance
    from metrics import END_TO_END, PER_LAYER, REPORTED, median
    from speed import NOMINAL_PROBE_S, ReferenceClock
    from workloads import WORKLOADS, instance_seed, suite_size

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    run_id = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    deadline = time.perf_counter() + RUN_LIMIT_S
    work_dir = WORK / f"{run_id}-{os.getpid()}"
    clock = ReferenceClock()
    try:
        suite = Suite([
            write_instance(str(work_dir / f"instance{i}"),
                           instance_seed(workload, args.seed, i), workload.profile)
            for i in range(suite_size(workload, args.seconds))
        ])
        if args.trace:
            values = traced_metrics(workload, suite, work_dir, deadline, clock, run_id)
            wanted = [(m.name, m.unit) for m in PER_LAYER]
        else:
            for _ in range(2 if workload.fixed_work else 1):
                run_pass(workload, suite, work_dir, deadline, clock)
            values = end_to_end(suite.samples, workload.fixed_work)
            wanted = [(m.name, m.unit) for m in END_TO_END]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run's files are still there
            pass

    reps = [s.rep for s in suite.samples]
    if workload.fixed_work:
        checks.check_fixed_work(reps)
    missing = len(suite.prefixes) * (2 if workload.fixed_work or args.trace else 1) - len(reps)
    attempted = len(reps) + missing  # repetitions cut by the run limit count as failed
    failed = checks.failed_count(reps) + missing
    shown = dict(wanted)
    if not args.trace:
        values["failed_frac"] = failed / max(1, attempted)
        values["probe_slowdown"] = median(clock.probes) / NOMINAL_PROBE_S
        shown.update((m.name, m.unit) for m in REPORTED)
    report(workload.name, args.seed, args.trace, suite, failed,
           {name: (values[name], unit) for name, unit in shown.items()})
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted}
    correct = not any(rep.wrong_output for rep in reps)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{run_id}.json", "w", encoding="utf-8") as out:
        json.dump({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                   "instances": len(suite.prefixes), **result,
                   "all_metrics": {n: values[n] for n in shown},
                   "failures": [s.rep.failure for s in suite.samples if s.rep.failure]},
                  out, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
