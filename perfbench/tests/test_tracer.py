"""The traced run must not change what the program does."""

from glasscut import branching, fileio, model, search
from glasscut.model import root_node

import tracer as tracing
from generator import Profile, write_instance
from metrics import PER_LAYER, layer_metrics
from speed import ReferenceClock
from workloads import WallClockIncumbent, solve_dpa, solve_mba_schedule, solve_portfolio


def test_tracing_is_transparent_and_removed_afterwards(tmp_path):
    originals = (search.children, branching.symmetry_allows, search.Fringe.push,
                 search.DominanceStore.admit, search.Incumbent.offer)
    for solve, profile in ((solve_mba_schedule, Profile(10, 4)),
                           (solve_dpa, Profile(8, 2))):
        prefix = write_instance(str(tmp_path / solve.__name__), "tracer/1", profile)
        instance = fileio.load_instance(prefix)
        plain = solve(instance, root_node(instance), 60.0, ReferenceClock())
        tracer = tracing.Tracer("test")
        with tracing.traced(tracer):
            instance = fileio.load_instance(prefix)
            traced = solve(instance, root_node(instance), 60.0, ReferenceClock())
        assert (traced.incumbent.waste, traced.nodes_expanded) == (
            plain.incumbent.waste, plain.nodes_expanded)
        stats = tracer.stats()
        assert stats["branching.children"][0] == plain.nodes_expanded
        assert all(0 <= rec[2] <= rec[1] for rec in stats.values())
    assert (search.children, branching.symmetry_allows, search.Fringe.push,
            search.DominanceStore.admit, search.Incumbent.offer) == originals


def test_portfolio_spans_come_from_both_workers(tmp_path):
    prefix = write_instance(str(tmp_path / "p"), "tracer/2", Profile(12, 4))
    tracer = tracing.Tracer("test")
    with tracing.traced(tracer):
        instance = fileio.load_instance(prefix)
        result = solve_portfolio(instance, root_node(instance), 0.5, ReferenceClock())
    assert len(result.worker_expansions) == 2
    assert tracer.stats()["search.restarting_mba_star"][0] == 2
    assert search.Incumbent is not WallClockIncumbent  # swapped back after the solve
    values = layer_metrics(tracer.stats(), tracer.counts(), len(tracer.distinct_counts))
    computed = {m.name for m in PER_LAYER} - set(values)
    # filled in by run.py from the passes rather than from the spans
    assert computed == {
        "search.nodes_expanded", "search.portfolio.worker_expansions.min",
        "search.portfolio.worker_expansions.max", "search.incumbent.time_to_first_s",
        "search.incumbent.time_to_best_s", "model.bytes_per_node", "trace.overhead_frac"}


def test_bytes_per_node_counts_live_nodes(tmp_path):
    prefix = write_instance(str(tmp_path / "b"), "tracer/3", Profile(8, 2))
    instance = fileio.load_instance(prefix)
    value = tracing.bytes_per_node(
        lambda: solve_dpa(instance, root_node(instance), 60.0, ReferenceClock()))
    assert 100 < value < 100_000
    assert branching.Node is model.Node
