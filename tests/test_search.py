"""Search algorithms: guides, fringe behaviour, capacity and dominance."""

import multiprocessing
import os
import random
import threading
import time
from fractions import Fraction

import pytest

from glasscut import search
from glasscut.branching import children
from glasscut.model import Defect, GuideKind, Params, root_node
from glasscut.search import (
    ChainCountError,
    DominanceStore,
    Fringe,
    Incumbent,
    Ratio,
    astar,
    dpa_star,
    guide_value,
    iterative_beam_search,
    mba_star,
    next_capacity,
    portfolio_solve,
    restarting_mba_star,
)

from conftest import (
    dfs_best_leaf,
    dfs_min_waste,
    make_instance,
    random_small_instance,
)

GUIDES = (
    GuideKind.WASTE,
    GuideKind.WASTE_PERCENTAGE,
    GuideKind.WASTE_PERCENTAGE_OVER_MEAN_ITEM_AREA,
)


class TestRatio:
    def test_orders_like_fraction(self):
        rng = random.Random(5)
        for _ in range(10_000):
            a = Ratio(rng.randint(0, 1000), rng.randint(1, 1000))
            b = Ratio(rng.randint(0, 1000), rng.randint(1, 1000))
            fa, fb = a.as_fraction(), b.as_fraction()
            assert (a < b) == (fa < fb)
            assert (a == b) == (fa == fb)
            assert (a > b) == (fa > fb)
            assert (-a < -b) == (-fa < -fb)

    def test_mixed_comparisons(self):
        assert Ratio(1, 4) == Fraction(1, 4) == 0.25
        assert Ratio(1, 4) < 1
        assert Ratio(5, 4) > 1


class TestGuideValue:
    def test_root_is_zero_under_all_guides(self):
        inst = make_instance([(100, 100)])
        root = root_node(inst)
        for guide in GUIDES:
            assert guide_value(root, guide) == 0

    def test_waste_percentage(self):
        inst = make_instance([(300, 200), (100, 100)], chains=[[0], [1]])
        node = children(root_node(inst), inst)[0]
        node.waste, node.area, node.item_area = 500, 2000, 1500
        assert guide_value(node, GuideKind.WASTE) == 500
        assert guide_value(node, GuideKind.WASTE_PERCENTAGE) == Fraction(1, 4)

    def test_mean_item_area_reward(self):
        inst = make_instance([(300, 200), (100, 100)], chains=[[0], [1]])
        node = children(root_node(inst), inst)[0]
        node.waste, node.area, node.item_area, node.n_packed = 500, 2000, 1_000_000, 2
        value = guide_value(node, GuideKind.WASTE_PERCENTAGE_OVER_MEAN_ITEM_AREA)
        assert value == Fraction(1, 4) / 500_000


class TestFringe:
    def test_best_and_worst_ends(self):
        fr = Fringe()
        for i, g in enumerate([5, 1, 9, 3, 7]):
            fr.push((g, 0, i), f"n{i}")
        assert len(fr) == 5
        assert fr.pop_best() == "n1"
        assert fr.pop_worst() == "n2"
        assert fr.pop_best() == "n3"
        assert fr.pop_worst() == "n4"
        assert fr.pop_best() == "n0"
        assert len(fr) == 0

    def test_tie_breaks_by_items_then_age(self):
        fr = Fringe()
        fr.push((1, -2, 0), "deep-old")
        fr.push((1, -2, 1), "deep-new")
        fr.push((1, -1, 2), "shallow")
        assert fr.pop_best() == "deep-old"
        assert fr.pop_worst() == "shallow"
        assert fr.pop_best() == "deep-new"

    def test_compaction_keeps_heaps_proportional_to_live_entries(self):
        fr = Fringe()
        rng = random.Random(13)
        counter = 0
        for _ in range(50_000):
            fr.push((rng.randint(0, 10**6), 0, counter), counter)
            counter += 1
            while len(fr) > 64:
                fr.pop_worst()
        assert len(fr) == 64
        assert len(fr._min) + len(fr._max) < 4 * 64 + 3000

    def test_lazy_deletion_survives_churn(self):
        fr = Fringe()
        rng = random.Random(11)
        reference: dict[str, tuple] = {}
        counter = 0
        for _ in range(5000):
            if reference and rng.random() < 0.5:
                if rng.random() < 0.5:
                    node = fr.pop_best()
                    assert reference[node] == min(reference.values())
                else:
                    node = fr.pop_worst()
                    assert reference[node] == max(reference.values())
                del reference[node]
            else:
                key = (rng.randint(0, 100), 0, counter)
                name = f"x{counter}"
                fr.push(key, name)
                reference[name] = key
                counter += 1
            assert len(fr) == len(reference)


class TestAstar:
    def test_single_item_exhausts(self):
        inst = make_instance([(300, 200)])
        inc = Incumbent()
        res = astar(root_node(inst), inst, GuideKind.WASTE, 10.0, inc)
        assert res.outcome == "exhausted"
        assert inc.waste == dfs_min_waste(inst, use_symmetry=True, use_dominance=True)

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(15):
            inst = random_small_instance(rng, max_items=5)
            oracle = dfs_min_waste(inst)
            inc = Incumbent()
            res = astar(
                root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, 30.0, inc,
                use_symmetry=False, use_dominance=False, bound_pruning=False,
            )
            assert res.outcome == "exhausted"
            assert inc.waste == oracle

    def test_zero_time_limit_returns_immediately(self):
        inst = make_instance([(300, 200)])
        inc = Incumbent()
        res = astar(root_node(inst), inst, GuideKind.WASTE, 0.0, inc)
        assert res.outcome == "timeout"
        assert inc.waste is None and inc.leaf is None

    def test_memory_cap_reported(self):
        inst = make_instance([(300, 200)] * 4, chains=[[0], [1], [2], [3]])
        inc = Incumbent()
        res = astar(root_node(inst), inst, GuideKind.WASTE, 10.0, inc, node_cap=3)
        assert res.outcome == "memory"


class TestMbaStar:
    def test_capacity_one_equals_greedy_trace(self, rng):
        from conftest import greedy_trace

        for _ in range(25):
            inst = random_small_instance(rng)
            for guide in GUIDES:
                expect, expect_best = greedy_trace(inst, guide)
                trace = []
                inc = Incumbent()
                mba_star(root_node(inst), inst, guide, 1, 10.0, inc, trace=trace)
                assert [n.insertion for n in trace] == [n.insertion for n in expect]
                assert inc.waste == expect_best

    def test_unbounded_capacity_equals_astar(self, rng):
        for _ in range(10):
            inst = random_small_instance(rng, max_items=5)
            inc_a = Incumbent()
            astar(root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, 30.0, inc_a)
            inc_m = Incumbent()
            res = mba_star(
                root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, 1 << 30, 30.0, inc_m
            )
            assert res.outcome == "exhausted" and not res.discarded_any
            assert inc_m.waste == inc_a.waste

    def test_small_capacity_can_miss_the_optimum(self):
        rng = random.Random(0)  # frozen: capacity 2 strands the best branch here
        inst = random_small_instance(rng)
        tight = Incumbent()
        mba_star(root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, 2, 10.0, tight)
        wide = Incumbent()
        mba_star(root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, 1 << 30, 10.0, wide)
        assert tight.waste > wide.waste

    def test_discard_flag_reflects_pruning(self):
        inst = make_instance([(300, 200), (250, 150), (120, 90)],
                             chains=[[0], [1], [2]])
        inc = Incumbent()
        res = mba_star(root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, 1, 10.0, inc)
        assert res.outcome == "exhausted" and res.discarded_any


class TestRestartSchedule:
    def test_doubling(self):
        caps = [2]
        for _ in range(4):
            caps.append(next_capacity(caps[-1], Fraction(2)))
        assert caps == [2, 4, 8, 16, 32]

    def test_slow_growth_still_strict(self):
        caps = [2]
        for _ in range(5):
            caps.append(next_capacity(caps[-1], Fraction("1.33")))
        assert caps == [2, 3, 4, 6, 8, 11]

    def test_restarting_proves_small_instances(self, rng):
        for _ in range(8):
            inst = random_small_instance(rng, max_items=4)
            inc = Incumbent()
            res = restarting_mba_star(
                root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, "1.5", 60.0, inc
            )
            assert res.outcome == "proved"
            assert inc.waste == dfs_min_waste(
                inst, use_symmetry=True, use_dominance=True
            )

    def test_history_times_never_decrease_across_restarts(self, monkeypatch):
        class TickingTime:
            """Stands in for the time module: every reading is 1 s later."""

            def __init__(self):
                self.now = 0.0

            def monotonic(self):
                self.now += 1.0
                return self.now

        restarted = 0
        for seed in range(50):
            inst = random_small_instance(random.Random(seed), max_items=8)
            monkeypatch.setattr(search, "time", TickingTime())
            inc = Incumbent()
            res = restarting_mba_star(
                root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, "1.5", 1e9, inc
            )
            times = [t for t, _ in inc.history]
            assert times == sorted(times), (seed, times)
            restarted += res.iterations > 2 and len(times) > 2
        assert restarted >= 10

    def test_node_cap_ends_restarts_with_memory(self):
        inst = _midsize_instance(30, 6, seed=5)
        inc = Incumbent()
        res = restarting_mba_star(
            root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, "1.5", 60.0, inc, node_cap=10
        )
        assert res.outcome == "memory"
        assert res.final_capacity > 10 and res.iterations == 4  # capacities 2, 3, 5, 8

    def test_default_node_cap_is_shared_between_workers(self):
        one, four = search._default_node_cap(1), search._default_node_cap(4)
        assert four <= one
        assert four == 100_000 or abs(4 * four - one) <= one // 20  # memory moves


class TestIterativeBeamSearch:
    def test_width_one_matches_greedy_result(self, rng):
        compared = 0
        for _ in range(20):
            inst = random_small_instance(rng)
            inc_g = Incumbent()
            mba_star(root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, 1, 5.0, inc_g)
            if not inc_g.history:
                continue  # the greedy path dead-ended; nothing to compare
            first_greedy = inc_g.history[0][1]
            inc_b = Incumbent()
            iterative_beam_search(
                root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, 0.5, inc_b,
                width_init=1,
            )
            assert inc_b.history and inc_b.history[0][1] == first_greedy
            compared += 1
        assert compared >= 5

    def test_wide_beam_finds_scheme_optimum(self, rng):
        for _ in range(8):
            inst = random_small_instance(rng, max_items=5)
            inc = Incumbent()
            res = iterative_beam_search(
                root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, 30.0, inc
            )
            assert res.outcome == "exhausted"
            assert inc.waste == dfs_min_waste(
                inst, use_symmetry=True, use_dominance=True
            )


class TestDpaStar:
    def test_rejects_three_chains(self):
        inst = make_instance([(100, 100)] * 3, chains=[[0], [1], [2]])
        with pytest.raises(ChainCountError, match="CHAIN_COUNT"):
            dpa_star(root_node(inst), inst, 10.0, Incumbent())

    def test_single_chain_matches_oracle(self, rng):
        matched = compared = 0
        for _ in range(15):
            inst = random_small_instance(rng, max_items=4)
            if len(inst.chains) > 1:
                continue
            inc = Incumbent()
            res = dpa_star(root_node(inst), inst, 30.0, inc)
            assert res.outcome == "exhausted"
            oracle = dfs_min_waste(inst, use_symmetry=False, use_dominance=True)
            compared += 1
            if inc.waste == oracle:
                matched += 1
            else:
                assert inc.waste > oracle  # the store may prune, never invent
                print(f"store pruned the optimum: {inc.waste} > {oracle}")
        assert compared >= 4 and matched >= compared - 1

    def test_never_beats_the_unpruned_scheme(self, rng):
        logged = 0
        for _ in range(25):
            inst = random_small_instance(rng, max_items=5)
            oracle = dfs_min_waste(inst)
            inc = Incumbent()
            res = dpa_star(root_node(inst), inst, 30.0, inc)
            assert res.outcome == "exhausted"
            assert inc.waste >= oracle
            if inc.waste != oracle:
                logged += 1
                print(f"pseudo-dominance pruned the optimum: {inc.waste} > {oracle}")
        # the rule is heuristic; discrepancies happen but must stay rare
        assert logged <= 8

    def test_store_prunes_dominated_fronts(self):
        inst = make_instance([(300, 200), (200, 300)], chains=[[0, 1]])
        store = DominanceStore()
        kids = children(root_node(inst), inst)
        admitted = [store.admit(k) for k in kids]
        assert all(admitted)  # distinct states or incomparable fronts
        assert all(not store.admit(k) for k in kids)  # replay is dominated


class TestIncumbent:
    def test_monotone_history(self):
        inc = Incumbent()

        class LeafStub:
            def __init__(self, waste):
                self.waste = waste

        rng = random.Random(3)
        for tick in range(10_000):
            inc.offer(LeafStub(rng.randint(0, 10**6)), float(tick))
        wastes = [w for _, w in inc.history]
        assert wastes == sorted(wastes, reverse=True)
        assert inc.waste == min(wastes)

    def test_concurrent_offers_keep_best(self):
        inc = Incumbent()

        class LeafStub:
            def __init__(self, waste):
                self.waste = waste

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(2000):
                inc.offer(LeafStub(rng.randint(0, 10**6)), 0.0)

        pool = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        wastes = [w for _, w in inc.history]
        assert wastes == sorted(wastes, reverse=True)
        assert inc.waste == wastes[-1]


class TestPortfolio:
    def test_auto_routes_two_chains_to_dpastar(self, rng):
        inst = random_small_instance(rng, max_items=4)
        incumbent, results = portfolio_solve(inst, time_limit=30.0)
        assert len(results) == 1  # one DPA* run, no worker pool
        assert incumbent.waste is not None

    def test_explicit_portfolio_runs_four_workers(self, rng):
        inst = random_small_instance(rng, max_items=5)
        incumbent, results = portfolio_solve(
            inst, time_limit=5.0, algorithm="mbastar", threads=4
        )
        assert len(results) == 4
        assert incumbent.waste is not None

    def test_midsize_output_validates(self):
        _solve_midsize_and_validate(threads=1)

    def test_worker_processes_output_validates(self):
        incumbent = _solve_midsize_and_validate(threads=2)
        times = [t for t, _ in incumbent.history]
        assert times == sorted(times) and times[-1] == incumbent.time_to_best <= 4.5

    def test_time_limit_respected_with_grace(self):
        inst = _midsize_instance(60, 8, seed=91, low=200)
        started = time.monotonic()
        portfolio_solve(inst, time_limit=1.0, algorithm="mbastar", threads=4)
        assert time.monotonic() - started <= 3.0

    def test_worker_exception_reaches_caller(self, rng):
        inst = random_small_instance(rng, max_items=5)
        for threads in (1, 2):
            with pytest.raises(ValueError, match="growth factor"):
                portfolio_solve(inst, 5.0, threads=threads, algorithm="mbastar", growth="1")

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the stub reaches the workers only through fork")
    def test_worker_that_exits_without_result_is_an_error(self, rng, monkeypatch):
        def vanish(*args, **kwargs):
            if multiprocessing.parent_process() is not None:
                os._exit(3)

        monkeypatch.setattr(search, "restarting_mba_star", vanish)
        inst = random_small_instance(rng, max_items=5)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="exited with code 3 without a result"):
            portfolio_solve(inst, 30.0, threads=2, algorithm="mbastar")
        assert time.monotonic() - started < 10.0

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the stub reaches the workers only through fork")
    def test_stuck_worker_is_terminated_after_the_deadline(self, rng, monkeypatch):
        monkeypatch.setattr(search, "restarting_mba_star", lambda *a, **k: time.sleep(5))
        inst = random_small_instance(rng, max_items=5)
        started = time.monotonic()
        incumbent, results = portfolio_solve(inst, 0.5, threads=2, algorithm="mbastar")
        assert time.monotonic() - started < 0.5 + search.WORKER_GRACE_S + 1.0
        assert results == [] and incumbent.leaf is None
        assert multiprocessing.active_children() == []

    def test_shared_bound_keeps_the_best_of_concurrent_offers(self):
        ctx = multiprocessing.get_context()
        shared = ctx.Value("q", -1)
        procs, readers = [], []
        for seed in range(4):  # more processes than a small machine has cores
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_offer_random_wastes, args=(shared, writer, seed))
            proc.start()
            writer.close()
            procs.append(proc)
            readers.append(reader)
        improvements = 0
        for reader in readers:
            while True:
                try:
                    assert reader.recv() == ("leaf", ())
                except EOFError:
                    break
                improvements += 1
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        wastes = [w for seed in range(4) for w in _random_wastes(seed)]
        assert shared.value == min(wastes)
        assert 4 <= improvements < len(wastes)

    def test_workers_start_from_the_callers_bound(self, rng, monkeypatch):
        class ZeroWaste(Incumbent):
            def __init__(self):
                super().__init__()
                self.waste = 0  # nothing can beat it, so every node is pruned

        monkeypatch.setattr(search, "Incumbent", ZeroWaste)
        inst = random_small_instance(rng, max_items=5)
        incumbent, results = portfolio_solve(inst, 30.0, threads=2, algorithm="mbastar")
        assert [r.outcome for r in results] == ["proved", "proved"]
        assert all(r.nodes_expanded == 0 for r in results)
        assert incumbent.leaf is None and incumbent.history == []

    def test_node_cap_reaches_every_worker(self):
        inst = _midsize_instance(30, 6, seed=5)
        for threads in (1, 2):
            _, results = portfolio_solve(
                inst, 30.0, threads=threads, algorithm="mbastar", node_cap=10
            )
            assert [r.outcome for r in results] == ["memory"] * threads

    def test_single_worker_is_deterministic(self, rng):
        inst = random_small_instance(rng, max_items=5)
        runs = []
        for _ in range(2):
            incumbent, _ = portfolio_solve(
                inst, time_limit=10.0, algorithm="mbastar", threads=1,
                guide=GuideKind.WASTE_PERCENTAGE, growth="1.5",
            )
            runs.append((incumbent.waste, [w for _, w in incumbent.history]))
        assert runs[0] == runs[1]


def _solve_midsize_and_validate(threads):
    from glasscut.solution import build_solution_tree
    from glasscut.validator import objective_of, validate

    defects = [Defect(0, 2500, 1500, 60, 40), Defect(1, 800, 300, 50, 50)]
    inst = _midsize_instance(40, 6, seed=77, defects=defects)
    incumbent, results = portfolio_solve(
        inst, time_limit=4.0, algorithm="mbastar", threads=threads
    )
    assert len(results) == threads
    assert incumbent.leaf is not None
    tree = build_solution_tree(incumbent.leaf, inst)
    report = validate(inst, tree)
    assert report.ok, str(report)
    assert objective_of(inst, tree) == incumbent.waste
    return incumbent


def _midsize_instance(n_items, n_chains, seed, low=150, defects=None):
    rngobj = random.Random(seed)
    dims = [(rngobj.randint(low, 1800), rngobj.randint(low, 1400)) for _ in range(n_items)]
    chains = [[] for _ in range(n_chains)]
    for i in range(n_items):
        chains[rngobj.randrange(n_chains)].append(i)
    return make_instance(dims, [c for c in chains if c], defects, params=Params())


class _CompleteRoot:
    parent = None

    def __init__(self, waste):
        self.waste = waste


def _random_wastes(seed):
    rng = random.Random(seed)
    return [rng.randint(0, 10**6) for _ in range(3000)]


def _offer_random_wastes(shared, conn, seed):
    bound = search._SharedBound(shared, conn)
    for waste in _random_wastes(seed):
        bound.offer(_CompleteRoot(waste), 0.0)
    conn.close()
