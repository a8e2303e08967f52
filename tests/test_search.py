"""Search algorithms: guides, fringe behaviour, capacity and dominance."""

import gc
import logging
import math
import multiprocessing
import os
import random
import threading
import time
import tracemalloc
from bisect import insort
from collections import OrderedDict
from fractions import Fraction
from functools import partial

import pytest

from glasscut import branching, search
from glasscut.branching import (
    CHILD_MEMO_BYTES, CHILD_MEMO_MAX_BYTES, _MEMO_COUNTS, ByteBoundedCache, _allowed_depths,
    apply_insertion, child_memo, child_memo_charge, child_memo_key, children,
)
from glasscut.model import Defect, GuideKind, Params, root_node, waste_floor
from glasscut.search import (
    ChainCountError,
    DominanceStore,
    Fringe,
    Incumbent,
    SearchResult,
    astar,
    dpa_star,
    guide_scale,
    guide_value,
    iterative_beam_search,
    mba_star,
    next_capacity,
    portfolio_solve,
    restarting_mba_star,
)

from conftest import (
    ReferenceDominanceStore,
    dfs_best_leaf,
    dfs_min_waste,
    expansion_trace,
    front_order_bits,
    make_instance,
    midsize_instance,
    random_front,
    random_small_instance,
    random_walk,
    reference_push_then_trim,
    unsuppressed_insertions,
    unsuppressed_min_waste,
)

RUN_SLOW = os.environ.get("GLASSCUT_RUN_SLOW") == "1"

GUIDES = (
    GuideKind.WASTE,
    GuideKind.WASTE_PERCENTAGE,
    GuideKind.WASTE_PERCENTAGE_OVER_MEAN_ITEM_AREA,
)


def _guide(node, kind, scale):
    """``guide_value`` on the figures of ``node``, whose covered area is its
    waste plus its item area."""
    return guide_value(node.waste, node.waste + node.item_area, node.item_area, node.n_packed,
                       kind, scale)


class TestGuideValue:
    def test_root_is_zero_under_all_guides(self):
        inst = make_instance([(100, 100)])
        root = root_node(inst)
        for guide in GUIDES:
            assert _guide(root, guide, guide_scale(inst.params)) == 0

    def test_waste_percentage(self):
        inst = make_instance([(300, 200), (100, 100)], chains=[[0], [1]])
        scale = guide_scale(inst.params)
        node = children(root_node(inst), inst)[0]
        node.waste, node.item_area = 500, 1500  # on 2000 covered
        assert _guide(node, GuideKind.WASTE, scale) == 500
        assert _guide(node, GuideKind.WASTE_PERCENTAGE, scale) == scale // 4

    def test_mean_item_area_reward(self):
        inst = make_instance([(300, 200), (100, 100)], chains=[[0], [1]])
        scale = guide_scale(inst.params)
        value = guide_value(500, 2000, 1_000_000, 2, GuideKind.WASTE_PERCENTAGE_OVER_MEAN_ITEM_AREA,
                            scale)
        assert value == math.floor(Fraction(1, 4) / 500_000 * scale)


class _KeyedNode:
    """The four node fields a guide reads."""

    def __init__(self, waste, area, item_area, n_packed):
        self.waste, self.area, self.item_area, self.n_packed = waste, area, item_area, n_packed

    def ratio(self, kind):
        """The guide's exact value, as a Fraction."""
        if kind is GuideKind.WASTE:
            return Fraction(self.waste)
        if self.area == 0 or (kind is not GuideKind.WASTE_PERCENTAGE and self.n_packed == 0):
            return Fraction(0)
        if kind is GuideKind.WASTE_PERCENTAGE:
            return Fraction(self.waste, self.area)
        return Fraction(self.waste * self.n_packed, self.area * self.item_area)


def _keyed_nodes(rng, params):
    """Nodes anywhere in the range ``params`` allows: the empty root, items
    packed on no plate area, the largest areas, equal ratios written with
    other terms and neighbouring ratios with the largest denominators."""
    top = params.n_plates * params.plate_width * params.plate_height
    nodes = [_KeyedNode(0, 0, 0, 0), _KeyedNode(top, top, 0, 0),
             _KeyedNode(0, top, top, 700), _KeyedNode(top - 1, top, 1, 1)]
    for _ in range(150):
        area = rng.choice([rng.randint(1, 1000), rng.randint(1, top), top - rng.randint(0, 9)])
        item_area = rng.randint(0, area)
        n_packed = rng.randint(1, 700) if item_area else 0
        node = _KeyedNode(area - item_area, area, item_area, n_packed)
        nodes.append(node)
        k = rng.randint(2, 9)
        if area * k <= top:  # the same ratio under every guide, other terms
            nodes.append(_KeyedNode(node.waste * k, area * k, item_area * k, n_packed * k))
        if area < top:
            nodes.append(_KeyedNode(node.waste + 1, area + 1, item_area, n_packed))
        if item_area:
            nodes.append(_KeyedNode(node.waste, area, item_area, n_packed + 1))
        # a / area and c / d with a * d - c * area = -1: the closest two
        # waste percentages with these denominators can be
        d = top - rng.randint(0, 1000)
        if 1 < area != d and math.gcd(area, d) == 1:
            a = -pow(d, -1, area) % area
            c = (a * d + 1) // area
            nodes.append(_KeyedNode(a, area, area - a, n_packed or 1))
            nodes.append(_KeyedNode(c, d, d - c, n_packed or 1))
        # the same for the mean-item-area guide, whose denominators reach
        # top^2: n1 * u - n2 * v = 1 puts the two ratios 1 / (a1 * i1 * a2 * i2)
        # apart, about 1 / top^4.
        # Such counts of packed items are far beyond any instance; the key
        # relies only on the bound on the denominators.
        a1, a2 = top - rng.randint(0, 1000), top - rng.randint(1001, 2000)
        i1, i2 = rng.randint(top // 3, top // 2), rng.randint(top // 3, top // 2)
        u, v = (a1 - i1) * a2 * i2, (a2 - i2) * a1 * i1
        if math.gcd(u, v) == 1:
            n1 = pow(u, -1, v)
            nodes.append(_KeyedNode(a1 - i1, a1, i1, n1))
            nodes.append(_KeyedNode(a2 - i2, a2, i2, (n1 * u - 1) // v))
    return nodes


class TestGuideKey:
    @pytest.mark.parametrize("params", [
        Params(),
        Params(n_plates=1000),
        Params(plate_width=10**5, plate_height=10**5, n_plates=500, max1=10**5),
    ])
    def test_orders_and_ties_like_the_exact_ratio(self, params):
        rng = random.Random(params.n_plates)
        scale = guide_scale(params)
        nodes = _keyed_nodes(rng, params)
        for kind in GUIDES:
            keyed = sorted((n.ratio(kind), _guide(n, kind, scale)) for n in nodes)
            assert all(type(key) is int for _, key in keyed)
            # sorted by the exact ratio, the key rises exactly where it does
            for (exact_a, key_a), (exact_b, key_b) in zip(keyed, keyed[1:]):
                assert (key_a < key_b) == (exact_a < exact_b)
                assert (key_a == key_b) == (exact_a == exact_b)

    def test_scale_squares_the_largest_denominator(self):
        params = Params()
        top = params.n_plates * params.plate_width * params.plate_height
        assert guide_scale(params) == (top * top) ** 2


class TestFringe:
    def test_best_and_worst_ends(self):
        fr = Fringe()
        for i, g in enumerate([5, 1, 9, 3, 7]):
            fr.push((g, 0, i, f"n{i}"))
        assert len(fr) == 5
        assert fr.pop_best() == "n1"
        assert fr.pop_worst() == "n2"
        assert fr.pop_best() == "n3"
        assert fr.pop_worst() == "n4"
        assert fr.pop_best() == "n0"
        assert len(fr) == 0

    def test_tie_breaks_by_items_then_age(self):
        fr = Fringe()
        fr.push((1, -2, 0, "deep-old"))
        fr.push((1, -2, 1, "deep-new"))
        fr.push((1, -1, 2, "shallow"))
        assert fr.pop_best() == "deep-old"
        assert fr.pop_worst() == "shallow"
        assert fr.pop_best() == "deep-new"

    @pytest.mark.parametrize("capacity, steps", [
        (1, 3000), (2, 3000), (40, 6000), (4 * search._RUN, 12_000), (100_000, 12_000),
    ])
    def test_moves_match_a_sorted_list(self, capacity, steps):
        """Random pushes, pushes within the capacity and pops at both ends
        against a plain sorted list: the same children come out, the same
        discard flags, and the same open entries in the same order.  The
        largest capacity starts from a full fringe, and the next largest
        grows past a run's length, so runs split."""
        rng = random.Random(capacity)
        fr = Fringe()
        reference: list[tuple] = []
        counter = 0

        def entry() -> tuple:
            nonlocal counter
            counter += 1
            return (rng.randint(0, 10**6), -rng.randint(0, 3), counter, f"x{counter}")

        if capacity == 100_000:
            for _ in range(capacity):
                e = entry()
                fr.push(e)
                reference.append(e)
            reference.sort()
        peak = len(fr)
        for step in range(steps):
            move = rng.random()
            if reference and move < 0.25:
                assert fr.pop_best() == reference.pop(0)[-1]
            elif reference and move < 0.35:
                assert fr.pop_worst() == reference.pop()[-1]
            elif move < 0.45 and len(reference) < capacity:
                e = entry()
                fr.push(e)
                insort(reference, e)
            else:
                e = entry()
                full = len(reference) >= capacity
                insort(reference, e)
                if full:
                    reference.pop()
                assert fr.push_within(capacity, e) == full
            assert len(fr) == len(reference)
            peak = max(peak, len(fr))
            if step % 97 == 0 or len(fr) < 50:
                assert fr.entries() == reference
        assert fr.entries() == reference
        if capacity > search._RUN:
            assert peak > search._RUN

    @pytest.mark.parametrize("seed", range(12))
    def test_push_within_keeps_what_push_then_trim_keeps(self, seed):
        """Each step pops the best entry, as an expansion does, then offers
        a batch of children: pushing each within the capacity leaves the
        same open entries and the same discard flag as pushing them all and
        popping the worst beyond it."""
        rng = random.Random(seed)
        capacity = rng.choice([1, 2, 3, 5, 8, 13, 40])
        new, old = Fringe(), Fringe()
        counter = dropped = 0
        for _ in range(600):
            if new:
                assert new.pop_best() == old.pop_best()
            batch = []
            for _ in range(rng.randint(0, 3 * capacity)):
                counter += 1
                batch.append((rng.randint(0, 40), -rng.randint(0, 3), counter, counter))
            discarded = False
            for entry in batch:
                discarded |= new.push_within(capacity, entry)
                dropped += entry not in new.entries()
            assert discarded == reference_push_then_trim(old, capacity, batch)
            assert new.entries() == old.entries()
        assert dropped > 100  # children never pushed


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
                use_symmetry=False, use_dominance=False,
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
                inc = Incumbent()
                with expansion_trace() as trace:
                    mba_star(root_node(inst), inst, guide, 1, 10.0, inc)
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

    def test_a_capacity_below_one_is_rejected(self):
        inst = make_instance([(300, 200)])
        with pytest.raises(ValueError, match="fringe capacity must be at least 1"):
            mba_star(root_node(inst), inst, GuideKind.WASTE, 0, 1.0, Incumbent())

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
        inst = midsize_instance(30, 6, seed=5)
        inc = Incumbent()
        res = restarting_mba_star(
            root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, "1.5", 60.0, inc, node_cap=10
        )
        assert res.outcome == "memory"
        assert res.final_capacity > 10 and res.iterations == 4  # capacities 2, 3, 5, 8

    def test_default_node_cap_is_shared_between_workers(self):
        one = search._default_node_cap(1)
        four = search._default_node_cap(4)
        assert four <= one
        assert four == 100_000 or abs(4 * four - one) <= one // 20  # memory moves

    def test_fallback_node_cap_is_shared_between_workers(self, monkeypatch):
        """Where available memory cannot be read, as on macOS, the fallback
        cap is split between the workers too."""
        def unreadable(*args, **kwargs):
            raise OSError("no /proc/meminfo")

        monkeypatch.setattr(search, "open", unreadable, raising=False)
        assert search._default_node_cap(4) < search._default_node_cap(1)

    def test_each_search_asks_for_the_cap_of_its_own_nodes(self, monkeypatch):
        """Every search is charged the same NODE_BYTES per open node, so
        each one asks for the single default cap of one process."""
        asked = []

        def cap(workers=1):
            asked.append(workers)
            return 1000

        monkeypatch.setattr(search, "_default_node_cap", cap)
        inst = make_instance([(300, 200), (200, 100)], chains=[[0, 1]])
        dpa_star(root_node(inst), inst, 10.0, Incumbent())
        astar(root_node(inst), inst, GuideKind.WASTE, 10.0, Incumbent())
        restarting_mba_star(root_node(inst), inst, GuideKind.WASTE, 2, 10.0, Incumbent())
        iterative_beam_search(root_node(inst), inst, GuideKind.WASTE, 10.0, Incumbent())
        assert asked == [1, 1, 1, 1]


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

    @pytest.mark.parametrize("width", [0, -1])
    def test_a_width_below_one_is_rejected(self, width):
        # a width of 0 keeps no child, so every pass would end at once
        inst = make_instance([(300, 200), (100, 100)], chains=[[0], [1]])
        with pytest.raises(ValueError, match="beam width must be at least 1"):
            iterative_beam_search(root_node(inst), inst, GuideKind.WASTE, 1.0, Incumbent(),
                                  width_init=width)

    @pytest.mark.parametrize("checks_passed", [0, 4])
    def test_the_deadline_ends_the_widening_or_a_pass(self, monkeypatch, checks_passed):
        """The deadline seen before the first pass, or at its fourth level:
        both end the search as a timeout, without a finished pass."""
        checks = iter([False] * checks_passed)
        monkeypatch.setattr(search._Clock, "expired", lambda self: next(checks, True))
        inst = midsize_instance(40, 6, seed=77)
        res = iterative_beam_search(
            root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, 60.0, Incumbent())
        assert (res.outcome, res.iterations, res.final_capacity) == ("timeout", 0, 2)
        assert (res.nodes_expanded > 0) is (checks_passed > 0)

    def test_node_cap_ends_the_widening_with_memory(self):
        inst = midsize_instance(40, 6, seed=77)
        inc = Incumbent()
        res = iterative_beam_search(
            root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, 60.0, inc, node_cap=10
        )
        assert res.outcome == "memory"
        assert res.final_capacity == 16 and res.iterations == 3  # widths 2, 4, 8

    def test_a_level_holds_about_width_nodes(self, monkeypatch):
        """Nodes of one depth alive at once: a level's children are built
        only when expanded, so about width of them are, the parents of the
        best width + 1 open children of the next level; not every child of
        the level."""
        live: dict[int, int] = {}
        peak = [0]

        class CountedNode(search.Node):
            __slots__ = ("depth",)

            def __init__(self, parent, *args):
                super().__init__(parent, *args)
                self.depth = getattr(parent, "depth", 0) + 1
                live[self.depth] = live.get(self.depth, 0) + 1
                peak[0] = max(peak[0], live[self.depth])

            def __del__(self):
                live[self.depth] -= 1

        monkeypatch.setattr(branching, "Node", CountedNode)
        inst = midsize_instance(40, 6, seed=77)
        width = 64
        res = iterative_beam_search(
            root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, 60.0, Incumbent(), node_cap=width
        )
        assert res.outcome == "memory" and res.final_capacity == 2 * width
        # a node here has at most 21 raw insertions; the run peaks at 63
        # nodes of one depth, where building every kept child made 88 and
        # keeping every child of a level made 273
        assert peak[0] <= 2 * width


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

    def test_node_cap_reported(self):
        inst = midsize_instance(14, 2, seed=0)
        res = dpa_star(root_node(inst), inst, 30.0, Incumbent(), node_cap=20)
        assert res.outcome == "memory"

    def test_store_prunes_dominated_fronts(self):
        inst = make_instance([(300, 200), (200, 300)], chains=[[0, 1]])
        store = DominanceStore()
        kids = children(root_node(inst), inst)
        states = [(k.counts, _allowed_depths(k), k.front_key()) for k in kids]
        admitted = [store.admit(*state) for state in states]
        assert all(admitted)  # distinct states or incomparable fronts
        assert all(not store.admit(*state) for state in states)  # replay is dominated


def _bucket_fronts(store: DominanceStore) -> dict:
    """The fronts a store holds, as a set per bucket."""
    return {bucket: {p[:6] for p in entries} for bucket, entries in store._by_state.items()}


def _check_store(store: DominanceStore) -> None:
    """``size`` counts the entries, and no bucket holds two comparable
    fronts."""
    assert store.size == sum(len(entries) for entries in store._by_state.values())
    for entries in store._by_state.values():
        for i, a in enumerate(entries):
            assert not any(front_order_bits(a[:6], b[:6]) for b in entries[i + 1:])


class TestPruningLosses:
    """How often each pruning rule loses the optimum of the scheme, as the
    README states: no rule is exact.  Sibling dominance, a
    pseudo-dominance, loses none of the 150 draws but 6 of the 300."""

    @pytest.mark.parametrize("seed, draws, max_items, losses", [
        (1, 150, 5, {"symmetry": 16, "sibling dominance": 0, "both": 17, "DPA*": 9}),
        (2, 300, 6, {"symmetry": 26, "sibling dominance": 6, "both": 32, "DPA*": 17}),
    ])
    def test_losses_against_the_unpruned_search_match_the_readme(
            self, seed, draws, max_items, losses):
        rng = random.Random(seed)
        lost = dict.fromkeys(losses, 0)
        for _ in range(draws):
            inst = random_small_instance(rng, max_items=max_items)
            oracle = dfs_min_waste(inst)
            assert oracle is not None
            found = {
                "symmetry": dfs_min_waste(inst, use_symmetry=True),
                "sibling dominance": dfs_min_waste(inst, use_dominance=True),
                "both": dfs_min_waste(inst, use_symmetry=True, use_dominance=True),
            }
            inc = Incumbent()
            assert dpa_star(root_node(inst), inst, 60.0, inc).outcome == "exhausted"
            found["DPA*"] = inc.waste
            for rule, waste in found.items():
                assert waste is None or waste >= oracle  # pruning never invents
                lost[rule] += waste != oracle
        print(f"optimum lost on {draws} draws: {lost}")
        assert lost == losses


class TestUnsuppressedLosses:
    """How often the shipped scheme, and each pruning rule of
    ``TestPruningLosses`` on it, misses the optimum of the scheme with its
    structural tests off (``conftest.unsuppressed_min_waste``), as the
    README states."""

    @pytest.mark.parametrize("seed, draws, max_items, losses", [
        (1, 150, 5,
         {"scheme": 90, "symmetry": 96, "sibling dominance": 90, "both": 96, "DPA*": 94}),
        pytest.param(2, 300, 6, {
            "scheme": 172, "symmetry": 184, "sibling dominance": 172, "both": 184, "DPA*": 176,
        }, marks=[pytest.mark.slow, pytest.mark.skipif(
            not RUN_SLOW, reason="set GLASSCUT_RUN_SLOW=1 for the 300 draws (about 80 s)")]),
    ])
    def test_losses_against_the_unsuppressed_reference(self, seed, draws, max_items, losses):
        rng = random.Random(seed)
        lost = dict.fromkeys(losses, 0)
        for _ in range(draws):
            inst = random_small_instance(rng, max_items=max_items)
            reference = unsuppressed_min_waste(inst)
            assert reference is not None
            found = {
                "scheme": dfs_min_waste(inst),
                "symmetry": dfs_min_waste(inst, use_symmetry=True),
                "sibling dominance": dfs_min_waste(inst, use_dominance=True),
                "both": dfs_min_waste(inst, use_symmetry=True, use_dominance=True),
            }
            inc = Incumbent()
            assert dpa_star(root_node(inst), inst, 600.0, inc).outcome == "exhausted"
            found["DPA*"] = inc.waste
            for rule, waste in found.items():
                assert waste is None or waste >= reference  # the tests only remove leaves
                lost[rule] += waste != reference
        print(f"unsuppressed optimum lost on {draws} draws: {lost}")
        assert lost == losses


def _floor_holds_below(instance, kids) -> int | None:
    """Exhaustive depth-first sweep over ``kids(node, instance)``, asserting
    at every node that its ``waste_floor`` is at most the least waste of a
    complete solution below it (and equals the waste of a complete one).
    Returns that least waste below the root."""
    p = instance.params

    def rec(node):
        floor = waste_floor(node.bin * p.plate_width * p.plate_height, p.plate_height,
                            node.x1_curr, instance.total_item_area)
        if node.complete:
            assert floor == node.waste
            return node.waste
        least = None
        for child in kids(node, instance):
            waste = rec(child)
            if waste is not None and (least is None or waste < least):
                least = waste
        assert least is None or floor <= least
        return least

    return rec(root_node(instance))


# Searches that end only when every open node is expanded or pruned, so
# each reaches the optimum of the tree it searches
UNCAPPED_SEARCHES = (
    ("A*", partial(astar, guide=GuideKind.WASTE)),
    ("DPA*", dpa_star),
    ("MBA*", partial(mba_star, guide=GuideKind.WASTE_PERCENTAGE, capacity=1 << 30)),
    ("IBS", partial(iterative_beam_search, guide=GuideKind.WASTE_PERCENTAGE,
                    width_init=1 << 20, node_cap=1 << 20)),
)


def _unsuppressed_children(node, instance):
    return [apply_insertion(node, ins, instance) for ins in unsuppressed_insertions(node, instance)]


class TestWasteFloor:
    """The closed-column waste floor that every search cuts children by is
    a lower bound on the waste of every completion, in the scheme and with
    its structural tests off (``conftest.unsuppressed_insertions``), and the
    searches reach the same optimum with and without it: A* and DPA* their
    own, and MBA* at a capacity that never discards and IBS at a width that
    never truncates A*'s."""

    @pytest.mark.parametrize("seed, draws, max_items", [
        (1, 150, 5),
        pytest.param(2, 300, 6, marks=[pytest.mark.slow, pytest.mark.skipif(
            not RUN_SLOW, reason="set GLASSCUT_RUN_SLOW=1 for the 300 draws")]),
    ])
    def test_no_completion_wastes_less_than_the_floor(self, seed, draws, max_items,
                                                      monkeypatch):
        rng = random.Random(seed)
        lost = 0
        for _ in range(draws):
            inst = random_small_instance(rng, max_items=max_items)
            oracle = _floor_holds_below(
                inst, lambda node, instance: children(node, instance, False, False))
            assert oracle == dfs_min_waste(inst)
            assert _floor_holds_below(inst, _unsuppressed_children) is not None
            found = {}
            for floor in ("on", "off"):
                with monkeypatch.context() as m:
                    if floor == "off":
                        m.setattr(search, "waste_floor", lambda *args: -math.inf)
                    for name, run in UNCAPPED_SEARCHES:
                        inc = Incumbent()
                        res = run(root_node(inst), inst, time_limit=600.0, incumbent=inc)
                        assert res.outcome == "exhausted" and not res.discarded_any
                        found[name, floor] = inc.waste
            lost += found["A*", "on"] != found["A*", "off"]
            lost += found["DPA*", "on"] != found["DPA*", "off"]
            for name in ("MBA*", "IBS"):
                lost += found[name, "on"] != found["A*", "off"]
                lost += found[name, "off"] != found["A*", "off"]
        assert lost == 0


class TestDominanceStore:
    """The one-pass store against the two-scan reference
    (``conftest.ReferenceDominanceStore``)."""

    @pytest.mark.parametrize("grid", [1, 50, 200])
    def test_random_admissions_match_the_reference(self, grid):
        # fronts on a coarse grid compare (and tie) often; a few buckets
        rng = random.Random(grid)
        evicted = rejected = 0
        for _ in range(40):
            store, ref = DominanceStore(), ReferenceDominanceStore()
            for _ in range(150):
                bucket = (rng.choice([(0, 0), (1, 0), (1, 1)]), rng.choice([(3,), (2, 3)]))
                front = tuple(v // grid * grid for v in random_front(rng, rng.randint(0, 1)))
                size = store.size
                got = store.admit(*bucket, front)
                assert got == ref.admit(*bucket, front)
                assert store.size == ref.size
                rejected += not got
                evicted += got and store.size <= size
            assert _bucket_fronts(store) == {b: set(e) for b, e in ref.by_state.items()}
            _check_store(store)
        assert evicted > 50 and rejected > 50

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_dpa_star_admissions_match_the_reference(self, seed, monkeypatch):
        stores = []

        class Twin(DominanceStore):
            def __init__(self):
                super().__init__()
                self.ref = ReferenceDominanceStore()
                stores.append(self)

            def admit(self, counts, depths, front):
                got = super().admit(counts, depths, front)
                assert got == self.ref.admit(counts, depths, front)
                assert self.size == self.ref.size
                return got

        monkeypatch.setattr(search, "DominanceStore", Twin)
        inst = midsize_instance(14, 2, seed=seed)
        dpa_star(root_node(inst), inst, 600.0, Incumbent())
        (store,) = stores
        assert _bucket_fronts(store) == {b: set(e) for b, e in store.ref.by_state.items()}
        _check_store(store)


class TestChildMemo:
    """MBA* and IBS take kept insertions from the instance's child memo; A*
    and DPA* do not use it."""

    def test_restarts_stay_within_the_bound(self, monkeypatch):
        """Restarts fill the memo to its byte budget and then evict: far
        more states missed than it holds, and a total within a few entries
        of the budget but not past it.  The restarts end on the node cap,
        after the same work on any machine."""
        missed = []
        original = branching._child_insertions
        monkeypatch.setattr(branching, "_child_insertions",
                            lambda *args: missed.append(1) or original(*args))
        inst = midsize_instance(30, 8, seed=100)
        res = restarting_mba_star(root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, "1.5", 600.0,
                                  Incumbent(), node_cap=64)
        assert res.outcome == "memory"
        memo = child_memo(inst)
        assert len(missed) > 2 * len(memo) > 1000
        assert CHILD_MEMO_BYTES <= memo.budget <= CHILD_MEMO_MAX_BYTES
        assert 0.99 * memo.budget < memo.charged <= memo.budget
        assert memo.charged == sum(memo._charges)

    def test_astar_and_dpa_star_leave_no_entries(self):
        inst = midsize_instance(14, 2, seed=0)
        astar(root_node(inst), inst, GuideKind.WASTE, 0.5, Incumbent())
        dpa_star(root_node(inst), inst, 0.5, Incumbent())
        assert len(child_memo(inst)) == 0

    def test_iterative_beam_search_fills_it(self):
        inst = midsize_instance(14, 2, seed=0)
        res = iterative_beam_search(root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, 600.0,
                                    Incumbent(), node_cap=16)
        assert res.outcome == "memory"
        memo = child_memo(inst)
        assert len(memo) > 0 and 0 < memo.charged <= memo.budget
        assert CHILD_MEMO_BYTES <= memo.budget <= CHILD_MEMO_MAX_BYTES

    def test_a_second_call_repeats_the_first_from_the_memo(self, monkeypatch):
        inst = midsize_instance(20, 8, seed=5)
        root = root_node(inst)
        original = branching.enumerate_insertions
        calls = []  # one per memo miss
        monkeypatch.setattr(branching, "enumerate_insertions",
                            lambda *args: calls.append(1) or original(*args))
        runs = []
        for _ in range(2):
            calls.clear()
            incumbent = Incumbent()
            with expansion_trace() as trace:
                mba_star(root, inst, GuideKind.WASTE_PERCENTAGE, 6, 60.0, incumbent)
            states = [(n.front_key(), n.counts, n.waste) for n in trace]
            runs.append((states, incumbent.waste, len(calls)))
        (first, waste, misses), (again, waste_again, misses_again) = runs
        assert again == first and waste_again == waste and waste is not None
        assert misses <= len(first) and misses_again < len(again)


class TestChildMemoBudget:
    """``fit_child_memo`` raises the memo's budget to one pass of the
    capacity (MBA*) or beam width (IBS) that it serves, at the mean charge
    of the entries held, while the pass is within ``CHILD_MEMO_MAX_BYTES``,
    and sets it back to ``CHILD_MEMO_BYTES`` for a larger pass.  An entry
    is charged once, when it is put, and the entries put first are evicted
    first."""

    CAP_BYTES = 2_500_000  # above CHILD_MEMO_BYTES, below one pass at capacity 62

    @staticmethod
    def recorded_fits(monkeypatch) -> list[tuple]:
        """(capacity, budget, charged, entries, budget after) of each
        ``fit_child_memo`` call."""
        fits, fit = [], branching.fit_child_memo

        def recorded(instance, capacity):
            memo = child_memo(instance)
            before = (memo.budget, memo.charged, len(memo))
            fit(instance, capacity)
            fits.append((capacity, *before, memo.budget))

        monkeypatch.setattr(branching, "fit_child_memo", recorded)
        return fits

    @staticmethod
    def checked_puts(monkeypatch, ceiling: int) -> None:
        """Fail on a put that leaves the memo past its budget, or its
        budget past ``ceiling``."""
        put = ByteBoundedCache.put

        def checked_put(cache, key, value):
            put(cache, key, value)
            assert cache.charged <= cache.budget <= ceiling

        monkeypatch.setattr(ByteBoundedCache, "put", checked_put)

    def test_restarts_raise_it_by_the_rule_and_never_lower_it(self, monkeypatch):
        """Each restart's pass, at capacity 2, 3, 5, ... up to 64, fits the
        budget to the larger of where it stands and one pass: capacity
        states per item at the mean charge held, under a ceiling far above
        it.  The empty memo of the first pass keeps the floor, and a later
        pass at a smaller capacity does not lower it."""
        monkeypatch.setattr(branching, "CHILD_MEMO_MAX_BYTES", 10**9)
        fits = self.recorded_fits(monkeypatch)
        inst = midsize_instance(30, 8, seed=100)
        res = restarting_mba_star(root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, "1.5", 600.0,
                                  Incumbent(), node_cap=64)
        assert res.outcome == "memory"
        schedule = [2]
        while next_capacity(schedule[-1], Fraction(3, 2)) <= 64:
            schedule.append(next_capacity(schedule[-1], Fraction(3, 2)))
        assert [capacity for capacity, *_ in fits] == schedule
        for capacity, budget, charged, held, after in fits:
            one_pass = capacity * len(inst.items) * charged // held if held else 0
            assert after == max(budget, one_pass)
        budgets = [fits[0][1]] + [after for *_, after in fits]
        assert budgets == sorted(budgets)
        assert budgets[0] == budgets[1] == CHILD_MEMO_BYTES < budgets[-1]
        assert child_memo(inst).budget == budgets[-1]
        # a smaller pass afterwards leaves it where it stands
        mba_star(root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, 2, 600.0, Incumbent())
        assert fits[-1][0] == 2 and child_memo(inst).budget == budgets[-1]

    @pytest.mark.parametrize("run", ["restarts", "mba_star", "ibs"])
    def test_a_pass_past_the_ceiling_sets_it_back_to_the_floor(self, monkeypatch, run):
        """Under a ceiling of CAP_BYTES, the passes that fit raise the
        budget and the first that does not sets it back to the floor,
        through the restarts up to capacity 64, MBA* calls at capacities 8,
        36 and 64, or the beam widths up to 64.  No put ever leaves the
        budget above the ceiling or the memo above its budget."""
        monkeypatch.setattr(branching, "CHILD_MEMO_MAX_BYTES", self.CAP_BYTES)
        fits = self.recorded_fits(monkeypatch)
        self.checked_puts(monkeypatch, self.CAP_BYTES)
        inst = midsize_instance(30, 8, seed=100)
        root, guide = root_node(inst), GuideKind.WASTE_PERCENTAGE
        if run == "restarts":
            restarting_mba_star(root, inst, guide, "1.5", 600.0, Incumbent(), node_cap=64)
        elif run == "mba_star":
            for capacity in (8, 36, 64):
                mba_star(root, inst, guide, capacity, 600.0, Incumbent())
        else:
            iterative_beam_search(root, inst, guide, 600.0, Incumbent(), node_cap=64)
        for capacity, budget, charged, held, after in fits:
            one_pass = capacity * len(inst.items) * charged // held if held else 0
            fits_in = one_pass <= self.CAP_BYTES
            assert after == (max(budget, one_pass) if fits_in else CHILD_MEMO_BYTES)
        assert CHILD_MEMO_BYTES < max(after for *_, after in fits) <= self.CAP_BYTES
        assert child_memo(inst).budget == CHILD_MEMO_BYTES

    def test_a_pass_far_past_the_ceiling_keeps_the_floor(self, monkeypatch):
        """A pass at a capacity far past 64, as restarts reach on an
        instance whose small capacities find no solution, wants a memo many
        times ``CHILD_MEMO_MAX_BYTES``: the budget stays at the floor, and
        every put keeps within it."""
        self.checked_puts(monkeypatch, CHILD_MEMO_MAX_BYTES)
        inst = midsize_instance(24, 8, seed=7)
        root, guide = root_node(inst), GuideKind.WASTE_PERCENTAGE
        mba_star(root, inst, guide, 8, 600.0, Incumbent())
        memo = child_memo(inst)
        capacity = 20_000
        assert capacity * len(inst.items) * memo.charged // len(memo) > 4 * CHILD_MEMO_MAX_BYTES
        mba_star(root, inst, guide, capacity, 1.0, Incumbent())
        assert memo.budget == CHILD_MEMO_BYTES and memo.charged <= CHILD_MEMO_BYTES

    def test_each_entry_is_charged_once(self, monkeypatch):
        """In restarts that evict, ``child_memo_charge`` runs once per put:
        an eviction reads back the charge its entry was put with."""
        charges, puts, evicted = [], [], []
        monkeypatch.setattr(branching, "child_memo_charge",
                            lambda key, kept: charges.append(1) or child_memo_charge(key, kept))
        put = ByteBoundedCache.put

        def counted_put(cache, key, value):
            held = len(cache)
            put(cache, key, value)
            puts.append(1)
            evicted.append(held + 1 - len(cache))

        monkeypatch.setattr(ByteBoundedCache, "put", counted_put)
        inst = midsize_instance(30, 8, seed=100)
        restarting_mba_star(root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, "1.5", 600.0,
                            Incumbent(), node_cap=64)
        assert sum(evicted) > 1000 and len(charges) == len(puts)

    def test_eviction_follows_put_order(self, monkeypatch):
        """The puts of a restarting run, replayed into a small budget, hold
        and evict what an ``OrderedDict`` model holds and evicts, with the
        same total charged after each put: the entry put first goes first."""
        puts, put = [], ByteBoundedCache.put
        monkeypatch.setattr(ByteBoundedCache, "put",
                            lambda cache, key, value: puts.append((key, value))
                            or put(cache, key, value))
        inst = midsize_instance(24, 8, seed=8)
        restarting_mba_star(root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, "1.5", 600.0,
                            Incumbent(), node_cap=32)
        monkeypatch.undo()
        budget = 50_000
        cache, model, total = ByteBoundedCache(budget, child_memo_charge), OrderedDict(), 0
        for key, kept in puts:
            cache.put(key, kept)
            model[key] = child_memo_charge(key, kept)
            total += model[key]
            while total > budget:
                total -= model.popitem(last=False)[1]
            assert list(cache._table) == list(cache._order) == list(model)
            assert list(cache._charges) == list(model.values()) and cache.charged == total
        assert 10 < len(model) < len(puts) / 10
        assert all(cache.get(key) is kept for key, kept in puts[-len(model):])


def _traced_size(build):
    """Bytes under tracemalloc of what ``build()`` returns and nothing else
    holds: the least of two builds, each between two full collections,
    which also empty the free lists, after one build that makes whatever
    the instance builds lazily."""
    build()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    sizes = []
    try:
        for _ in range(2):
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            built = build()
            gc.collect()
            sizes.append(tracemalloc.get_traced_memory()[0] - before)
            del built
    finally:
        if not tracing:
            tracemalloc.stop()
    return min(sizes)


def _fresh(counts):
    """A copy of ``counts`` that shares nothing with it."""
    return tuple(list(counts))


class TestCacheBudgets:
    """The child memo charges each entry a size worked out from its lengths
    and keeps its total within a byte budget, whatever the chain count."""

    @pytest.mark.parametrize("n_items, n_chains, node_cap", [
        pytest.param(24, 8, 96, id="24-8"),
        pytest.param(120, 30, 32, id="120-30"),
        pytest.param(300, 60, 16, id="300-60"),
    ])
    def test_restarts_keep_both_caches_within_their_budgets(self, monkeypatch, n_items,
                                                            n_chains, node_cap):
        """After every put the charged total is the sum of the entries'
        charges and within the budget; the memo fills and evicts.  The
        restarts end on a node cap that makes them evict (entries grow with
        the chain count), after the same work on any machine.  The child
        memo is the one cache left: the cell contents of a chain state are
        assembled from tables (``branching.cell_tables``)."""
        put, evicted = ByteBoundedCache.put, []

        def checked_put(cache, key, value):
            held = len(cache)
            put(cache, key, value)
            evicted.append(held + 1 - len(cache))
            assert cache.charged <= cache.budget

        monkeypatch.setattr(ByteBoundedCache, "put", checked_put)
        # a ceiling at the floor holds the budget there, so that the restarts evict
        monkeypatch.setattr(branching, "CHILD_MEMO_MAX_BYTES", CHILD_MEMO_BYTES)
        inst = midsize_instance(n_items, n_chains, seed=n_chains)
        res = restarting_mba_star(root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, "1.5", 600.0,
                                  Incumbent(), node_cap=node_cap)
        assert res.outcome == "memory"
        memo = child_memo(inst)
        assert memo.budget == CHILD_MEMO_BYTES
        # the charge each entry was put with is its charge now, in put order
        assert list(memo._order) == list(memo._table)
        assert list(memo._charges) == [child_memo_charge(*item) for item in memo._table.items()]
        assert 0 < memo.charged == sum(memo._charges)
        assert sum(evicted) > 0

    @pytest.mark.parametrize("n_items, n_chains", [(24, 8), (120, 30), (300, 60)])
    def test_each_charge_is_within_a_quarter_of_the_entry_size(self, n_items, n_chains):
        """An entry's size is what building its key, with the key's own
        chain counts, and its value, the kept insertions, allocates
        (``_traced_size``)."""
        inst = midsize_instance(n_items, n_chains, seed=n_chains)
        with expansion_trace() as trace:
            restarting_mba_star(root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, "1.5", 600.0,
                                Incumbent(), node_cap=16)
        assert len(trace) > 12
        for node in trace[::len(trace) // 12]:
            key = child_memo_key(node, True, True)

            def memo_entry():
                return (key[:_MEMO_COUNTS] + (_fresh(node.counts),) + key[_MEMO_COUNTS + 1:],
                        tuple(branching._child_insertions(node, inst, True, True)))

            size = _traced_size(memo_entry)
            assert 0.75 * size <= child_memo_charge(*memo_entry()) <= 1.25 * size, size


def _two_leaves_then_a_cut_sibling(inst):
    """The first state, depth first over the kept children, whose kept
    children hold two complete leaves, the first better than or as good as
    the second, and after the first a sibling that is not complete and
    wastes at least as much as the first leaf; with its children built."""
    stack = [root_node(inst)]
    while stack:
        node = stack.pop()
        kids = children(node, inst)
        leaves = [k for k in kids if k.complete]
        if len(leaves) >= 2 and leaves[0].waste <= leaves[1].waste and any(
                not k.complete and k.waste >= leaves[0].waste
                for k in kids[kids.index(leaves[0]) + 1:]):
            return node, kids
        stack += reversed([k for k in kids if not k.complete])
    return None


def test_the_bound_is_read_again_after_each_offer():
    """``expand`` reads the bound once per expansion and again after each
    offer.  At a node whose kept children are two complete leaves, the
    first no worse than the second, and a sibling after the first that is
    not complete and wastes at least as much: only the first leaf is
    offered (one new history entry), and the sibling is cut, as a bound
    read per child cuts it."""
    inst = random_small_instance(random.Random(0))
    node, kids = _two_leaves_then_a_cut_sibling(inst)
    first = next(k for k in kids if k.complete)
    p = inst.params
    offered = []

    class Counting(Incumbent):
        def offer(self, leaf, elapsed):
            offered.append(leaf.waste)
            return super().offer(leaf, elapsed)

    incumbent = Counting()
    expand, _ = search._expander(inst, incumbent, search._Clock(60.0),
                                 GuideKind.WASTE_PERCENTAGE, True, True, None)
    entries = expand(node)
    assert offered == [first.waste] and [w for _, w in incumbent.history] == [first.waste]
    # a bound read per child: every child after the first leaf meets its waste
    after = kids[kids.index(first) + 1:]
    expected = [k.insertion for k in kids[:kids.index(first)] if not k.complete] + [
        k.insertion for k in after if not k.complete and k.waste < first.waste and waste_floor(
            k.bin * p.plate_width * p.plate_height, p.plate_height, k.x1_curr,
            inst.total_item_area) < first.waste]
    assert [ins for *_, (_, _, ins) in entries] == expected
    assert len(expected) < sum(not k.complete for k in kids)


class TestBuildOnlyWhatIsExpanded:
    """Open children stay (parent, insertion) pairs: a search builds a
    ``Node`` for each node it expands, the root aside, and for each complete
    leaf that improves the incumbent, and for no other child."""

    @pytest.mark.parametrize("algorithm", ["mba_star", "dpa_star"])
    def test_apply_insertion_builds_expanded_nodes_and_improving_leaves(
            self, monkeypatch, algorithm):
        built = [0]
        kept = [0]
        apply, kept_insertions = branching.apply_insertion, search.children

        def counted_apply(*args):
            built[0] += 1
            return apply(*args)

        def counted_children(*args):
            out = kept_insertions(*args)
            kept[0] += len(out)
            return out

        monkeypatch.setattr(branching, "apply_insertion", counted_apply)
        monkeypatch.setattr(search, "children", counted_children)
        inst = midsize_instance(20, 2, seed=1)
        inc = Incumbent()
        if algorithm == "mba_star":
            res = mba_star(root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, 32, 60.0, inc)
        else:
            res = dpa_star(root_node(inst), inst, 60.0, inc)
        assert res.outcome == "exhausted" and len(inc.history) > 1
        assert built[0] == res.nodes_expanded - 1 + len(inc.history)
        # far fewer than the children it kept
        assert kept[0] > 1.3 * built[0]

    @pytest.mark.parametrize("guide, use_symmetry", [
        *((guide, True) for guide in GUIDES),
        (GuideKind.WASTE, False),  # DPA*'s configuration
    ])
    def test_open_children_agree_with_their_built_nodes(self, rng, guide, use_symmetry):
        """What ``expand`` works out from the parent and the insertion (the
        waste, the guide key, -items packed and the DPA* store's admission
        arguments) is what the built child has."""

        class NoBound:
            def offer(self, leaf, elapsed):
                return False

            def bound(self):
                return None

        admitted = []

        def admit(counts, depths, front):
            admitted.append((counts, depths, front))
            return True

        instances = [random_small_instance(rng) for _ in range(40)]
        instances += [midsize_instance(40, chains, seed) for chains in (2, 8) for seed in (1, 2, 3)]
        checked = 0
        for inst in instances:
            scale = guide_scale(inst.params)
            expand, build = search._expander(
                inst, NoBound(), search._Clock(60.0), guide, use_symmetry, True, admit)
            walked = [node for _ in range(3)
                      for node in random_walk(rng, inst, use_symmetry=use_symmetry)]
            for node in walked:
                admitted.clear()
                entries = expand(node)
                assert len(admitted) == len(entries)
                for (key, packed, _, child), args in zip(entries, admitted):
                    built = build(child)
                    assert child[0] == built.waste
                    assert key == _guide(built, guide, scale)
                    assert packed == -built.n_packed
                    assert args == (built.counts, _allowed_depths(built), built.front_key())
                    checked += 1
        assert checked > 1000, checked


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

    def test_an_unknown_algorithm_is_rejected(self, rng):
        inst = random_small_instance(rng, max_items=4)
        with pytest.raises(ValueError, match="unknown algorithm 'bogus'"):
            portfolio_solve(inst, 1.0, algorithm="bogus")

    def test_explicit_portfolio_runs_four_workers(self, rng):
        inst = random_small_instance(rng, max_items=5)
        incumbent, results = portfolio_solve(
            inst, time_limit=5.0, algorithm="mbastar", threads=4
        )
        assert len(results) == 4
        assert incumbent.waste is not None

    def test_no_two_workers_share_a_configuration(self, rng, monkeypatch):
        """One worker per distinct (guide, growth) pair, in portfolio order:
        threads past the portfolio's four add none, and overrides that make
        entries equal leave one of each; a single one searches in-process."""
        inst = random_small_instance(rng, max_items=5)
        _, results = portfolio_solve(inst, 5.0, algorithm="mbastar", threads=6)
        assert len(results) == 4
        in_process = []
        mba = search.restarting_mba_star

        def record(root, instance, guide, growth, *args, **kwargs):
            in_process.append((guide, growth))
            return mba(root, instance, guide, growth, *args, **kwargs)

        monkeypatch.setattr(search, "restarting_mba_star", record)
        _, results = portfolio_solve(inst, 5.0, algorithm="mbastar", threads=3,
                                     guide=GuideKind.WASTE_PERCENTAGE, growth="1.5")
        assert len(results) == 1
        assert in_process == [(GuideKind.WASTE_PERCENTAGE, Fraction(3, 2))]
        _, results = portfolio_solve(inst, 5.0, algorithm="mbastar", threads=3,
                                     guide=GuideKind.WASTE_PERCENTAGE)
        assert len(results) == 2

    def test_workers_run_any_prepared_search(self, rng):
        inst = random_small_instance(rng, max_items=4)
        root, incumbent = root_node(inst), Incumbent()
        exact = dict(use_symmetry=False, use_dominance=False)
        searches = [partial(iterative_beam_search, root, inst, GuideKind.WASTE_PERCENTAGE, **exact),
                    partial(astar, root, inst, GuideKind.WASTE, **exact)]
        _, results = search._run_portfolio(inst, root, search._Clock(30.0), searches, incumbent)
        assert len(results) == 2 and all(isinstance(r, SearchResult) for r in results)
        assert [r.outcome for r in results] == ["exhausted", "exhausted"]
        assert incumbent.waste == dfs_min_waste(inst)

    def test_midsize_output_validates(self):
        _solve_midsize_and_validate(threads=1)

    def test_worker_processes_output_validates(self):
        incumbent = _solve_midsize_and_validate(threads=2)
        times = [t for t, _ in incumbent.history]
        assert times == sorted(times) and times[-1] == incumbent.time_to_best <= 4.5

    def test_time_limit_respected_with_grace(self):
        inst = midsize_instance(60, 8, seed=91, low=200)
        started = time.monotonic()
        portfolio_solve(inst, time_limit=1.0, algorithm="mbastar", threads=4)
        assert time.monotonic() - started <= 3.0

    def test_worker_exception_reaches_caller(self, rng):
        """In-process with one thread.  With three, the growth override
        makes the first two entries one search and the third adds a second
        guide, so two worker processes run and the error comes from one."""
        inst = random_small_instance(rng, max_items=5)
        with pytest.raises(ValueError, match="growth factor"):
            portfolio_solve(inst, 5.0, threads=1, algorithm="mbastar", growth="1")
        with pytest.raises(ValueError, match="growth factor") as raised:
            portfolio_solve(inst, 5.0, threads=3, algorithm="mbastar", growth="1")
        assert str(raised.value.__cause__).startswith("in portfolio worker ")

    def test_any_finite_time_limit(self, rng):
        # the collector waits in bounded slices, as one wait may not take
        # more than about 24.8 days
        inst = random_small_instance(rng, max_items=4)
        incumbent, results = portfolio_solve(inst, 1e7, threads=2, algorithm="mbastar")
        assert len(results) == 2 and all(r.outcome == "proved" for r in results)
        assert incumbent.waste is not None

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
        inst = midsize_instance(30, 6, seed=5)
        for threads in (1, 2):
            _, results = portfolio_solve(
                inst, 30.0, threads=threads, algorithm="mbastar", node_cap=10
            )
            assert [r.outcome for r in results] == ["memory"] * threads

    def test_node_cap_bounds_the_beam(self):
        inst = midsize_instance(40, 6, seed=77)
        started = time.monotonic()
        _, results = portfolio_solve(inst, 8.0, algorithm="ibs", node_cap=10)
        assert [r.outcome for r in results] == ["memory"]
        assert time.monotonic() - started < 4.0

    def test_dpastar_memory_break_falls_back_to_the_workers(self):
        from glasscut.solution import build_solution_tree
        from glasscut.validator import validate

        inst = midsize_instance(14, 2, seed=0)
        incumbent, results = portfolio_solve(
            inst, 30.0, threads=2, algorithm="dpastar", node_cap=20
        )
        assert len(results) == 2  # the two MBA* workers' results, not DPA*'s
        assert incumbent.leaf is not None
        assert validate(inst, build_solution_tree(incumbent.leaf, inst)).ok

    @pytest.mark.parametrize("chains, node_cap, reason", [
        (3, None, "CHAIN_COUNT"),
        (2, 1, "memory"),
    ])
    def test_dpastar_fallback_is_logged(self, caplog, chains, node_cap, reason):
        inst = midsize_instance(8, chains, seed=3)
        portfolio_solve(inst, 1.0, threads=1, algorithm="dpastar", node_cap=node_cap)
        assert not caplog.records  # off by default
        with caplog.at_level(logging.INFO, logger="glasscut.search"):
            portfolio_solve(inst, 1.0, threads=1, algorithm="dpastar", node_cap=node_cap)
        [record] = caplog.records
        assert record.name == "glasscut.search" and record.levelno == logging.INFO
        assert reason in record.getMessage()
        assert 0.0 <= record.args[-1] <= 1.0  # the seconds left

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
    inst = midsize_instance(40, 6, seed=77, defects=defects)
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
