"""Insertion enumeration: configurations, pruning rules, repairs, symmetry."""

import copy
import hashlib
import os
import pickle
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from glasscut import branching
from glasscut.branching import (
    _DOMINATED,
    CHILD_MEMO_FIELDS,
    Insertion,
    InsertionKind,
    Placement,
    _allowed_depths,
    _closed_edges,
    _frame,
    _gen_cells,
    _gen_waste,
    _grow_max,
    _hcut_ok,
    _may_swap,
    _resolve_x1,
    _shelf_closes,
    _shelf_cuts_max,
    _swap_forbidden,
    _vcut_ok,
    apply_insertion,
    candidate_items,
    cell_tables,
    child_insertions,
    child_memo,
    child_memo_key,
    children,
    depths_after,
    enumerate_insertions,
    filter_dominated_children,
    insertion_front,
    pair_combos,
    symmetry_allows,
)
from glasscut.model import Defect, GuideKind, Node, Params, _cell_items, root_node
from glasscut.search import Incumbent, mba_star

from conftest import (
    SMALL_PARAMS,
    dfs_best_leaf,
    dfs_min_waste,
    expansion_trace,
    front_leq,
    make_instance,
    midsize_instance,
    pinned_record,
    random_small_instance,
    random_walk,
    raster_front_area,
    reference_enumerate_insertions,
    reference_filter,
    reference_filter_dominated_children,
    reference_cell_swap_forbidden,
    reference_close_shelf_cut_ok,
    reference_closing_cuts_ok,
    reference_frame,
    reference_gen_cells,
    reference_growth_cuts_ok,
    reference_pair_combos,
    reference_shelf_closes_ok,
    reference_sibling_group,
    reference_sort_key,
)

RUN_SLOW = os.environ.get("GLASSCUT_RUN_SLOW") == "1"


def kid_for(parent, inst, item_id, rotated=False, depth=None, **kw):
    for k in children(parent, inst, **kw):
        ins = k.insertion
        if not ins.placements or ins.placements[0].item_id != item_id:
            continue
        if ins.placements[0].rotated != rotated:
            continue
        if depth is not None and ins.depth != depth:
            continue
        return k
    raise AssertionError(f"no child inserting item {item_id}")


class TestCandidates:
    def test_chain_heads(self):
        inst = make_instance(
            [(100, 100)] * 5, chains=[[0, 1, 2], [3, 4]]
        )
        root = root_node(inst)
        assert candidate_items(root, inst) == [0, 3]

    def test_after_consuming_heads(self):
        inst = make_instance([(100, 100)] * 5, chains=[[0, 1, 2], [3, 4]])
        node = kid_for(root_node(inst), inst, 0)
        node = kid_for(node, inst, 3)
        assert candidate_items(node, inst) == [1, 4]

    def test_empty_when_done(self):
        inst = make_instance([(100, 100)])
        leaf = kid_for(root_node(inst), inst, 0)
        assert leaf.complete
        assert candidate_items(leaf, inst) == []
        assert enumerate_insertions(leaf, inst) == []

    def test_a_pickled_cache_reads_its_own_table(self):
        """Spawned portfolio workers receive the instance pickled, its
        child memo included: the copy's ``get`` reads the copy's table, not
        the original's, and its puts go to the copy's put order."""
        inst = midsize_instance(12, 3, seed=4)
        for node in random_walk(random.Random(4), inst):
            child_insertions(node, inst, memoize=True)
        memo = child_memo(inst)
        copy = pickle.loads(pickle.dumps(inst))._child_memo
        assert copy is not memo and len(copy) == len(memo) > 0
        assert copy.charged == memo.charged and copy.budget == memo.budget
        assert list(copy._order) == list(memo._order) and copy._charges == memo._charges
        for key, kept in memo._table.items():
            assert copy.get(key) == kept and copy.get(key) is copy._table[key]
        key = child_memo_key(root_node(inst), False, False)
        assert copy.get(key) is None
        copy.put(key, ())
        assert copy.get(key) == () and memo.get(key) is None
        assert copy._order[-1] == key and len(memo._order) == len(memo._charges) == len(memo)


def one_width_instance(n_items=240, n_chains=60, seed=0):
    """Items all 300 wide, of random heights, in chains of equal length:
    every pair of chain heads makes a stack, the worst case for stacks."""
    rng = random.Random(seed)
    dims = [(300, rng.randint(150, 1400)) for _ in range(n_items)]
    chains = [list(range(c, n_items, n_chains)) for c in range(n_chains)]
    return make_instance(dims, chains, params=Params())


def table_entries(tables):
    """Every entry the cell tables hold: a rank of a chain, an orientation
    plan, a stack under a successor or a rank in a width entry."""
    entries = sum(len(row) for row in tables.singles)
    for row in tables.stacks:
        entries += len(row)
        for under_all, plans in filter(None, row):
            entries += len(under_all) + len(plans or ())
    return entries + sum(len(tops) for entry in tables.widths.values() for _, tops in entry)


class TestCellTables:
    """``pair_combos`` assembles a chain state's cells from tables built
    once per instance, against the per-state construction of its stacks
    (``conftest.reference_pair_combos``)."""

    def test_pair_combos_match_the_reference_on_random_chain_states(self):
        """On 8, 30 and 60 chains and on items of one width: the one-item
        cells of the candidates, by identity those of the tables' singles,
        then the reference's stacks, list for list and in order.  The
        contents' ranks, the sums of their two orders, are unique and order
        them by (j, rot_j), then (k, rot_k) after the one-item cell."""
        seen = {"states": 0, "stacks on a candidate": 0, "stacks on a successor": 0}
        for inst in (midsize_instance(24, 8, seed=8), midsize_instance(120, 30, seed=30),
                     midsize_instance(300, 60, seed=60), one_width_instance()):
            rng = random.Random(len(inst.chains))
            singles, chain_index = cell_tables(inst).singles, inst.chain_index
            for _ in range(300):
                node = SimpleNamespace(counts=tuple(rng.randint(0, len(c)) for c in inst.chains))
                cands = candidate_items(node, inst)
                cells = pair_combos(node, inst)
                ones = [(j, chain_index[j], w, h, rot, None, None, None, None)
                        for j in cands for w, h, rot in inst.oriented[j]]
                tabled = [cell for j in cands
                          for cell in singles[chain_index[j]][node.counts[chain_index[j]]]]
                stacks = [(c.j, chain_index[c.j], c.width, c.hj, c.rj, c.k, chain_index[c.k],
                           c.hk, c.rk) for c in reference_pair_combos(node, inst, cands)]
                assert [c[:5] + c[6:10] for c in cells] == ones + stacks
                assert list(map(id, cells[:len(ones)])) == list(map(id, tabled))
                ranks = [c[5] + c[10] for c in cells]
                assert len(set(ranks)) == len(ranks)
                assert sorted(cells, key=lambda c: c[5] + c[10]) == sorted(
                    cells, key=lambda c: (c[0], c[4], -1 if c[6] is None else c[6], c[9]))
                seen["states"] += 1
                seen["stacks on a candidate"] += sum(c[5] in cands for c in stacks)
                seen["stacks on a successor"] += sum(c[5] not in cands for c in stacks)
        assert min(seen.values()) >= 1000, seen

    def test_tables_hold_o_items_entries_on_one_width(self):
        """On 240 items of one width the tables hold a few entries per
        item, not one per pair of items, and no call adds to them."""
        inst = one_width_instance()
        tables = cell_tables(inst)
        assert cell_tables(inst) is tables
        entries = table_entries(tables)
        assert entries <= 8 * inst.n_items  # 240 * 239 pairs of items stack
        root_cells = pair_combos(root_node(inst), inst)
        assert len(root_cells) > 60 * 59  # every ordered pair of heads stacks
        rng = random.Random(1)
        for _ in range(50):
            pair_combos(SimpleNamespace(counts=tuple(rng.randint(0, 4) for _ in range(60))), inst)
        assert inst._cell_tables is tables and table_entries(tables) == entries


def test_an_insertion_stores_no_derived_field():
    """A plate opens exactly at depth 0, the plates before ``bin`` are full
    and a cell's 4-cut is an edge of its placements, so none is a field."""
    assert Insertion._fields == (
        "kind", "depth", "completes", "placements", "bin", "x1_prev", "x1_curr", "y2_prev",
        "y2_curr", "x3_prev", "x3_curr", "prev_col_x1")


class TestRootEnumeration:
    def test_single_item_clean_plate(self):
        inst = make_instance([(500, 400)])
        moves = enumerate_insertions(root_node(inst), inst)
        assert {m.depth for m in moves} == {0}
        assert {m.kind for m in moves} == {InsertionKind.ONE_ITEM}
        assert {m.placements[0].rotated for m in moves} == {False, True}

    def test_square_gets_one_orientation(self):
        inst = make_instance([(300, 300)])
        moves = enumerate_insertions(root_node(inst), inst)
        assert len(moves) == 1

    def test_two_item_hand_enumeration(self):
        # A=300x200, B=200x100: four single placements; the only width match
        # is A rotated (200 wide) with B upright, in both stack orders, and
        # the two stacks share one front so dominance keeps the first
        inst = make_instance([(300, 200), (200, 100)], chains=[[0], [1]])
        raw = enumerate_insertions(root_node(inst), inst)
        singles = [m for m in raw if m.kind is InsertionKind.ONE_ITEM]
        pairs = [m for m in raw if m.kind is InsertionKind.TWO_ITEMS]
        assert len(singles) == 4 and len(pairs) == 2
        got = {
            (m.placements[0].item_id, m.placements[0].rotated, m.x1_curr, m.y2_curr)
            for m in singles
        }
        assert got == {(0, False, 300, 200), (0, True, 200, 300),
                       (1, False, 200, 100), (1, True, 100, 200)}
        assert {tuple(pl.item_id for pl in m.placements) for m in pairs} == {(0, 1), (1, 0)}
        assert all(m.x1_curr == 200 and m.y2_curr == 400 for m in pairs)
        kids = children(root_node(inst), inst)
        assert len(kids) == 5  # the mirrored stack is dominated away

    def test_no_waste_insertion_without_defect(self):
        inst = make_instance([(300, 200)])
        assert all(
            m.kind is not InsertionKind.WASTE_ONLY
            for m in enumerate_insertions(root_node(inst), inst)
        )


class TestDepthRules:
    def test_two_item_insertion_forces_depth3(self):
        inst = make_instance(
            [(300, 200), (200, 100), (150, 100)], chains=[[0], [1], [2]]
        )
        pair = next(
            k
            for k in children(root_node(inst), inst)
            if k.insertion.kind is InsertionKind.TWO_ITEMS
        )
        follow = enumerate_insertions(pair, inst)
        assert follow and all(m.depth == 3 for m in follow)

    def test_waste_insertion_forces_same_depth(self):
        defect = Defect(0, 350, 50, 20, 20)
        inst = make_instance([(300, 200), (400, 150)], chains=[[0], [1]],
                             defects=[defect])
        parent = kid_for(root_node(inst), inst, 0)
        waste_moves = [
            m
            for m in enumerate_insertions(parent, inst)
            if m.kind is InsertionKind.WASTE_ONLY and m.depth == 3
        ]
        assert waste_moves, "a defect in the shelf should trigger a cover"
        node = apply_insertion(parent, waste_moves[0], inst)
        assert node.waste > parent.waste
        assert node.item_area == parent.item_area
        follow = enumerate_insertions(node, inst)
        assert follow and all(m.depth == 3 for m in follow)

    def test_depth3_fit_suppresses_new_shelf_and_column(self):
        inst = make_instance([(300, 200), (100, 100)], chains=[[0], [1]])
        parent = kid_for(root_node(inst), inst, 0)
        moves = enumerate_insertions(parent, inst)
        assert moves and all(m.depth == 3 for m in moves)

    def test_new_shelf_when_nothing_fits_deeper(self):
        # second item is taller than the first shelf: only depth 2 works
        inst = make_instance([(300, 100), (900, 400)], chains=[[0], [1]])
        parent = kid_for(root_node(inst), inst, 0)
        moves = enumerate_insertions(parent, inst)
        assert moves and {m.depth for m in moves} == {2}

    def test_new_plate_only_when_current_full(self):
        params = Params(plate_width=500, plate_height=400, n_plates=2,
                        min1=50, max1=500, min2=30, min_waste=10)
        inst = make_instance([(450, 350), (450, 350)], chains=[[0], [1]],
                             params=params)
        parent = kid_for(root_node(inst), inst, 0)
        moves = enumerate_insertions(parent, inst)
        assert moves and all(m.depth == 0 and m.bin == 1 for m in moves)


class TestApply:
    def test_full_plate_item(self):
        params = Params(plate_width=500, plate_height=400, n_plates=2,
                        min1=50, max1=500, min2=30, min_waste=10)
        inst = make_instance([(500, 400)], params=params)
        leaf = kid_for(root_node(inst), inst, 0)
        assert leaf.complete and leaf.waste == 0
        assert leaf.x1_curr == 500 and leaf.y2_curr == 400

    def test_depth3_growth_extends_column(self):
        inst = make_instance([(300, 200), (200, 100)], chains=[[0], [1]])
        parent = kid_for(root_node(inst), inst, 0)
        child = kid_for(parent, inst, 1, rotated=False, depth=3, use_dominance=False)
        assert child.x3_prev == 300
        assert child.x3_curr == 500
        assert child.x1_curr == 500  # the 1-cut follows the cell
        assert child.waste + child.item_area == raster_front_area(child, inst.params)
        assert child.waste >= parent.waste

    def test_waste_only_strictly_increases_waste(self):
        defect = Defect(0, 350, 50, 20, 20)
        inst = make_instance([(300, 200), (400, 150)], chains=[[0], [1]],
                             defects=[defect])
        parent = kid_for(root_node(inst), inst, 0)
        move = next(
            m
            for m in enumerate_insertions(parent, inst)
            if m.kind is InsertionKind.WASTE_ONLY
        )
        node = apply_insertion(parent, move, inst)
        assert node.item_area == parent.item_area
        assert node.waste > parent.waste


class TestDefectAvoidance:
    def test_item_raised_above_defect(self):
        inst = make_instance([(300, 200)], defects=[Defect(0, 50, 50, 30, 30)])
        moves = enumerate_insertions(root_node(inst), inst)
        below = [m for m in moves if m.kind is InsertionKind.ITEM_WASTE_BELOW]
        assert below, "blocked bottom position must fall back to item-on-top"
        for m in below:
            pl = m.placements[0]
            assert pl.y >= 80  # above the defect
            assert pl.y - m.y2_prev >= inst.params.min_waste  # the waste below is no sliver

    def test_waste_cover_only_with_defect(self):
        clean = make_instance([(300, 200), (400, 150)], chains=[[0], [1]])
        parent = kid_for(root_node(clean), clean, 0)
        assert all(
            m.kind is not InsertionKind.WASTE_ONLY
            for m in enumerate_insertions(parent, clean)
        )

    def test_solution_avoids_defects_end_to_end(self, rng):
        from glasscut.solution import build_solution_tree
        from glasscut.validator import validate

        for _ in range(25):
            inst = random_small_instance(rng)
            if not inst.defects:
                continue
            leaf = None
            best = dfs_min_waste(inst)
            if best is None:
                continue
            from conftest import dfs_best_leaf

            leaf = dfs_best_leaf(inst)
            tree = build_solution_tree(leaf, inst)
            assert validate(inst, tree).ok


def depth2_band(node, inst):
    """The waste band ``_gen_waste`` makes above the shelves at ``node``'s
    depth 2, or None."""
    defects = inst.plate_defects(node.bin)
    return _gen_waste(node, inst, _frame(node, inst, 2, defects, _closed_edges(node)), 2)


def insert_alone(node, inst, item_id, depth):
    """The child of ``node`` that packs ``item_id``, upright and alone, at
    ``depth``."""
    ins = next(m for m in enumerate_insertions(node, inst)
               if m.depth == depth and len(m.placements) == 1
               and m.placements[0].item_id == item_id and not m.placements[0].rotated)
    return apply_insertion(node, ins, inst)


class TestDepthTwoWasteBand:
    """The three ways a waste band above the shelves is refused, each next
    to a band one step away that is made."""

    def band_over_a_shelf(self, top):
        """Over a shelf of item 0 (300 x 200), the band that covers a defect
        from 300 up to ``top``."""
        inst = make_instance([(300, 200), (200, 100)], chains=[[0], [1]],
                             defects=[Defect(0, 50, 300, 50, top - 300)])
        return depth2_band(insert_alone(root_node(inst), inst, 0, 0), inst)

    def test_a_band_that_leaves_no_room_for_a_shelf_is_refused(self):
        # after a band only depth 2 is open, and a shelf of items is min2
        # (30) high at least: a band ending above 600 - 30 is a dead end,
        # whether it ends there, a sliver below the plate top or at it
        for top in (571, 595, 600):
            assert self.band_over_a_shelf(top) is None
        band = self.band_over_a_shelf(570)
        assert (band.y2_prev, band.y2_curr) == (200, 570)

    def test_the_refused_bands_lead_to_no_complete_leaf(self, monkeypatch):
        """On the 150 draws of ``TestPruningLosses``, the exhaustive search
        reaches the same complete leaves, by waste, with the band rule and
        without it.  Without it a band may end anywhere up to the plate top:
        ``_gen_waste`` reads min2 for the rule only, so a band it refuses is
        made again with min2 = 0."""
        def leaf_wastes(inst):
            wastes = []

            def rec(node):
                if node.complete:
                    wastes.append(node.waste)
                    return
                for child in children(node, inst, False, False):
                    rec(child)

            rec(root_node(inst))
            return sorted(wastes)

        refused = 0

        def without_rule(node, instance, frame, depth):
            nonlocal refused
            band = _gen_waste(node, instance, frame, depth)
            if band is None and depth == 2:
                loose = copy.copy(instance.params)
                object.__setattr__(loose, "min2", 0)
                band = _gen_waste(node, SimpleNamespace(params=loose), frame, depth)
                refused += band is not None
            return band

        rng = random.Random(1)
        for draw in range(150):
            inst = random_small_instance(rng, max_items=5)
            with_rule = leaf_wastes(inst)
            with monkeypatch.context() as m:
                m.setattr(branching, "_gen_waste", without_rule)
                assert leaf_wastes(inst) == with_rule, f"draw {draw}"
        assert refused > 0

    def band_over_a_narrow_shelf(self, max1, extra_defects=()):
        """Over a shelf of item 0 (300 x 200) and one of item 1 (295 x 100),
        the band that covers a defect at 400-450: the 1-cut of the column
        resolves to 310, clear of both shelves' edges by min_waste."""
        params = replace(SMALL_PARAMS, max1=max1)
        inst = make_instance([(300, 200), (295, 100), (200, 100)], chains=[[0], [1], [2]],
                             defects=[Defect(0, 50, 400, 100, 50), *extra_defects],
                             params=params)
        node = insert_alone(insert_alone(root_node(inst), inst, 0, 0), inst, 1, 2)
        assert (node.x1_curr, node.x3_curr, node.y2_curr) == (300, 295, 300)
        return depth2_band(node, inst)

    def test_a_band_whose_1_cut_passes_max1_is_refused(self):
        assert self.band_over_a_narrow_shelf(max1=300) is None
        band = self.band_over_a_narrow_shelf(max1=310)
        assert (band.x1_curr, band.y2_prev, band.y2_curr) == (310, 300, 450)

    def test_a_band_whose_top_cut_crosses_a_defect_is_refused(self):
        # right of the old 1-cut (300), a defect the band's own cover skips
        crossing = Defect(0, 302, 430, 6, 40)
        assert self.band_over_a_narrow_shelf(310, [crossing]) is None
        band = self.band_over_a_narrow_shelf(310, [replace(crossing, y=455, height=15)])
        assert (band.x1_curr, band.y2_prev, band.y2_curr) == (310, 300, 450)


class TestMinWasteRepairs:
    def test_closing_cut_pushed_past_sliver(self):
        # widths within min_waste of each other force the 1-cut outward
        inst = make_instance(
            [(2750, 2000), (2760, 1210), (2000, 3210)],
            chains=[[0, 1, 2]],
            params=Params(),
        )
        best = dfs_min_waste(inst)
        assert best == 84_200  # strips of 30 and 20 right of the two items

    def test_narrow_column_widened_to_min1(self):
        # a lone 30-wide item must yield a min1-wide column (waste strip 20)
        inst = make_instance([(30, 300)])
        from conftest import dfs_best_leaf

        leaf = dfs_best_leaf(inst)
        assert leaf is not None
        assert leaf.x1_curr == SMALL_PARAMS.min1
        assert leaf.waste == SMALL_PARAMS.min1 * 600 - 30 * 300

    def test_shelf_shorter_than_min2_gets_waste_above(self):
        inst = make_instance([(300, 20)])
        moves = enumerate_insertions(root_node(inst), inst)
        assert moves
        for m in moves:
            if m.placements[0].height == 20:
                assert m.kind is InsertionKind.ITEM_WASTE_ABOVE
                assert m.y2_curr == SMALL_PARAMS.min2


class TestPlateClose:
    PARAMS = Params(plate_width=500, plate_height=400, n_plates=2,
                    min1=50, max1=500, min2=30, min_waste=20)

    def test_sliver_gap_blocks_leaving_the_plate(self):
        # item 0 leaves a 10 mm gap; a chain forces it first, so item 1 can
        # never be placed and the instance is honestly unsolvable
        inst = make_instance([(490, 400), (450, 380)], chains=[[0, 1]],
                             params=self.PARAMS)
        assert dfs_min_waste(inst) is None

    def test_reordering_avoids_the_sliver(self):
        # same items in separate chains: packing item 1 first leaves a legal
        # 50 mm gap on plate 0 and item 0 moves to plate 1
        inst = make_instance([(490, 400), (450, 380)], chains=[[0], [1]],
                             params=self.PARAMS)
        from conftest import dfs_best_leaf
        from glasscut.solution import build_solution_tree
        from glasscut.validator import validate, objective_of

        leaf = dfs_best_leaf(inst)
        assert leaf is not None and leaf.bin == 1
        tree = build_solution_tree(leaf, inst)
        assert validate(inst, tree).ok
        assert objective_of(inst, tree) == leaf.waste

    def test_flush_plate_close_is_fine(self):
        inst = make_instance([(500, 400), (450, 380)], chains=[[0, 1]],
                             params=self.PARAMS)
        assert dfs_min_waste(inst) is not None

    def test_plate_budget_respected(self):
        params = Params(plate_width=500, plate_height=400, n_plates=1,
                        min1=50, max1=500, min2=30, min_waste=20)
        inst = make_instance([(450, 380), (450, 380)], chains=[[0], [1]],
                             params=params)
        assert dfs_min_waste(inst) is None  # would need a second plate


class TestSymmetry:
    def test_plain_reorder_forbidden(self):
        # item 1 below, then item 0 above with no defect and no chain link;
        # the shelf-swap test fires when item 0's shelf closes (here: at
        # completion)
        inst = make_instance([(2000, 1000), (3000, 2000)], chains=[[0], [1]],
                             params=Params())
        parent = kid_for(root_node(inst), inst, 1)
        above = [
            m for m in enumerate_insertions(parent, inst)
            if m.depth == 2 and m.placements
        ]
        assert above and all(m.completes for m in above)
        assert all(not symmetry_allows(parent, m, inst) for m in above)
        assert all(
            k.insertion.depth != 2 for k in children(parent, inst, use_symmetry=True)
        )
        # the mirrored order (small id below) is what survives
        mirror = kid_for(root_node(inst), inst, 0)
        assert any(
            k.insertion.depth == 2 and k.complete
            for k in children(mirror, inst, use_symmetry=True)
        )

    # two sibling sub-plates, first and then, as (x0, y0, x1, y1): a cell
    # and the cell right of it, and a shelf and the shelf above it
    SIBLINGS = {
        "cells": ((100, 0, 300, 200), (300, 0, 450, 200)),
        "shelves": ((0, 0, 400, 200), (0, 200, 400, 350)),
    }
    # (case, first's (smallest id, chains), then's, defective sub-plate, forbidden)
    SWAP_CASES = [
        ("a smaller later id", (5, {0}), (2, {1}), None, True),
        ("an equal later id", (5, {0}), (5, {1}), None, False),
        ("a larger later id", (2, {0}), (5, {1}), None, False),
        ("a shared chain", (5, {0, 3}), (2, {1, 3}), None, False),
        ("a waste first sub-plate", (None, set()), (2, {1}), None, False),
        ("a waste later sub-plate", (5, {0}), (None, set()), None, False),
        ("a defect in the first", (5, {0}), (2, {1}), 0, False),
        ("a defect in the later", (5, {0}), (2, {1}), 1, False),
    ]

    @pytest.mark.parametrize("geometry", sorted(SIBLINGS))
    @pytest.mark.parametrize("case, first, then, defective, forbidden", SWAP_CASES,
                             ids=[case[0] for case in SWAP_CASES])
    def test_swap_rule_on_a_pair_of_siblings(self, geometry, case, first, then, defective,
                                             forbidden):
        """``_swap_forbidden`` forbids a pair only when the later sub-plate
        holds a smaller id, the two share no chain and both are clear; its
        half ``_may_swap`` decides all but the defects."""
        rects = self.SIBLINGS[geometry]
        defects = ()
        if defective is not None:
            x0, y0, x1, y1 = rects[defective]
            defects = (Defect(0, (x0 + x1) // 2, (y0 + y1) // 2, 5, 5),)
        (first_min, first_chains), (then_min, then_chains) = first, then
        assert _swap_forbidden(defects, first_min, frozenset(first_chains), rects[0],
                               then_min, frozenset(then_chains), rects[1]) is forbidden
        assert _may_swap(first_min, frozenset(first_chains), then_min,
                         frozenset(then_chains)) is (forbidden or defective is not None)

    def test_symmetry_filter_is_subset(self, rng):
        """Symmetry breaking alone and sibling dominance alone each keep a
        subsequence of the enumerated insertions.  The two together need not
        keep a subset of what dominance alone keeps: symmetry can remove a
        sibling's only dominator, and the sibling then survives."""
        for _ in range(40):
            inst = random_small_instance(rng)
            for node in random_walk(rng, inst, use_symmetry=False):
                listed = enumerate_insertions(node, inst)
                for use_symmetry in (True, False):
                    kept = iter(listed)
                    assert all(m in kept for m in child_insertions(
                        node, inst, use_symmetry, use_dominance=not use_symmetry))

    def test_a_lower_cell_right_of_the_shelf_opener_reaches_the_optimum(self):
        """Draw 33 of ``TestPruningLosses``' draws: every best packing puts
        item 0 in a cell lower than the shelf (``ITEM_WASTE_ABOVE``) right
        of item 1, which opened the shelf.  The pair has a smaller id right
        of a larger one, no common chain and no defect, yet its mirror is
        out of reach: item 0 opening the shelf sets a top under which item 1
        no longer fits.  So the cell-swap rule leaves it, and the search
        with symmetry breaking finds the optimum of the search without."""
        rng = random.Random(1)
        for _ in range(34):
            inst = random_small_instance(rng, max_items=5)
        leaf = dfs_best_leaf(inst, use_symmetry=True)
        assert leaf.waste == dfs_min_waste(inst)
        pairs = []
        while leaf.parent is not None:
            node, ins = leaf.parent, leaf.insertion
            if ins.depth == 3 and ins.kind in (InsertionKind.ITEM_WASTE_ABOVE,
                                               InsertionKind.ITEM_WASTE_BELOW):
                new_min, new_chains = _cell_items(ins, inst)
                pairs.append((node.x3_prev == node.x1_prev, _swap_forbidden(
                    inst.plate_defects(node.bin), node.cell_min_item, node.cell_chain_ids,
                    (node.x3_prev, node.y2_prev, node.x3_curr, node.y2_curr),
                    new_min, new_chains, (node.x3_curr, node.y2_prev, ins.x3_curr, node.y2_curr))))
            leaf = leaf.parent
        assert (True, True) in pairs  # right of the shelf's first cell, a pair the rule fits


class TestChildren:
    def test_deterministic(self, rng):
        for _ in range(20):
            inst = random_small_instance(rng)
            node = root_node(inst)
            for _ in range(4):
                a = children(node, inst)
                b = children(node, inst)
                assert [k.insertion for k in a] == [k.insertion for k in b]
                if not a:
                    break
                node = a[0]

    def test_front_coordinate_invariants(self, rng):
        W, H = SMALL_PARAMS.plate_width, SMALL_PARAMS.plate_height
        for _ in range(60):
            inst = random_small_instance(rng)
            for node in random_walk(rng, inst)[1:]:
                assert 0 <= node.x1_prev <= node.x3_curr <= node.x1_curr <= W
                assert node.x1_prev <= node.x3_prev <= node.x3_curr
                assert 0 <= node.y2_prev <= node.y2_curr <= H
                assert node.waste >= 0

    def test_dominance_filter_spec_cases(self):
        inst = make_instance([(400, 300), (200, 300)], chains=[[0], [1]])
        parent = kid_for(root_node(inst), inst, 0)
        raw = child_insertions(parent, inst, use_dominance=False)
        filtered = reference_filter(raw)
        assert len(filtered) < len(raw)
        # different item sets always coexist
        inst2 = make_instance([(300, 200), (250, 150)], chains=[[0], [1]])
        kids2 = children(root_node(inst2), inst2)
        assert {k.insertion.placements[0].item_id for k in kids2 if k.insertion.placements} == {
            0, 1}
        # identical duplicates collapse to one
        dup = child_insertions(root_node(inst2), inst2, use_dominance=False)
        assert len(reference_filter(dup + dup)) == len(reference_filter(dup))


# sha256 of every insertion list over walked_nodes(random.Random(2024), 2400)
PINNED_INSERTIONS = "9c1c1162aabf323d5127991d4f8c5f8ebdd768a861d3f665b23e3881246b6bdd"
# and over the stackable-item walks of test_insertion_lists_are_pinned_on_stackable_items
PINNED_STACKABLE_INSERTIONS = "1a4e3ebc04ce536fec01be04be9448a95b0f85fdf56aa9bb8490379376c6b6da"
STACKABLE_PARAMS = Params(plate_width=600, plate_height=400, n_plates=3, min1=40, max1=400,
                          min2=45, min_waste=12)


def insertions_digest(nodes) -> str:
    """sha256 of ``enumerate_insertions`` at each node, both flags, each
    insertion as its ``pinned_record`` (as ``_digest`` in
    test_golden_trace.py hashes insertions)."""
    digest = hashlib.sha256()
    for node, inst in nodes:
        for use_symmetry in (False, True):
            records = [pinned_record(ins, inst.params)
                       for ins in enumerate_insertions(node, inst, use_symmetry)]
            digest.update(repr(records).encode())
    return digest.hexdigest()


def stackable_walks():
    """The walked nodes of the stackable-item pin."""
    nodes = []
    for seed in range(600):
        rng = random.Random(seed)
        inst = stackable_instance(rng)
        for use_symmetry in (False, True):
            use_dominance = rng.random() < 0.5
            nodes += [(n, inst) for n in random_walk(
                rng, inst, use_symmetry=use_symmetry, use_dominance=use_dominance)]
    return nodes


def stackable_instance(rng, dense_defects=False):
    """Up to 9 items of 4 widths and 8 heights in up to 4 chains, on small
    plates with up to 4 defects, or up to 30 with ``dense_defects``."""
    n = rng.randint(2, 9)
    dims = [(rng.choice([60, 80, 100, 120]), rng.choice([20, 30, 40, 50, 70, 90, 100, 150]))
            for _ in range(n)]
    chains = [[] for _ in range(rng.randint(1, 4))]
    for i in range(n):
        chains[rng.randrange(len(chains))].append(i)
    defects = []
    for _ in range(30 if dense_defects else rng.randint(0, 4)):
        plate, dw, dh = rng.randint(0, 2), rng.randint(3, 40), rng.randint(3, 40)
        cand = Defect(plate, rng.randint(0, 600 - dw), rng.randint(0, 400 - dh), dw, dh)
        if all(d.plate_index != plate or not cand.intersects(d.x, d.y, d.x + d.width, d.y + d.height)
               for d in defects):
            defects.append(cand)
    return make_instance(dims, [c for c in chains if c], defects, params=STACKABLE_PARAMS)


class TestDominanceFilter:
    """The filter, which admits the siblings of a group in generation order
    (``admit_front``), against the reference that compares every ordered
    pair (``conftest.reference_filter_dominated_children``)."""

    def test_matches_the_reference_on_walked_insertion_lists(self):
        # raw insertion lists (both prunings off) on stackable items, whose
        # two-item cells give equal fronts, and on instances with defects,
        # which give waste cells; also each list reversed and doubled.  One
        # list holds at most one waste cell per depth, and only those of
        # depths 0 and 1 leave the same depth open, so waste cells rarely
        # share a group
        seen = {"group of 3+": 0, "equal fronts": 0, "waste cells split by open depths": 0}
        for seed in range(300):
            rng = random.Random(seed)
            inst = stackable_instance(rng) if seed % 2 else random_small_instance(rng)
            for node in random_walk(rng, inst, use_symmetry=False, use_dominance=False):
                raw = enumerate_insertions(node, inst)
                groups = {}
                for ins in raw:
                    key = (ins.bin, *sorted(pl.chain_idx for pl in ins.placements),
                           depths_after(ins))
                    groups.setdefault(key, []).append(ins)
                for members in groups.values():
                    fronts = [insertion_front(ins) for ins in members]
                    seen["group of 3+"] += len(members) >= 3
                    seen["equal fronts"] += len(set(fronts)) < len(fronts)
                wastes = [ins for ins in raw if not ins.placements]
                seen["waste cells split by open depths"] += len(
                    {depths_after(ins) for ins in wastes}) >= 2
                if all(len(members) < 2 for members in groups.values()):
                    assert filter_dominated_children(raw, raw.groups) is raw
                for ins_list, groups in ((raw, raw.groups), (raw[::-1], raw.groups[::-1]),
                                         (raw + raw, raw.groups * 2)):
                    assert filter_dominated_children(ins_list, groups) == (
                        reference_filter_dominated_children(ins_list))
        assert min(seen.values()) >= 10, seen

    def test_siblings_that_leave_different_depths_open_are_both_kept(self):
        """Two stacks of the same items, one at depth 3 and one opening a
        column (after which only depth 3 is open), where the first's front
        is at or left of the second's: they are in different groups, so
        both are kept.  The filter that ignored the open depths kept the
        first only."""
        def stack(depth, x, x1_prev, x1_curr, prev_col_x1):
            pls = (Placement(0, 0, x, 0, 100, 120, False), Placement(1, 1, x, 120, 100, 80, False))
            return Insertion(InsertionKind.TWO_ITEMS, depth, False, pls, 0, x1_prev, x1_curr,
                             0, 200, x, x + 100, prev_col_x1)

        in_shelf, new_column = stack(3, 200, 0, 300, None), stack(1, 300, 300, 400, 300)
        assert depths_after(in_shelf) != depths_after(new_column)
        assert front_leq(insertion_front(in_shelf), insertion_front(new_column))
        siblings = [in_shelf, new_column]
        assert reference_filter(siblings) == siblings
        assert reference_filter_dominated_children(siblings, by_open_depths=False) == [in_shelf]

    def test_a_waste_column_beside_a_waste_strip_reaches_the_optimum(self):
        """Draw 30 of ``TestPruningLosses``' draws: every best packing
        covers a defect with a waste column at depth 1, whose front a waste
        strip at depth 3 is at or left of.  After the strip only depth 3 is
        open, so the strip's child cannot open the column that the best
        packing needs; the filter keeps both, and the search with sibling
        dominance finds the optimum of the search without."""
        rng = random.Random(1)
        for _ in range(31):
            inst = random_small_instance(rng, max_items=5)
        leaf = dfs_best_leaf(inst, use_dominance=True)
        assert leaf.waste == dfs_min_waste(inst)
        covered = []
        while leaf.parent is not None:
            node, ins = leaf.parent, leaf.insertion
            if not ins.placements and ins.depth == 1:
                covered += [m for m in enumerate_insertions(node, inst)
                            if not m.placements and m.depth == 3
                            and front_leq(insertion_front(m), insertion_front(ins))]
            leaf = leaf.parent
        assert covered


def order_key(ins, inst):
    """The integer order key of ``ins`` among the insertions of one node,
    as ``CellTables`` states it."""
    tables = cell_tables(inst)
    depth_key, waste_key, _, _, _ = tables.depths[ins.depth]
    if not ins.placements:
        return waste_key
    bottom, *top = ins.placements
    n, depth_step = inst.n_items, tables.depths[2][0]
    return (depth_key + bottom.item_id * 4 * depth_step + bottom.rotated * (2 * n + 1)
            + ins.kind.value * tables.kind_step + sum(2 * pl.item_id + pl.rotated + 1 for pl in top))


def same_partition(labels, reference_labels) -> bool:
    """Two labellings of one list put the same members together."""
    pairs = set(zip(labels, reference_labels))
    return len(pairs) == len(set(labels)) == len(set(reference_labels))


def assert_groups(insertions, groups, kept_by_symmetry):
    """The trials' groups of one node's insertions, or of one frame's: the
    kept ones, neither None nor ``_DOMINATED``, put together exactly the
    insertions that ``reference_sibling_group`` puts together, and the
    filter, which drops the ``_DOMINATED`` ones unseen, keeps what the
    reference filter keeps.  None marks exactly the insertions that
    ``kept_by_symmetry`` rejects.  Returns how many are ``_DOMINATED``."""
    assert len(groups) == len(insertions)
    assert [group is None for group in groups] == [not kept_by_symmetry(m) for m in insertions]
    listed = [(m, group) for m, group in zip(insertions, groups) if group is not None]
    kept = [(m, group) for m, group in listed if group != _DOMINATED]
    assert same_partition([group for _, group in kept],
                          [reference_sibling_group(m) for m, _ in kept])
    ins_list = [m for m, _ in listed]
    assert filter_dominated_children(ins_list, [group for _, group in listed]) == (
        reference_filter_dominated_children(ins_list))
    return len(listed) - len(kept)


def assert_keys_and_groups(entries, kept_by_symmetry):
    """The (order key, sibling group, insertion) entries of one frame: the
    keys are unique and order the insertions as ``reference_sort_key``
    does, and the groups are those of ``assert_groups``."""
    keys = [key for key, _, _ in entries]
    assert len(set(keys)) == len(keys)
    by_key = [m for _, _, m in sorted(entries, key=lambda entry: entry[0])]
    assert by_key == sorted(by_key, key=reference_sort_key)
    assert_groups([m for _, _, m in entries], [group for _, group, _ in entries],
                  kept_by_symmetry)


class TestSiblingOrder:
    """The order of one node's insertions is total: no two share an order
    key, so neither the trials' order nor the key's encoding can change
    the list.  On every state of the unpruned trees of
    ``TestPruningLosses``' 150 draws, on the states that MBA* expands on
    the golden midsize instances, and, for stacks, which those states
    seldom list, on the walked states of the stackable-item pin."""

    @pytest.fixture(scope="class")
    def states(self):
        from test_golden_trace import MIDSIZE

        states = []
        rng = random.Random(1)
        for _ in range(150):
            inst = random_small_instance(rng, max_items=5)
            stack = [root_node(inst)]
            while stack:
                node = stack.pop()
                states.append((node, inst))
                stack += children(node, inst, use_symmetry=False, use_dominance=False)
        for spec in MIDSIZE.values():
            inst = midsize_instance(**spec)
            with expansion_trace() as trace:
                mba_star(root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, 17, 600.0,
                         Incumbent())
            states += [(node, inst) for node in trace]
        return states + stackable_walks()

    def test_no_two_insertions_share_an_order_key(self, states):
        """Both keys, the integer one and the tuple it stands for, rise
        strictly along every list, under both symmetry flags."""
        seen = {"lists of 2+": 0, "waste cells": 0, "stacks": 0, "midsize": 0}
        for node, inst in states:
            for use_symmetry in (False, True):
                listed = enumerate_insertions(node, inst, use_symmetry)
                for keys in ([order_key(m, inst) for m in listed],
                             [reference_sort_key(m) for m in listed]):
                    assert keys == sorted(set(keys))
                seen["lists of 2+"] += len(listed) >= 2
                seen["waste cells"] += sum(not m.placements for m in listed)
                seen["stacks"] += sum(len(m.placements) == 2 for m in listed)
                seen["midsize"] += inst.params.plate_width == 6000
        assert min(seen.values()) >= 1000, seen

    def test_groups_are_the_sibling_groups_and_mark_the_symmetry_rule(self, states):
        """The trials' groups put together the insertions that pack the
        same items on the same plate and leave the same depths open, but
        for the wider orientation of an item that the narrower one
        dominates at the same depth, marked ``_DOMINATED``; and under
        symmetry they mark as None exactly the insertions that
        ``symmetry_allows`` rejects (``assert_groups``)."""
        seen = {"marked at depth 2": 0, "marked at depth 0 or 1": 0, "marked completing": 0,
                "spared by a defect": 0, "dominated at depth 3": 0, "dominated below it": 0}
        for node, inst in states:
            below = node.closed_shelves[-1] if node.closed_shelves else None
            may_swap = below is not None and _may_swap(
                below.min_item, below.chain_ids, node.shelf_min_item, node.shelf_chain_ids)
            for use_symmetry in (False, True):
                listed = enumerate_insertions(node, inst, use_symmetry)
                assert_groups(listed, listed.groups,
                              lambda m: not use_symmetry or symmetry_allows(node, m, inst))
                for group, m in zip(listed.groups, listed):
                    if group is None:
                        seen["marked completing" if m.completes else "marked at depth 2"
                             if m.depth == 2 else "marked at depth 0 or 1"] += 1
                    elif group == _DOMINATED:
                        seen["dominated at depth 3" if m.depth == 3 else "dominated below it"] += 1
                    elif use_symmetry and may_swap and m.depth < 3 and not m.completes:
                        seen["spared by a defect"] += 1
        assert min(seen.values()) >= 20, seen


def walked_nodes(rng, min_nodes):
    """Nodes of random walks, with and without symmetry, over small random
    instances and over challenge-sized instances with defects."""
    nodes = []
    while len(nodes) < min_nodes // 2:
        inst = random_small_instance(rng)
        for use_symmetry in (False, True):
            nodes += [(n, inst) for n in random_walk(rng, inst, use_symmetry=use_symmetry)]
    seed = 0
    while len(nodes) < min_nodes:
        seed += 1
        defects = []
        for plate in range(3):
            for _ in range(rng.randint(1, 6)):
                defects.append(Defect(plate, rng.randrange(0, 6000, 1000) + rng.randint(0, 900),
                                      rng.randint(0, 3000), rng.randint(5, 90), rng.randint(5, 90)))
        defects = [d for i, d in enumerate(defects) if not any(
            e.plate_index == d.plate_index and d.intersects(e.x, e.y, e.x + e.width, e.y + e.height)
            for e in defects[:i])]
        inst = midsize_instance(rng.randint(8, 40), rng.randint(2, 8), seed, defects=defects)
        for use_symmetry in (False, True):
            nodes += [(n, inst) for n in random_walk(rng, inst, use_symmetry=use_symmetry)]
    return nodes


def reference_symmetry_allows(node, m, inst):
    """The whole symmetry rule on one raw insertion: the cell's half on a
    depth-3 cell (``reference_cell_swap_forbidden``), then the shelf's half
    (``symmetry_allows``)."""
    if m.depth == 3 and reference_cell_swap_forbidden(
            node, inst.plate_defects(node.bin), *_cell_items(m, inst), m.x3_curr,
            m.kind in (InsertionKind.ONE_ITEM, InsertionKind.TWO_ITEMS)):
        return False
    return symmetry_allows(node, m, inst)


def reference_children(node, inst, use_symmetry, use_dominance=True):
    """The child pipeline spelled out: every raw insertion, the symmetry
    rule on each of them, then the dominance filter on the insertions."""
    ins_list = enumerate_insertions(node, inst)
    if use_symmetry:
        ins_list = [m for m in ins_list if reference_symmetry_allows(node, m, inst)]
    if use_dominance:
        ins_list = reference_filter(ins_list)
    return [apply_insertion(node, m, inst) for m in ins_list]


def node_level_dominance(kids):
    """Sibling dominance decided on built children, as an oracle: among
    children packing the same items (equal chain counts) on the same plate,
    keep the undominated fronts among those whose open depths are the
    same, the earliest generated winning ties."""
    kept = []
    for kid in kids:
        rivals = [k for k in kids if (k.counts, k.bin, _allowed_depths(k)) == (
            kid.counts, kid.bin, _allowed_depths(kid))]
        if not any(front_leq(k.front_key(), kid.front_key()) and (
                kids.index(k) < kids.index(kid)
                or not front_leq(kid.front_key(), k.front_key()))
                for k in rivals if k is not kid):
            kept.append(kid)
    return kept


# The Node fields that the child memo's key leaves out, each with the reason
# that leaving it out cannot merge two states with different children.
DERIVED_NODE_FIELDS = {
    "parent": "the child pipeline never reads it",
    "insertion": "the pipeline reads only the depths it opens, _allowed_depths(node), in the key",
    "n_packed": "follows from counts",
    "item_area": "follows from counts",
    "waste": "follows from bin, the front, complete and item_area; the pipeline never reads it",
    "complete": "complete nodes are never expanded",
}


def test_child_memo_key_covers_every_node_field():
    """A node field is in the memo's key or derived, with its reason, so
    that a new field the pipeline reads cannot be left out of the key."""
    assert not set(CHILD_MEMO_FIELDS) & set(DERIVED_NODE_FIELDS)
    assert sorted(Node.__slots__) == sorted([*CHILD_MEMO_FIELDS, *DERIVED_NODE_FIELDS])


def test_child_memo_tells_closed_shelves_apart():
    """Two states that differ only in the order of their closed shelves:
    the shelf-close rule forbids closing the current shelf (item 1) over
    item 2 but not over item 0, so neither state may take the other's
    memo entry."""
    params = Params(plate_width=1000, plate_height=600, n_plates=3, min1=50, max1=250,
                    min2=30, min_waste=10)
    inst = make_instance([(200, 150)] * 4, params=params)

    def stacked(order):
        node = kid_for(root_node(inst), inst, order[0], use_symmetry=False)
        for item in order[1:]:
            node = kid_for(node, inst, item, depth=2, use_symmetry=False)
        return node

    over_2, over_0 = stacked([0, 2, 1]), stacked([2, 0, 1])
    others = [f for f in CHILD_MEMO_FIELDS if f != "closed_shelves"]
    assert [getattr(over_2, f) for f in others] == [getattr(over_0, f) for f in others]
    assert child_insertions(over_2, inst) == []
    assert child_insertions(over_0, inst) != []
    for node in (over_2, over_0):
        assert list(child_insertions(node, inst, memoize=True)) == child_insertions(node, inst)


class TestSymmetryAwareGenerator:
    """With symmetry on, the generator omits the cells the cell-swap rule
    forbids, yet the search sees exactly the filtered raw insertions."""

    @pytest.fixture(scope="class")
    def nodes(self):
        return walked_nodes(random.Random(2024), 2400)

    def test_filtered_lists_equal_the_filtered_raw_list(self, nodes):
        omitted = 0
        for node, inst in nodes:
            # the frames of depths 2 and 3 hold for columns with items only
            assert node.col_has_items or not {2, 3} & set(_allowed_depths(node))
            raw = enumerate_insertions(node, inst)
            aware = enumerate_insertions(node, inst, use_symmetry=True)
            expected = [m for m in raw if reference_symmetry_allows(node, m, inst)]
            assert [m for m in aware if symmetry_allows(node, m, inst)] == expected
            # only depth-3 cells that the rule rejects are omitted
            kept = iter(aware)
            assert all(m in kept for m in raw if m in aware)
            gone = [m for m in raw if m not in aware]
            assert all(m.depth == 3 and not reference_symmetry_allows(node, m, inst)
                       for m in gone)
            # so the rule has nothing left to reject where no shelf closes
            assert all(reference_symmetry_allows(node, m, inst) for m in aware
                       if m.depth == 3 and not m.completes)
            omitted += len(gone)
        assert omitted > 100  # the omission is exercised

    def test_children_match_the_reference_pipeline(self, nodes):
        for node, inst in nodes:
            for use_symmetry in (False, True):
                for use_dominance in (False, True):
                    got = children(node, inst, use_symmetry, use_dominance)
                    ref = reference_children(node, inst, use_symmetry, use_dominance)
                    assert [k.insertion for k in got] == [k.insertion for k in ref]
                    assert [k.front_key() for k in got] == [k.front_key() for k in ref]
                    assert child_insertions(node, inst, use_symmetry, use_dominance) == [
                        k.insertion for k in got]
                # deciding dominance on the built children keeps the same ones
                built = reference_children(node, inst, use_symmetry, use_dominance=False)
                assert [k.insertion for k in node_level_dominance(built)] == child_insertions(
                    node, inst, use_symmetry)

    def test_a_shelf_that_cannot_swap_closes_under_every_insertion(self, nodes):
        """Where the once-per-node check finds that closing the current
        shelf cannot break symmetry, ``symmetry_allows`` keeps every
        non-completing insertion below depth 3: only completing ones need
        it.  Checked on the walked nodes and on walks over stackable items,
        whose shelves often hold small ids above large ones."""
        walked = list(nodes)
        for seed in range(200):
            rng = random.Random(seed)
            inst = stackable_instance(rng)
            walked += [(n, inst) for n in random_walk(rng, inst, use_symmetry=False)]
        seen = {"settled": 0, "unsettled": 0, "closing insertions checked": 0,
                "closing insertions rejected where unsettled": 0}
        for node, inst in walked:
            closing = [m for m in enumerate_insertions(node, inst, use_symmetry=True)
                       if m.depth < 3 and not m.completes]
            below = node.closed_shelves[-1] if node.closed_shelves else None
            if below is not None and _may_swap(
                    below.min_item, below.chain_ids, node.shelf_min_item, node.shelf_chain_ids):
                seen["unsettled"] += 1
                seen["closing insertions rejected where unsettled"] += sum(
                    not symmetry_allows(node, m, inst) for m in closing)
                continue
            seen["settled"] += 1
            seen["closing insertions checked"] += len(closing)
            assert all(symmetry_allows(node, m, inst) for m in closing)
        assert min(seen.values()) >= 100, seen

    def test_each_rule_keeps_a_superset_of_what_its_broader_form_kept(self, nodes):
        """Symmetry breaking no longer forbids a cell lower than the shelf
        right of the shelf's first cell, and sibling dominance compares only
        siblings that leave the same depths open.  At every walked node
        each rule alone keeps every insertion that its broader form kept
        (the cell-swap rule on every cell, ``reference_cell_swap_forbidden``
        with ``fills_shelf``; groups by plate and chains only), and keeps
        more at some: exactly the cells and siblings those two changes
        spare."""
        seen = {"symmetry": 0, "sibling dominance": 0}
        lower = (InsertionKind.ITEM_WASTE_ABOVE, InsertionKind.ITEM_WASTE_BELOW)
        for node, inst in nodes:
            listed = enumerate_insertions(node, inst)
            defects = inst.plate_defects(node.bin)
            kept = child_insertions(node, inst, use_symmetry=True, use_dominance=False)
            broader = [m for m in listed if symmetry_allows(node, m, inst) and not (
                m.depth == 3 and node.cell_min_item is not None and reference_cell_swap_forbidden(
                    node, defects, *_cell_items(m, inst), m.x3_curr, fills_shelf=True))]
            assert set(broader) <= set(kept)
            spared = [m for m in kept if m not in broader]
            assert all(m.depth == 3 and m.kind in lower and node.x3_prev == node.x1_prev
                       for m in spared)
            seen["symmetry"] += len(spared)
            kept = filter_dominated_children(listed, listed.groups)
            broader = reference_filter_dominated_children(listed, by_open_depths=False)
            assert set(broader) <= set(kept)
            for m in kept:
                if m not in broader:
                    chains = sorted(pl.chain_idx for pl in m.placements)
                    assert any(
                        depths_after(o) != depths_after(m) and o.bin == m.bin
                        and sorted(pl.chain_idx for pl in o.placements) == chains
                        and front_leq(insertion_front(o), insertion_front(m)) for o in listed)
                    seen["sibling dominance"] += 1
        assert min(seen.values()) >= 50, seen

    def test_memoized_children_equal_the_uncached_ones(self, nodes):
        """Under both flags, at every walked node, the memo gives what the
        pipeline gives, also where another node of the same state filled
        the entry."""
        first_node = {}
        shared_hits = 0
        for node, inst in nodes:
            for use_symmetry in (False, True):
                for use_dominance in (False, True):
                    key = child_memo_key(node, use_symmetry, use_dominance)
                    filler = first_node.setdefault((id(inst), key), node)
                    if filler is not node and child_memo(inst).get(key) is not None:
                        shared_hits += 1
                    memoized = child_insertions(
                        node, inst, use_symmetry, use_dominance, memoize=True)
                    assert isinstance(memoized, tuple)
                    assert list(memoized) == child_insertions(
                        node, inst, use_symmetry, use_dominance)
        assert shared_hits > 500, shared_hits

    def test_insertion_lists_are_pinned(self, nodes):
        """Every field of every insertion list, both flags, at every walked
        node: depths 0-2, waste cells and defect raises included, also at
        nodes no search expands.  Pinned on the per-depth generators that the
        single cell generator replaced."""
        assert insertions_digest(nodes) == PINNED_INSERTIONS

    def test_insertion_lists_are_pinned_on_stackable_items(self):
        """The same pin over walks on instances whose few item sizes make
        two-item cells, cells that pack the last items and cells lower than
        min2 common at every depth."""
        nodes = stackable_walks()
        kinds = {(m.depth, m.kind, m.completes) for node, inst in nodes
                 for m in enumerate_insertions(node, inst)}
        assert all(node.col_has_items or not {2, 3} & set(_allowed_depths(node))
                   for node, _inst in nodes)
        assert len(kinds) == 35  # every depth, kind and completion that occurs
        assert insertions_digest(nodes) == PINNED_STACKABLE_INSERTIONS


class TestCellGenerator:
    """The cell generator, one trial loop over the chain state's cell
    contents behind a set-up read once per frame, against the generator
    that tried each candidate item and then each stack in a closure
    (``conftest.reference_gen_cells``)."""

    @pytest.fixture(scope="class")
    def nodes(self):
        """The walked nodes of the insertion pins, and walks on stackable
        items with few defects and with many: 600 instances, on which the
        cell-swap rule forbids over 1,000 cells."""
        nodes = walked_nodes(random.Random(2024), 2400)
        for seed in range(600):
            rng = random.Random(seed)
            inst = stackable_instance(rng, dense_defects=seed % 3 == 0)
            for use_symmetry in (False, True):
                nodes += [(n, inst) for n in random_walk(rng, inst, use_symmetry=use_symmetry)]
        return nodes

    def test_every_frame_matches_the_reference(self, nodes):
        """Every open depth's frame at every walked node, under both
        symmetry flags, emitting and probing: the same insertions in the
        same order, and the same two facts; each with the order key and the
        sibling group that its insertion has (``assert_keys_and_groups``)."""
        seen = {f"depth {d}": 0 for d in range(4)}
        seen.update({"completing": 0, "two items": 0, "swap-forbidden": 0, "probe fits": 0,
                     "growth": 0, "no cell": 0})
        for node, inst in nodes:
            if node.complete:
                continue
            cells = pair_combos(node, inst)
            cands = candidate_items(node, inst)
            combos = reference_pair_combos(node, inst, cands)
            defects, closed = inst.plate_defects(node.bin), _closed_edges(node)
            for depth in _allowed_depths(node):
                frame = _frame(node, inst, depth, defects, closed)
                if frame is None:
                    continue
                seen[f"depth {depth}"] += 1
                results = {}
                for use_symmetry in (False, True):
                    for emit in (True, False):
                        entries, fits, no_growth = _gen_cells(
                            node, inst, frame, cells, depth, use_symmetry, emit)
                        # with no closing_max, only completing cells can be marked
                        assert_keys_and_groups(entries, lambda m: not use_symmetry or (
                            not m.completes or symmetry_allows(node, m, inst)))
                        got = ([m for _, _, m in entries], fits, no_growth)
                        ref = reference_gen_cells(
                            node, inst, frame, cands, combos, depth, use_symmetry, emit)
                        assert got == ref
                        assert [m.kind for m in got[0]] == [m.kind for m in ref[0]]
                        assert all(type(m) is Insertion and all(
                            type(pl) is Placement for pl in m.placements) for m in got[0])
                        results[use_symmetry, emit] = got
                raw, fits, _ = results[False, True]
                seen["swap-forbidden"] += len(raw) - len(results[True, True][0])
                seen["completing"] += sum(m.completes for m in raw)
                seen["two items"] += sum(len(m.placements) == 2 for m in raw)
                seen["growth"] += sum(m.x1_curr > node.x1_curr for m in raw if depth >= 2)
                seen["probe fits"] += fits
                seen["no cell"] += not fits
        assert min(seen.values()) >= 1000, seen

    def test_insertion_lists_match_the_per_depth_reference(self, nodes):
        """``enumerate_insertions``, which reads the plate's defects and the
        closed shelves' edges once per node, skips the waste cell on plates
        without defects and sorts only lists of two or more, against the
        loop that built each depth's frame from the node alone
        (``conftest.reference_enumerate_insertions``): the same plain
        insertions in the same order, under both symmetry flags, and the
        same frames.  On the walked nodes of both insertion pins and on
        the walks with dense defects."""
        seen = {"closing edge": 0, "closed edges": 0, "waste cell": 0, "at most one": 0}
        for node, inst in nodes + stackable_walks():
            defects, closed = inst.plate_defects(node.bin), _closed_edges(node)
            for depth in _allowed_depths(node):
                frame = None if node.complete else _frame(node, inst, depth, defects, closed)
                assert frame == (None if node.complete else reference_frame(node, inst, depth))
                if frame is not None and depth < 3 and node.cell_min_item is not None:
                    seen["closing edge"] += 1
                    seen["closed edges"] += bool(closed)
            for use_symmetry in (False, True):
                got = enumerate_insertions(node, inst, use_symmetry)
                ref = reference_enumerate_insertions(node, inst, use_symmetry)
                assert got == ref
                assert [m.kind for m in got] == [m.kind for m in ref]
                assert all(type(m) is Insertion and all(
                    type(pl) is Placement for pl in m.placements) for m in got)
                seen["waste cell"] += sum(not m.placements for m in got)
                seen["at most one"] += len(got) <= 1
        assert min(seen.values()) >= 100, seen

    def test_an_item_shelf_never_ends_in_a_sliver_below_the_top(self, nodes):
        """The shelf of a node ends at the plate's top or at least
        min_waste below it, whenever it holds an item: its top was set by
        ``_cell_opening_shelf`` or by the stack test, which both reject
        the tops between.  So ``_frame`` has no top strip to reject as a
        sliver when it closes the column.  On the walked nodes of both
        insertion pins and on the walks with dense defects."""
        seen = {"at the top": 0, "within 3 min_waste of it": 0, "lower": 0}
        for node, inst in nodes + stackable_walks():
            if node.shelf_min_item is None:
                continue
            gap, min_waste = inst.params.plate_height - node.y2_curr, inst.params.min_waste
            assert gap == 0 or gap >= min_waste
            seen["at the top" if gap == 0 else
                 "within 3 min_waste of it" if gap <= 3 * min_waste else "lower"] += 1
        assert min(seen.values()) >= 5 and seen["lower"] >= 1000, seen

    def test_growth_cuts_match_the_reference_loop(self, nodes):
        """The closing checks against the predicates they replaced, at every
        walked node with defects, for x1 at and around every defect edge
        from x1_curr to the plate's width: the growth cuts past x1_curr
        (``_grow_max``) against the loop over the closed shelves
        (``conftest.reference_growth_cuts_ok``); the current shelf's own
        cuts, as a predicate and as a depth-2 frame's bound
        (``_shelf_cuts_max``), against its strip cut and top cut; the whole
        check (``_shelf_closes``) against ``reference_shelf_closes_ok``,
        which skipped an all-waste shelf's top cut; and the cuts of a
        completing cell that ends at x3_curr, with the column's 1-cut,
        against ``reference_closing_cuts_ok``."""
        seen = {"closes": 0, "growth refused": 0, "strip refused": 0, "top refused": 0,
                "all-waste shelf": 0, "completing refused": 0}
        for node, inst in nodes:
            defects = inst.plate_defects(node.bin)
            if node.complete or not defects:
                continue
            p = inst.params
            W, H = p.plate_width, p.plate_height
            x1_prev, y0, y1 = node.x1_prev, node.y2_prev, node.y2_curr
            x_last = node.x3_curr if node.cell_min_item is not None else None
            widest = _shelf_cuts_max(defects, x1_prev, x_last, y0, y1, W)
            xs = {node.x1_curr, node.x1_curr + 1, W}
            for d in defects:
                xs.update((d.x - 1, d.x, d.x + 1, d.x + d.width))
            for x1 in sorted(x for x in xs if node.x1_curr <= x <= W):
                grows = x1 == node.x1_curr or x1 <= _grow_max(node, defects, x1)
                assert grows == reference_growth_cuts_ok(node, x1, defects)
                strip = reference_close_shelf_cut_ok(node, x1, defects)
                top = _hcut_ok(defects, y1, x1_prev, x1)
                own = x1 <= _shelf_cuts_max(defects, x1_prev, x_last, y0, y1, x1)
                assert own == (x1 <= widest) == (strip and top)
                ok = _shelf_closes(node, x1, defects)
                ref = reference_shelf_closes_ok(node, x1, defects)
                if node.shelf_min_item is None:
                    assert ok == (ref and top)
                    seen["all-waste shelf"] += 1
                else:
                    assert ok == ref
                seen["closes" if ok else "growth refused" if not grows else
                     "strip refused" if not strip else "top refused"] += 1
                if x_last is not None:
                    completes = own and (x1 == W or _vcut_ok(defects, x1, 0, H))
                    assert completes == reference_closing_cuts_ok(
                        defects, p, x_last, x1, x1_prev, y0, y1)
                    seen["completing refused"] += not completes
        assert min(seen.values()) >= 100, seen


class TestStatesWithoutItems:
    """A column or a shelf without items only follows a waste move, and
    the depths that a waste move leaves open (``depths_after``) never close
    one where a cut could cross a defect: so ``_frame`` reads no
    ``col_has_items`` at depth 0, and ``_shelf_closes`` tests an all-waste
    shelf's top cut as any other.  These facts fail if a later rule opens
    another depth after a waste move or lets a band's 1-cut move, and a
    dropped guard is needed again."""

    @pytest.mark.parametrize("seed, draws, max_items", [
        (1, 150, 5),
        pytest.param(2, 300, 6, marks=[pytest.mark.slow, pytest.mark.skipif(
            not RUN_SLOW, reason="set GLASSCUT_RUN_SLOW=1 for the 300 draws")]),
    ])
    def test_no_state_needs_a_closing_guard(self, seed, draws, max_items):
        """At every state of the unpruned trees of ``TestPruningLosses``'
        draws, and of the stackable-item pin's walks with the 150 draws: a
        column without items leaves only depth 1 open; a shelf without items
        reaches the plate's top, after a waste cell at depth 0 or 1, or is a
        band; and after a band, the one open depth's frame keeps the 1-cut
        at x1_curr, where the band's top cut from x1_prev clears the
        defects."""
        def states():
            rng = random.Random(seed)
            for _ in range(draws):
                inst = random_small_instance(rng, max_items=max_items)
                stack = [root_node(inst)]
                while stack:
                    node = stack.pop()
                    yield node, inst
                    stack += children(node, inst, use_symmetry=False, use_dominance=False)
            if seed == 1:
                yield from stackable_walks()

        seen = {"column without items": 0, "waste column": 0, "band": 0}
        for node, inst in states():
            if node.bin < 0:
                continue  # the root, before any plate
            if not node.col_has_items:
                assert _allowed_depths(node) == (1,)
                seen["column without items"] += 1
            if node.shelf_min_item is None:
                ins, p = node.insertion, inst.params
                assert ins.kind is InsertionKind.WASTE_ONLY
                if ins.depth < 2:
                    assert (node.y2_prev, node.y2_curr) == (0, p.plate_height)
                    seen["waste column"] += 1
                    continue
                assert ins.depth == 2 and _allowed_depths(node) == (2,)
                defects = inst.plate_defects(node.bin)
                edges = _frame(node, inst, 2, defects, _closed_edges(node))[4]
                assert _resolve_x1(node.x1_curr, node.x1_curr, edges, p.min_waste) == node.x1_curr
                assert _hcut_ok(defects, node.y2_curr, node.x1_prev, node.x1_curr)
                seen["band"] += 1
        assert min(seen.values()) >= 100, seen
