"""Geometry accounting: areas, waste, fronts and dominance."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from glasscut.model import (
    Instance,
    InstanceError,
    Item,
    Node,
    Params,
    ParseError,
    root_node,
)
from glasscut.branching import (
    Insertion, InsertionKind, Placement, children, filter_dominated_children,
)

from conftest import (
    SMALL_PARAMS,
    front_leq,
    front_leq_grid,
    front_order_bits,
    front_profile,
    front_x_at,
    make_instance,
    random_front,
    random_small_instance,
    random_walk,
    raster_front_area,
    reference_front_leq,
)


class TestParams:
    def test_defaults(self):
        p = Params()
        assert (p.plate_width, p.plate_height) == (6000, 3210)
        assert (p.min1, p.max1, p.min2, p.min_waste) == (100, 3500, 100, 20)
        assert p.n_plates == 100

    @pytest.mark.parametrize(
        "kw",
        [
            {"min1": 0},
            {"min1": 4000, "max1": 3500},
            {"max1": 7000},
            {"min2": 0},
            {"min_waste": 0},
            {"min_waste": 150},
            {"plate_width": 0},
            {"n_plates": 0},
        ],
    )
    def test_rejects_bad_limits(self, kw):
        with pytest.raises(InstanceError):
            Params(**kw)


class TestInstance:
    def test_rejects_item_outside_plate(self):
        with pytest.raises(InstanceError):
            make_instance([(1100, 700)])

    def test_rejects_sliver_item(self):
        with pytest.raises(InstanceError):
            make_instance([(5, 300)])

    def test_rejects_overlapping_defects(self):
        from glasscut.model import Defect

        with pytest.raises(InstanceError):
            Instance(
                params=SMALL_PARAMS,
                items=[Item(0, 100, 100, 0, 0)],
                defects={0: (Defect(0, 10, 10, 50, 50), Defect(0, 30, 30, 50, 50))},
            )

    def test_rejects_out_of_plate_defect(self):
        from glasscut.model import Defect

        with pytest.raises(InstanceError):
            Instance(
                params=SMALL_PARAMS,
                items=[Item(0, 100, 100, 0, 0)],
                defects={0: (Defect(0, 990, 0, 50, 50),)},
            )

    def test_chains_come_from_the_items_alone(self):
        """Chains in the order of their ids, each in rank order, whatever
        the ids and ranks are; there is no other source to disagree."""
        items = [Item(0, 100, 100, 7, 5), Item(1, 100, 100, 2, 0), Item(2, 100, 100, 7, -1),
                 Item(3, 100, 100, 7, 9)]
        inst = Instance(params=SMALL_PARAMS, items=items)
        assert inst.chains == [[1], [2, 0, 3]]
        assert inst.chain_index == {0: 1, 1: 0, 2: 1, 3: 1}
        with pytest.raises(TypeError):
            Instance(params=SMALL_PARAMS, items=items, chains=[[0, 1, 2, 3]])

    def test_a_repeated_rank_in_a_chain_is_rejected(self):
        items = [Item(0, 100, 100, 3, 1), Item(1, 100, 100, 3, 1)]
        with pytest.raises(ParseError, match="DUPLICATE_SEQUENCE stack 3 repeats a rank"):
            Instance(params=SMALL_PARAMS, items=items)

    def test_rejects_defects_on_a_negative_plate(self):
        # the root node's plate is -1, so such a defect would be read there
        from glasscut.model import Defect

        with pytest.raises(InstanceError, match="OUT_OF_PLATE defects on plate -1"):
            make_instance([(100, 100)], defects=[Defect(-1, 10, 10, 5, 5)])


def _first_cell(instance, x1_curr, y2_curr, completes=False):
    """The root's child, built through ``Node(root, insertion, instance)``,
    whose first cell packs item 0 unrotated at the plate's origin, in a
    column ``x1_curr`` wide and a shelf ``y2_curr`` tall."""
    item = instance.items[0]
    ins = Insertion(
        kind=InsertionKind.ONE_ITEM if item.height == y2_curr else InsertionKind.ITEM_WASTE_ABOVE,
        depth=0, completes=completes,
        placements=(Placement(0, instance.chain_index[0], 0, 0, item.width, item.height, False),),
        bin=0, x1_prev=0, x1_curr=x1_curr, y2_prev=0, y2_curr=y2_curr,
        x3_prev=0, x3_curr=x1_curr, prev_col_x1=None,
    )
    return Node(root_node(instance), ins, instance)


class TestArea:
    def test_a_node_stores_no_area(self):
        """The covered area follows from the waste and the item area, and
        the plates before the node's are full: neither is a slot."""
        assert not {"area", "prior_area"} & set(Node.__slots__)
        assert len(Node.__slots__) == 20

    def test_root_is_zero(self):
        inst = make_instance([(100, 100)])
        assert root_node(inst).waste == root_node(inst).item_area == 0

    def test_single_shelf_partial(self):
        # one 2000x1000 item in a [0,2000]x[0,1000] shelf, items remaining
        inst = make_instance([(2000, 1000), (500, 500)], params=Params())
        node = _first_cell(inst, x1_curr=2000, y2_curr=1000)
        assert node.item_area == 2000 * 1000 and not node.complete
        assert node.waste == 0
        assert raster_front_area(node, inst.params) == 2_000_000

    def test_complete_uses_last_cut(self):
        # the last 1-cut at 4000 on a 3210-tall plate; a 4000 x 2500 item
        inst = make_instance([(4000, 2500)], params=Params())
        node = _first_cell(inst, x1_curr=4000, y2_curr=3210, completes=True)
        assert node.item_area == 10_000_000 and node.n_packed == 1 and node.complete
        assert node.waste == 2_840_000
        assert raster_front_area(node, inst.params) == 12_840_000

    def test_area_matches_raster_on_random_walks(self, rng):
        for _ in range(40):
            inst = random_small_instance(rng)
            for node in random_walk(rng, inst):
                assert node.waste + node.item_area == raster_front_area(node, inst.params)


class TestWasteMonotonicity:
    def test_waste_never_decreases_along_edges(self, rng):
        checked = 0
        while checked < 3000:
            inst = random_small_instance(rng)
            path = random_walk(rng, inst)
            for parent, child in zip(path, path[1:]):
                assert child.waste >= parent.waste >= 0
                checked += 1


class TestFrontLeq:
    def test_reflexive(self, rng):
        f = random_front(rng)
        assert front_leq(f, f)

    def test_flat_fronts_compare_by_width(self):
        # a column committed to x=2000 vs one committed to x=3000, both up to y=3000
        a = (0, 0, 2000, 2000, 3000, 3000)
        b = (0, 0, 3000, 3000, 3000, 3000)
        assert front_leq(a, b)
        assert not front_leq(b, a)

    def test_spec_counterexample(self):
        f1 = (0, 500, 3000, 1000, 1000, 2000)
        f2 = (0, 500, 2900, 1000, 1000, 2000)
        assert not front_leq(f1, f2)  # f1 sticks out below y=1000
        assert front_leq(f2, f1)
        assert front_leq_grid(f2, f1, 3210)
        assert not front_leq_grid(f1, f2, 3210)

    def test_matches_grid_oracle(self, rng):
        for _ in range(2000):
            f1, f2 = random_front(rng), random_front(rng)
            assert front_leq(f1, f2) == front_leq_grid(f1, f2, 600)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_partial_order_laws(self, data):
        def fronts(label):
            W, H = 400, 300
            x1_prev = data.draw(st.integers(0, W), label=label + "_x1p")
            x1_curr = data.draw(st.integers(x1_prev, W), label=label + "_x1c")
            x3_curr = data.draw(st.integers(x1_prev, x1_curr), label=label + "_x3")
            y2_prev = data.draw(st.integers(0, H), label=label + "_y2p")
            y2_curr = data.draw(st.integers(y2_prev, H), label=label + "_y2c")
            return (0, x1_prev, x1_curr, x3_curr, y2_prev, y2_curr)

        a, b, c = fronts("a"), fronts("b"), fronts("c")
        assert front_leq(a, a)
        if front_leq(a, b) and front_leq(b, c):
            assert front_leq(a, c)
        if front_leq(a, b) and front_leq(b, a):
            # equal as step functions
            for y in range(0, 301, 7):
                assert front_x_at(a, y) == front_x_at(b, y)


class TestFrontOrder:
    """``admit_front``, the one front order, read in both directions on
    pairs of fronts (``conftest.front_order_bits``): a rejection gives
    a <= b, an eviction b <= a."""

    order = staticmethod(front_order_bits)

    def test_bits_match_grid_oracle(self, rng):
        for _ in range(3000):
            f1, f2 = random_front(rng), random_front(rng)
            order = self.order(f1, f2)
            assert bool(order & 1) == front_leq_grid(f1, f2, 600)
            assert bool(order & 2) == front_leq_grid(f2, f1, 600)

    def test_bits_match_grid_oracle_on_coarse_fronts(self, rng):
        # coordinates on a 100 mm grid: many ties, equal and nested fronts
        def coarse():
            return tuple(v // 100 * 100 for v in random_front(rng))

        seen = set()
        for _ in range(3000):
            f1, f2 = coarse(), coarse()
            order = self.order(f1, f2)
            seen.add(order)
            assert bool(order & 1) == front_leq_grid(f1, f2, 600)
            assert bool(order & 2) == front_leq_grid(f2, f1, 600)
        assert seen == {0, 1, 2, 3}

    def test_profile_is_the_step_function_at_its_own_levels(self, rng):
        for _ in range(500):
            f = random_front(rng)
            assert front_profile(f) == (*f, front_x_at(f, 0), front_x_at(f, f[4]), front_x_at(f, f[5]))

    @pytest.mark.parametrize("high", [3, 8, 1000])
    def test_matches_the_five_level_loop_on_any_tuple(self, high):
        # arbitrary 6-tuples, most breaking x1_prev <= x3_curr <= x1_curr or
        # y2_prev <= y2_curr; small ranges make ties and equal levels common
        rng = random.Random(high)
        for _ in range(20_000):
            f1 = (0, *(rng.randint(-1, high) for _ in range(5)))
            f2 = (0, *(rng.randint(-1, high) for _ in range(5)))
            order = self.order(f1, f2)
            assert bool(order & 1) == reference_front_leq(f1, f2)
            assert bool(order & 2) == reference_front_leq(f2, f1)

    @settings(max_examples=500, deadline=None)
    @given(st.tuples(*[st.integers(-3, 12)] * 6), st.tuples(*[st.integers(-3, 12)] * 6))
    def test_matches_the_five_level_loop_on_drawn_tuples(self, f1, f2):
        order = self.order(f1, f2)
        assert bool(order & 1) == reference_front_leq(f1, f2)
        assert bool(order & 2) == reference_front_leq(f2, f1)


class TestDominates:
    """Sibling dominance, as ``filter_dominated_children`` applies it to the
    insertions of sibling children."""

    def test_same_node(self):
        inst = make_instance([(100, 100), (200, 150)])
        node = random_walk(random.Random(1), inst)[-1]
        twin = random_walk(random.Random(1), inst)[-1]  # the same walk again
        assert front_leq(node.front_key(), twin.front_key())
        kept = filter_dominated_children([node.insertion, twin.insertion])
        assert len(kept) == 1 and kept[0] is node.insertion  # the earliest wins ties

    def test_same_items_tighter_front_dominates(self):
        # in a 300-tall shelf, item 1 standing (200 wide) commits less of the
        # plate than item 1 lying flat (300 wide): same items, comparable fronts
        inst = make_instance([(400, 300), (200, 300)], chains=[[0], [1]])
        root = root_node(inst)
        parent = next(
            k
            for k in children(root, inst)
            if k.insertion.placements[0].item_id == 0
            and not k.insertion.placements[0].rotated
        )
        kids = children(parent, inst, use_dominance=False)
        depth3 = [k for k in kids if k.insertion.depth == 3 and k.insertion.placements]
        upright = next(k for k in depth3 if not k.insertion.placements[0].rotated)
        flat = next(k for k in depth3 if k.insertion.placements[0].rotated)
        assert front_leq(upright.front_key(), flat.front_key())
        assert not front_leq(flat.front_key(), upright.front_key())
        assert filter_dominated_children([flat.insertion, upright.insertion]) == [upright.insertion]
        filtered = children(parent, inst, use_dominance=True)
        assert not any(
            k.insertion.depth == 3 and k.insertion.placements and k.insertion.placements[0].rotated
            for k in filtered
        )

    def test_different_items_never_dominate(self):
        inst = make_instance([(300, 200), (300, 200)], chains=[[0], [1]])
        root = root_node(inst)
        kids = children(root, inst, use_dominance=False)
        k0 = next(k for k in kids if k.insertion.placements[0].item_id == 0)
        k1 = next(k for k in kids if k.insertion.placements[0].item_id == 1)
        assert k0.front_key()[1:] == k1.front_key()[1:]
        assert filter_dominated_children([k0.insertion, k1.insertion]) == [k0.insertion, k1.insertion]
