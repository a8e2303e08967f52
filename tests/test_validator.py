"""Independent solution checking: every constraint as a report entry."""

import dataclasses

import pytest

from glasscut.model import Defect, Params, SolutionError
from glasscut.solution import (
    SolutionTree,
    TreeNode,
    TYPE_BRANCH,
    TYPE_RESIDUAL,
    TYPE_WASTE,
    build_solution_tree,
)
from glasscut.validator import Violation, objective_of, validate

from conftest import SMALL_PARAMS, dfs_best_leaf, make_instance, random_small_instance

PARAMS_4M = Params(plate_width=4000, plate_height=3210, n_plates=3)


def fig_feasible_instance():
    dims = [
        (3000, 1000),  # J0 bottom band
        (1000, 1000),  # J1 with waste above
        (1000, 710),   # J2 with waste below
        (1000, 750),   # J3 pair bottom
        (1000, 460),   # J4 pair top
        (3000, 1000),  # J5 top band
    ]
    return make_instance(dims, chains=[[0, 1, 2, 3, 4, 5]], params=PARAMS_4M)


def fig_feasible_tree():
    """A four-stage plan with a split cell in the middle band."""
    W, H = 4000, 3210
    rows = [
        TreeNode(0, 0, 0, 0, W, H, TYPE_BRANCH, 0, None),
        TreeNode(1, 0, 0, 0, 3000, H, TYPE_BRANCH, 1, 0),
        TreeNode(2, 0, 0, 0, 3000, 1000, 0, 2, 1),
        TreeNode(3, 0, 0, 1000, 3000, 1210, TYPE_BRANCH, 2, 1),
        TreeNode(4, 0, 0, 1000, 1000, 1210, TYPE_BRANCH, 3, 3),
        TreeNode(5, 0, 0, 1000, 1000, 1000, 1, 4, 4),
        TreeNode(6, 0, 0, 2000, 1000, 210, TYPE_WASTE, 4, 4),
        TreeNode(7, 0, 1000, 1000, 1000, 1210, TYPE_BRANCH, 3, 3),
        TreeNode(8, 0, 1000, 1000, 1000, 500, TYPE_WASTE, 4, 7),
        TreeNode(9, 0, 1000, 1500, 1000, 710, 2, 4, 7),
        TreeNode(10, 0, 2000, 1000, 1000, 1210, TYPE_BRANCH, 3, 3),
        TreeNode(11, 0, 2000, 1000, 1000, 750, 3, 4, 10),
        TreeNode(12, 0, 2000, 1750, 1000, 460, 4, 4, 10),
        TreeNode(13, 0, 0, 2210, 3000, 1000, 5, 2, 1),
        TreeNode(14, 0, 3000, 0, 1000, H, TYPE_RESIDUAL, 1, 0),
    ]
    return SolutionTree(rows)


class TestValidate:
    def test_four_stage_plan_is_feasible(self):
        report = validate(fig_feasible_instance(), fig_feasible_tree())
        assert report.ok, str(report)

    def test_two_splits_in_one_cell_rejected(self):
        # same plan, but the pair cell is subdivided into three pieces
        inst = make_instance(
            [(3000, 1000), (1000, 1000), (1000, 710), (1000, 500),
             (1000, 500), (1000, 210), (3000, 1000)],
            chains=[[0, 1, 2, 3, 4, 5, 6]],
            params=PARAMS_4M,
        )
        W, H = 4000, 3210
        rows = [
            TreeNode(0, 0, 0, 0, W, H, TYPE_BRANCH, 0, None),
            TreeNode(1, 0, 0, 0, 3000, H, TYPE_BRANCH, 1, 0),
            TreeNode(2, 0, 0, 0, 3000, 1000, 0, 2, 1),
            TreeNode(3, 0, 0, 1000, 3000, 1210, TYPE_BRANCH, 2, 1),
            TreeNode(4, 0, 0, 1000, 1000, 1210, TYPE_BRANCH, 3, 3),
            TreeNode(5, 0, 0, 1000, 1000, 1000, 1, 4, 4),
            TreeNode(6, 0, 0, 2000, 1000, 210, TYPE_WASTE, 4, 4),
            TreeNode(7, 0, 1000, 1000, 1000, 1210, TYPE_BRANCH, 3, 3),
            TreeNode(8, 0, 1000, 1000, 1000, 500, TYPE_WASTE, 4, 7),
            TreeNode(9, 0, 1000, 1500, 1000, 710, 2, 4, 7),
            TreeNode(10, 0, 2000, 1000, 1000, 1210, TYPE_BRANCH, 3, 3),
            TreeNode(11, 0, 2000, 1000, 1000, 500, 3, 4, 10),
            TreeNode(12, 0, 2000, 1500, 1000, 500, 4, 4, 10),
            TreeNode(13, 0, 2000, 2000, 1000, 210, 5, 4, 10),
            TreeNode(14, 0, 0, 2210, 3000, 1000, 6, 2, 1),
            TreeNode(15, 0, 3000, 0, 1000, H, TYPE_RESIDUAL, 1, 0),
        ]
        report = validate(inst, SolutionTree(rows))
        assert any(v.code == "FOUR_CUTS" for v in report.violations)

    def test_thin_waste_strip_flagged(self):
        inst = make_instance([(5981, 3210)], params=Params())
        W, H = 6000, 3210
        rows = [
            TreeNode(0, 0, 0, 0, W, H, TYPE_BRANCH, 0, None),
            TreeNode(1, 0, 0, 0, 5981, H, 0, 1, 0),
            TreeNode(2, 0, 5981, 0, 19, H, TYPE_WASTE, 1, 0),
        ]
        report = validate(inst, SolutionTree(rows))
        assert any(v.code == "MIN_WASTE" for v in report.violations)

    def test_item_dimension_mismatch(self):
        inst = fig_feasible_instance()
        tree = fig_feasible_tree()
        tree.nodes[2].width -= 1  # shrink item 0 by one millimetre
        tree.nodes[1].width -= 0  # keep structure otherwise
        report = validate(inst, tree)
        assert any("wrong item dimensions" in v.message for v in report.violations)

    def test_missing_and_duplicate_items(self):
        inst = fig_feasible_instance()
        tree = fig_feasible_tree()
        tree.nodes[13].type = 0  # J5 replaced by a second copy of J0
        report = validate(inst, tree)
        codes = {v.code for v in report.violations}
        assert "DUPLICATE_ITEM" in codes and "MISSING_ITEM" in codes

    def test_precedence_violation(self):
        inst = fig_feasible_instance()
        tree = fig_feasible_tree()
        # swap two chained items that share a rectangle shape
        tree.nodes[11].type = 4
        tree.nodes[12].type = 3
        tree.nodes[11].height = 460
        tree.nodes[12].height = 750
        tree.nodes[12].y = 1460
        report = validate(inst, tree)
        assert any(v.code == "PRECEDENCE" for v in report.violations)

    def test_item_on_defect_flagged(self):
        inst = make_instance(
            [(3000, 1000), (1000, 1000), (1000, 710), (1000, 750), (1000, 460),
             (3000, 1000)],
            chains=[[0, 1, 2, 3, 4, 5]],
            params=PARAMS_4M,
            defects=[Defect(0, 100, 100, 50, 50)],
        )
        report = validate(inst, fig_feasible_tree())
        assert any(v.code == "ITEM_DEFECT" for v in report.violations)

    def test_cut_through_defect_flagged(self):
        # defect straddling the 1-cut at x=3000
        inst = make_instance(
            [(3000, 1000), (1000, 1000), (1000, 710), (1000, 750), (1000, 460),
             (3000, 1000)],
            chains=[[0, 1, 2, 3, 4, 5]],
            params=PARAMS_4M,
            defects=[Defect(0, 2990, 3100, 50, 50)],
        )
        report = validate(inst, fig_feasible_tree())
        assert any(v.code == "CUT_DEFECT" for v in report.violations)

    def test_touching_defect_is_legal(self):
        inst = make_instance(
            [(3000, 1000), (1000, 1000), (1000, 710), (1000, 750), (1000, 460),
             (3000, 1000)],
            chains=[[0, 1, 2, 3, 4, 5]],
            params=PARAMS_4M,
            defects=[Defect(0, 3000, 3100, 50, 50)],  # touches the 1-cut
        )
        report = validate(inst, fig_feasible_tree())
        assert report.ok, str(report)

    def test_column_width_and_shelf_height_limits(self):
        params = Params(plate_width=4000, plate_height=3210, n_plates=2,
                        min1=1500, max1=2500, min2=1500, min_waste=20)
        inst = make_instance([(3000, 1000)], params=params)
        W, H = 4000, 3210
        rows = [
            TreeNode(0, 0, 0, 0, W, H, TYPE_BRANCH, 0, None),
            TreeNode(1, 0, 0, 0, 3000, H, TYPE_BRANCH, 1, 0),
            TreeNode(2, 0, 0, 0, 3000, 1000, 0, 2, 1),
            TreeNode(3, 0, 0, 1000, 3000, 2210, TYPE_WASTE, 2, 1),
            TreeNode(4, 0, 3000, 0, 1000, H, TYPE_RESIDUAL, 1, 0),
        ]
        report = validate(inst, SolutionTree(rows))
        codes = {v.code for v in report.violations}
        assert "COLUMN_WIDTH" in codes  # 3000 > max1
        assert "SHELF_HEIGHT" in codes  # 1000 < min2

    def test_residual_must_be_rightmost_on_last_plate(self):
        inst = fig_feasible_instance()
        tree = fig_feasible_tree()
        tree.nodes[14].type = TYPE_WASTE
        tree.nodes[1].type = TYPE_BRANCH
        # residual in the middle of the plate
        rows = list(tree.nodes)
        rows[14] = TreeNode(14, 0, 3000, 0, 1000, 3210, TYPE_WASTE, 1, 0)
        bad = SolutionTree(rows)
        # make the leftmost column the "residual"
        bad.nodes[1].type = TYPE_RESIDUAL
        report = validate(inst, bad)
        assert any(v.code == "RESIDUAL" for v in report.violations)

    def test_non_tiling_children(self):
        inst = make_instance([(300, 200)], params=PARAMS_4M)
        rows = [
            TreeNode(0, 0, 0, 0, 4000, 3210, TYPE_BRANCH, 0, None),
            TreeNode(1, 0, 0, 0, 300, 3210, TYPE_BRANCH, 1, 0),
            TreeNode(2, 0, 0, 0, 300, 200, 0, 2, 1),
            TreeNode(3, 0, 0, 300, 300, 2910, TYPE_WASTE, 2, 1),  # 100 mm gap
            TreeNode(4, 0, 300, 0, 3700, 3210, TYPE_RESIDUAL, 1, 0),
        ]
        report = validate(inst, SolutionTree(rows))
        assert any(v.code == "TILING" for v in report.violations)

    def test_solver_output_is_always_clean(self, rng):
        for _ in range(30):
            inst = random_small_instance(rng)
            leaf = dfs_best_leaf(inst)
            if leaf is None:
                continue
            tree = build_solution_tree(leaf, inst)
            assert validate(inst, tree).ok


class TestObjectiveOf:
    def test_equals_waste_leaf_sum(self, rng):
        for _ in range(25):
            inst = random_small_instance(rng)
            leaf = dfs_best_leaf(inst)
            if leaf is None:
                continue
            tree = build_solution_tree(leaf, inst)
            value = objective_of(inst, tree)
            assert value == sum(
                n.width * n.height for n in tree.nodes if n.type == TYPE_WASTE
            )

    def test_infeasible_raises(self):
        inst = fig_feasible_instance()
        tree = fig_feasible_tree()
        tree.nodes[2].width -= 1
        with pytest.raises(SolutionError, match="INFEASIBLE"):
            objective_of(inst, tree)

    @pytest.mark.parametrize("node_id, node_type", [(6, -5), (4, TYPE_WASTE)])
    def test_a_type_that_breaks_the_waste_sum_is_infeasible(self, node_id, node_type):
        """A waste leaf of an unknown TYPE, or a waste piece with children,
        would make the formula and the waste-leaf sum disagree; the
        validator rejects both before they are compared."""
        dims, chains, rows = ONE_PLATE
        rows = [TreeNode(*r) for r in rows]
        rows[node_id] = dataclasses.replace(rows[node_id], type=node_type)
        with pytest.raises(SolutionError, match="INFEASIBLE NODE_TYPE"):
            objective_of(make_instance(dims, chains=chains), SolutionTree(rows))


# Two trees that build_solution_tree made from DFS optima on 1000 x 600
# plates, frozen here so that a change to the search does not move them.
# One plate, items 300x250 and 200x150 in one chain: item 0 and a cell
# that a 4-cut splits into item 1 and waste above it share the bottom shelf
# of the only column.
ONE_PLATE = ([(300, 250), (200, 150)], [[0, 1]], [
    (0, 0, 0, 0, 1000, 600, TYPE_BRANCH, 0, None),
    (1, 0, 0, 0, 400, 600, TYPE_BRANCH, 1, 0),
    (2, 0, 0, 0, 400, 300, TYPE_BRANCH, 2, 1),
    (3, 0, 0, 0, 250, 300, 0, 3, 2),
    (4, 0, 250, 0, 150, 300, TYPE_BRANCH, 3, 2),
    (5, 0, 250, 0, 150, 200, 1, 4, 4),
    (6, 0, 250, 200, 150, 100, TYPE_WASTE, 4, 4),
    (7, 0, 0, 300, 400, 300, TYPE_WASTE, 2, 1),
    (8, 0, 400, 0, 600, 600, TYPE_RESIDUAL, 1, 0),
])
# Two plates, items 900x600 and 300x200 in one chain.
TWO_PLATES = ([(900, 600), (300, 200)], [[0, 1]], [
    (0, 0, 0, 0, 1000, 600, TYPE_BRANCH, 0, None),
    (1, 0, 0, 0, 900, 600, 0, 1, 0),
    (2, 0, 900, 0, 100, 600, TYPE_WASTE, 1, 0),
    (3, 1, 0, 0, 1000, 600, TYPE_BRANCH, 0, None),
    (4, 1, 0, 0, 200, 600, TYPE_BRANCH, 1, 3),
    (5, 1, 0, 0, 200, 300, 1, 2, 4),
    (6, 1, 0, 300, 200, 300, TYPE_WASTE, 2, 4),
    (7, 1, 200, 0, 800, 600, TYPE_RESIDUAL, 1, 3),
])


def _set(node_id, **fields):
    def change(rows):
        rows[node_id] = dataclasses.replace(rows[node_id], **fields)
    return change


def _drop(*node_ids):
    def change(rows):
        rows[:] = [r for r in rows if r.node_id not in node_ids]
    return change


def _add(*row):
    def change(rows):
        rows.append(TreeNode(*row))
    return change


def _report(base, change, **instance_kw):
    """The report on ``base``'s tree after ``change``; the tree itself is
    feasible."""
    dims, chains, rows = base
    inst = make_instance(dims, chains=chains, **instance_kw)
    rows = [TreeNode(*r) for r in rows]
    if change is not None:
        change(rows)
    return validate(inst, SolutionTree(rows))


def _violations(base, change, **instance_kw):
    return _report(base, change, **instance_kw).violations


class TestRejections:
    """Each rejection message of the validator, on the smallest change to a
    feasible tree that breaks its rule."""

    @pytest.mark.parametrize("base", [ONE_PLATE, TWO_PLATES])
    def test_the_unchanged_trees_are_feasible(self, base):
        assert _violations(base, None) == []

    @pytest.mark.parametrize("base, change, code, message, nodes", [
        pytest.param(ONE_PLATE, _set(3, plate_id=1), "CUT_LEVEL",
                     "child on a different plate than its parent", (3,), id="child-plate"),
        pytest.param(ONE_PLATE, _set(3, cut_level=4), "CUT_LEVEL",
                     "child level must be parent level + 1", (3,), id="child-level"),
        pytest.param(ONE_PLATE, _set(5, cut_level=5), "CUT_LEVEL",
                     "more than four cutting stages", (5,), id="five-stages"),
        pytest.param(ONE_PLATE, _add(9, 0, 250, 200, 150, 100, TYPE_WASTE, 5, 6), "CUT_LEVEL",
                     "a level-4 piece cannot be subdivided", (6,), id="level-4-split"),
        pytest.param(ONE_PLATE, _add(9, 0, 0, 0, 250, 300, TYPE_WASTE, 4, 3), "ITEM_NODE",
                     "an item node cannot have children", (3,), id="item-node"),
        pytest.param(ONE_PLATE, _set(6, type=-5), "NODE_TYPE",
                     "TYPE -5 is not an item id, -1, -2 or -3", (6,), id="unknown-type"),
        pytest.param(ONE_PLATE, _set(4, type=TYPE_WASTE), "NODE_TYPE",
                     "a waste or residual piece cannot have children", (4,),
                     id="waste-with-children"),
        pytest.param(ONE_PLATE, _set(1, type=TYPE_RESIDUAL), "NODE_TYPE",
                     "a waste or residual piece cannot have children", (1,),
                     id="residual-with-children"),
        pytest.param(ONE_PLATE, _set(6, height=0), "GEOMETRY",
                     "empty node rectangle", (6,), id="empty-rectangle"),
        pytest.param(ONE_PLATE, _set(7, type=TYPE_BRANCH), "TILING",
                     "branch node without children", (7,), id="childless-branch"),
        pytest.param(ONE_PLATE, _drop(6), "TILING",
                     "single child does not cover its parent", (4,), id="single-child"),
        pytest.param(ONE_PLATE, _set(8, width=599), "TILING",
                     "children leave the parent uncovered", (0,), id="uncovered-vertical"),
        pytest.param(ONE_PLATE, _set(7, height=290), "TILING",
                     "children leave the parent uncovered", (1,), id="uncovered-horizontal"),
        pytest.param(ONE_PLATE, _set(5, type=2), "UNKNOWN_ITEM",
                     "no item with id 2", (5,), id="unknown-item"),
        pytest.param(TWO_PLATES, _set(2, type=TYPE_RESIDUAL), "RESIDUAL",
                     "more than one residual node", (2, 7), id="two-residuals"),
        pytest.param(TWO_PLATES, _set(2, type=TYPE_RESIDUAL), "RESIDUAL",
                     "residual not on the last plate", (2,), id="residual-plate"),
        pytest.param(TWO_PLATES, _set(6, type=TYPE_RESIDUAL), "RESIDUAL",
                     "residual must be a first-level piece", (6,), id="residual-level"),
        pytest.param(ONE_PLATE, _set(0, width=999), "PLATE_GEOMETRY",
                     "plate root does not span the plate", (0,), id="root-span"),
        pytest.param(ONE_PLATE, _set(0, cut_level=1), "PLATE_GEOMETRY",
                     "plate root must have cut level 0", (0,), id="root-level"),
    ])
    def test_message(self, base, change, code, message, nodes):
        assert Violation(code, message, nodes) in _violations(base, change)

    def test_a_residual_on_an_earlier_plate_is_reported_once(self):
        """The residual-plate case in full: node 2, plate 0's right-edge
        waste, is a first-level piece of its own plate, so only its plate
        and the second residual are wrong."""
        assert _violations(TWO_PLATES, _set(2, type=TYPE_RESIDUAL)) == [
            Violation("RESIDUAL", "more than one residual node", (2, 7)),
            Violation("RESIDUAL", "residual not on the last plate", (2,)),
        ]

    def test_no_plates(self):
        inst = make_instance(*ONE_PLATE[:2])
        assert validate(inst, SolutionTree([])).violations == [
            Violation("NO_PLATES", "solution uses no plate")
        ]

    def test_plates_out_of_order(self):
        def plate_one(rows):
            rows[:] = [dataclasses.replace(r, plate_id=1) for r in rows]

        assert _violations(ONE_PLATE, plate_one) == [
            Violation("PLATE_ORDER", "plates out of order or skipped")
        ]

    def test_more_plates_than_the_stock(self):
        params = dataclasses.replace(SMALL_PARAMS, n_plates=1)
        assert _violations(TWO_PLATES, None, params=params) == [
            Violation("PLATE_ORDER", "2 plates exceed the stock of 1")
        ]

    def test_a_2_cut_through_a_defect(self):
        # the defect straddles the 2-cut at y=300 between two waste pieces
        defect = Defect(0, 300, 290, 10, 20)
        assert _violations(ONE_PLATE, None, defects=[defect]) == [
            Violation("CUT_DEFECT", "2/4-cut at y=300 crosses a defect", (1, 2))
        ]

    def test_a_failing_report_prints_one_line_per_violation(self):
        report = _report(ONE_PLATE, _set(5, type=2))
        assert not report.ok
        assert str(report) == (
            "UNKNOWN_ITEM: no item with id 2 [nodes 5]\n"
            "MISSING_ITEM: item 1 is not produced"
        )
