"""Cut-tree materialization and the waste objective."""

import random

import pytest

from glasscut import solution
from glasscut.branching import InsertionKind, children
from glasscut.model import Defect, Params, SolutionError, root_node
from glasscut.solution import (
    SolutionTree,
    TreeNode,
    TYPE_BRANCH,
    TYPE_RESIDUAL,
    TYPE_WASTE,
    build_solution_tree,
)
from glasscut.validator import objective_of, validate

from conftest import dfs_best_leaf, make_instance, random_small_instance, random_walk


def solve_exhaustively(inst):
    leaf = dfs_best_leaf(inst)
    assert leaf is not None
    return leaf


class TestBuild:
    def test_full_plate_item_is_root_plus_leaf(self):
        params = Params(plate_width=500, plate_height=400, n_plates=2,
                        min1=50, max1=500, min2=30, min_waste=10)
        inst = make_instance([(500, 400)], params=params)
        tree = build_solution_tree(solve_exhaustively(inst), inst)
        assert len(tree.nodes) == 2
        root, leaf = tree.nodes
        assert root.type == TYPE_BRANCH and root.cut_level == 0
        assert leaf.type == 0 and leaf.cut_level == 1
        assert (leaf.width, leaf.height) == (500, 400)

    def test_incomplete_leaf_rejected(self):
        inst = make_instance([(300, 200), (100, 100)], chains=[[0], [1]])
        partial = children(root_node(inst), inst)[0]
        with pytest.raises(SolutionError, match="INCOMPLETE"):
            build_solution_tree(partial, inst)

    def test_residual_on_last_plate(self):
        inst = make_instance([(300, 200)])
        tree = build_solution_tree(solve_exhaustively(inst), inst)
        residuals = [n for n in tree.nodes if n.type == TYPE_RESIDUAL]
        assert len(residuals) == 1
        assert residuals[0].x + residuals[0].width == 1000

    def test_ids_are_preorder_and_parents_precede(self):
        inst = make_instance([(300, 200), (250, 300), (100, 80)],
                             chains=[[0, 1], [2]])
        tree = build_solution_tree(solve_exhaustively(inst), inst)
        seen = set()
        for i, n in enumerate(tree.nodes):
            assert n.node_id == i
            if n.parent_id is not None:
                assert n.parent_id in seen
            seen.add(n.node_id)

    def test_random_trees_validate_and_match_leaf_waste(self, rng):
        for _ in range(60):
            inst = random_small_instance(rng)
            leaf = dfs_best_leaf(inst)
            if leaf is None:
                continue
            tree = build_solution_tree(leaf, inst)
            report = validate(inst, tree)
            assert report.ok, str(report)
            assert objective_of(inst, tree) == leaf.waste


class TestFiveConfigurations:
    """One plate exercising every cell shape, defects included."""

    def _instance(self):
        params = Params()
        dims = [
            (2000, 1500),  # J0: plain cell
            (1000, 1250),  # J1: waste above, next to J0
            (1000, 750),   # J2: waste below (defect underneath)
            (1250, 500),   # J3: bottom of the two-item cell
            (1250, 500),   # J4: top of the two-item cell
            (3000, 710),   # J5: full-width shelf on top
        ]
        defects = [Defect(0, 400, 1650, 200, 100), Defect(0, 1300, 1900, 200, 200)]
        return make_instance(dims, chains=[[0, 1, 2, 3, 4, 5]], defects=defects,
                             params=params)

    def _solve(self, inst):
        node = root_node(inst)
        picks = [
            (0, 0, InsertionKind.ONE_ITEM),
            (3, 1, InsertionKind.ITEM_WASTE_ABOVE),
            (2, 2, InsertionKind.ITEM_WASTE_BELOW),
            (3, None, InsertionKind.WASTE_ONLY),
            (3, 3, InsertionKind.TWO_ITEMS),
            (2, 5, InsertionKind.ONE_ITEM),
        ]
        for depth, item, kind in picks:
            match = [
                k
                for k in children(node, inst, use_symmetry=False)
                if k.insertion.depth == depth
                and k.insertion.kind is kind
                and (item is None or k.insertion.placements[0].item_id == item)
            ]
            assert match, f"no child for {kind} at depth {depth}"
            node = match[0]
        assert node.complete
        return node

    def test_replay_reaches_drawn_plan(self):
        inst = self._instance()
        leaf = self._solve(inst)
        assert leaf.item_area == inst.total_item_area
        tree = build_solution_tree(leaf, inst)
        report = validate(inst, tree)
        assert report.ok, str(report)
        # the two-item cell is the only node with two item children
        pair_parents = [
            n
            for n in tree.nodes
            if n.type == TYPE_BRANCH
            and len(tree.children_of[n.node_id]) == 2
            and all(c.type >= 0 for c in tree.children_of[n.node_id])
        ]
        assert len(pair_parents) == 1
        assert pair_parents[0].cut_level == 3
        # the defect-cover waste cell survives as a level-3 leaf
        waste_cells = [
            n for n in tree.nodes if n.type == TYPE_WASTE and n.cut_level == 3
        ]
        assert any(n.x <= 1300 and 1500 <= n.x + n.width for n in waste_cells)
        # waste below the raised item, waste above the short item
        assert objective_of(inst, tree) == leaf.waste

    def test_item_rectangles_match_figure(self):
        inst = self._instance()
        leaf = self._solve(inst)
        tree = build_solution_tree(leaf, inst)
        rects = {n.type: (n.x, n.y, n.width, n.height) for n in tree.item_nodes()}
        assert rects[0] == (0, 0, 2000, 1500)
        assert rects[1] == (2000, 0, 1000, 1250)
        assert rects[2] == (0, 1750, 1000, 750)
        assert rects[3] == (1500, 1500, 1250, 500)
        assert rects[4] == (1500, 2000, 1250, 500)
        assert rects[5] == (0, 2500, 3000, 710)


class TestObjective:
    def test_perfect_fill(self):
        params = Params(plate_width=500, plate_height=400, n_plates=2,
                        min1=50, max1=500, min2=30, min_waste=10)
        inst = make_instance([(500, 400)], params=params)
        tree = build_solution_tree(solve_exhaustively(inst), inst)
        assert objective_of(inst, tree) == 0

    def test_two_plate_leftover_credit(self):
        # plate 0 fully used by one item; plate 1 holds a 1000x740 item with
        # 2470 mm of waste above, leftover right of x=1000 free; a column
        # may be as wide as the plate, so the tree is feasible
        W, H = 6000, 3210
        inst = make_instance([(W, H), (1000, 740)], chains=[[0, 1]],
                             params=Params(max1=W))
        rows = [
            TreeNode(0, 0, 0, 0, W, H, TYPE_BRANCH, 0, None),
            TreeNode(1, 0, 0, 0, W, H, 0, 1, 0),
            TreeNode(2, 1, 0, 0, W, H, TYPE_BRANCH, 0, None),
            TreeNode(3, 1, 0, 0, 1000, H, TYPE_BRANCH, 1, 2),
            TreeNode(4, 1, 0, 0, 1000, 740, 1, 2, 3),
            TreeNode(5, 1, 0, 740, 1000, H - 740, TYPE_WASTE, 2, 3),
            TreeNode(6, 1, 1000, 0, W - 1000, H, TYPE_RESIDUAL, 1, 2),
        ]
        tree = SolutionTree(rows)
        value = objective_of(inst, tree)
        assert value == 2 * W * H - H * (W - 1000) - (W * H + 1000 * 740)
        assert value == 2_470_000
        # waste-leaf sum agrees
        assert value == sum(
            n.width * n.height for n in tree.nodes if n.type == TYPE_WASTE
        )

    def test_incomplete_raises(self):
        inst = make_instance([(300, 200), (100, 100)], chains=[[0], [1]])
        rows = [
            TreeNode(0, 0, 0, 0, 1000, 600, TYPE_BRANCH, 0, None),
            TreeNode(1, 0, 0, 0, 300, 600, TYPE_BRANCH, 1, 0),
            TreeNode(2, 0, 0, 0, 300, 200, 0, 2, 1),
            TreeNode(3, 0, 0, 200, 300, 400, TYPE_WASTE, 2, 1),
            TreeNode(4, 0, 300, 0, 700, 600, TYPE_RESIDUAL, 1, 0),
        ]
        with pytest.raises(SolutionError, match="INFEASIBLE MISSING_ITEM: item 1 "):
            objective_of(inst, SolutionTree(rows))


def assert_builder_contract(leaf, inst, label):
    """The cut tree of a complete leaf validates, its objective is the
    leaf's waste, and ``_normalize`` left nothing to clean up: no branch
    but a plate's root has a single child that is a leaf, and no two
    adjacent siblings are waste leaves."""
    tree = build_solution_tree(leaf, inst)
    report = validate(inst, tree)
    assert report.ok, f"{label}: {report}"
    assert objective_of(inst, tree) == leaf.waste, label
    for node in tree.nodes:
        kids = tree.children_of[node.node_id]
        if node.parent_id is not None and len(kids) == 1:
            assert tree.children_of[kids[0].node_id], f"{label}: node {node.node_id}"
        for a, b in zip(kids, kids[1:]):
            assert not a.type == b.type == TYPE_WASTE, f"{label}: nodes {a.node_id}, {b.node_id}"


class TestBuilderContract:
    """Every tree the builder drafts from a leaf's insertions keeps the
    contract of ``assert_builder_contract``."""

    def test_walked_leaves_including_fused_waste(self, monkeypatch):
        """The complete leaves of random walks on 600 draws, on a few of
        which ``_normalize`` fuses adjacent waste pieces."""
        fused = [0]
        normalize = solution._normalize

        def spy(node):
            before = len(node.kids)
            normalize(node)
            fused[0] += len(node.kids) < before

        monkeypatch.setattr(solution, "_normalize", spy)
        rng = random.Random(3)
        leaves = 0
        for draw in range(600):
            inst = random_small_instance(rng, max_items=6)
            path = random_walk(rng, inst, use_symmetry=False, use_dominance=False)
            if path[-1].complete:
                leaves += 1
                assert_builder_contract(path[-1], inst, f"draw {draw}")
        assert leaves >= 500 and fused[0] >= 1, (leaves, fused[0])

    def test_solver_leaves(self, rng):
        for inst in (
            make_instance([(500, 400)], params=Params(
                plate_width=500, plate_height=400, n_plates=2,
                min1=50, max1=500, min2=30, min_waste=10)),
            make_instance([(300, 200)]),
            make_instance([(300, 200), (250, 300), (100, 80)], chains=[[0, 1], [2]]),
        ):
            assert_builder_contract(solve_exhaustively(inst), inst, "fixed instance")
        five = TestFiveConfigurations()
        inst = five._instance()
        assert_builder_contract(five._solve(inst), inst, "five configurations")
        for draw in range(60):
            inst = random_small_instance(rng)
            leaf = dfs_best_leaf(inst)
            if leaf is not None:
                assert_builder_contract(leaf, inst, f"draw {draw}")
