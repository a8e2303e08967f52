"""Independent feasibility checker for solution trees.

This module re-derives every constraint directly from the tree geometry; it
deliberately shares no logic with the branching code so that solver bugs
cannot hide behind a matching validator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from .model import Instance, SolutionError
from .solution import (
    SolutionTree,
    TreeNode,
    TYPE_BRANCH,
    TYPE_RESIDUAL,
    TYPE_WASTE,
)

VERTICAL_LEVELS = (0, 2)  # children of these levels are split by vertical cuts


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    nodes: tuple[int, ...] = ()

    def __str__(self) -> str:
        where = f" [nodes {', '.join(map(str, self.nodes))}]" if self.nodes else ""
        return f"{self.code}: {self.message}{where}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, message: str, *nodes: int) -> None:
        self.violations.append(Violation(code, message, tuple(nodes)))

    def __str__(self) -> str:
        if self.ok:
            return "feasible"
        return "\n".join(str(v) for v in self.violations)


def validate(instance: Instance, tree: SolutionTree) -> ValidationReport:
    """Every rule violation in the tree, with the offending node ids."""
    rep = ValidationReport()
    p = instance.params
    W, H = p.plate_width, p.plate_height

    plates = tree.plates()
    if not plates:
        rep.add("NO_PLATES", "solution uses no plate")
        return rep
    if [r.plate_id for r in plates] != list(range(len(plates))):
        rep.add("PLATE_ORDER", "plates out of order or skipped")
    if len(plates) > p.n_plates:
        rep.add("PLATE_ORDER", f"{len(plates)} plates exceed the stock of {p.n_plates}")

    for root in plates:
        if (root.x, root.y, root.width, root.height) != (0, 0, W, H):
            rep.add("PLATE_GEOMETRY", "plate root does not span the plate", root.node_id)
        if root.cut_level != 0:
            rep.add("PLATE_GEOMETRY", "plate root must have cut level 0", root.node_id)

    for n in tree.nodes:
        if n.parent_id is not None:
            parent = tree.by_id[n.parent_id]
            if n.cut_level != parent.cut_level + 1:
                rep.add("CUT_LEVEL", "child level must be parent level + 1", n.node_id)
            if n.plate_id != parent.plate_id:
                rep.add("CUT_LEVEL", "child on a different plate than its parent", n.node_id)
        if n.cut_level > 4:
            rep.add("CUT_LEVEL", "more than four cutting stages", n.node_id)
        if n.cut_level == 4 and tree.children_of[n.node_id]:
            rep.add("CUT_LEVEL", "a level-4 piece cannot be subdivided", n.node_id)
        if n.cut_level == 3 and len(tree.children_of[n.node_id]) > 2:
            rep.add("FOUR_CUTS", "multiple 4-cuts in one third-level sub-plate", n.node_id)
        if n.type >= 0 and tree.children_of[n.node_id]:
            rep.add("ITEM_NODE", "an item node cannot have children", n.node_id)
        if n.type < TYPE_RESIDUAL:
            rep.add("NODE_TYPE", f"TYPE {n.type} is not an item id, -1, -2 or -3", n.node_id)
        elif n.type in (TYPE_WASTE, TYPE_RESIDUAL) and tree.children_of[n.node_id]:
            rep.add("NODE_TYPE", "a waste or residual piece cannot have children", n.node_id)
        if n.width <= 0 or n.height <= 0:
            rep.add("GEOMETRY", "empty node rectangle", n.node_id)

    _check_tiling(tree, rep)
    _check_cut_defects(instance, tree, rep)
    _check_items(instance, tree, rep)
    _check_size_limits(instance, tree, rep)
    _check_residual(instance, tree, rep)
    _check_precedence(instance, tree, rep)
    return rep


def _axes(r, vertical: bool) -> tuple[tuple[int, int], tuple[int, int]]:
    """(start, length) of the rectangle ``r`` along the axis that the cuts
    split, and across it: x first where the cuts are vertical."""
    if vertical:
        return (r.x, r.width), (r.y, r.height)
    return (r.y, r.height), (r.x, r.width)


def _in_cut_order(tree: SolutionTree, n: TreeNode) -> list[TreeNode]:
    """The children of ``n`` in cut order: left to right where vertical
    cuts split it, else bottom to top."""
    key = attrgetter("x" if n.cut_level in VERTICAL_LEVELS else "y")
    return sorted(tree.children_of[n.node_id], key=key)


def _check_tiling(tree: SolutionTree, rep: ValidationReport) -> None:
    for n in tree.nodes:
        kids = tree.children_of[n.node_id]
        if not kids:
            if n.type == TYPE_BRANCH:
                rep.add("TILING", "branch node without children", n.node_id)
            continue
        if len(kids) == 1:
            k = kids[0]
            if (k.x, k.y, k.width, k.height) != (n.x, n.y, n.width, n.height):
                rep.add("TILING", "single child does not cover its parent", n.node_id)
            continue
        vertical = n.cut_level in VERTICAL_LEVELS
        (pos, length), across = _axes(n, vertical)
        end = pos + length
        for k in _in_cut_order(tree, n):
            (k_pos, k_length), k_across = _axes(k, vertical)
            if k_pos != pos or k_across != across:
                rep.add("TILING", "children do not tile the parent", n.node_id, k.node_id)
                break
            pos += k_length
        else:
            if pos != end:
                rep.add("TILING", "children leave the parent uncovered", n.node_id)


def _check_cut_defects(instance: Instance, tree: SolutionTree, rep: ValidationReport) -> None:
    for n in tree.nodes:
        if len(tree.children_of[n.node_id]) < 2:
            continue
        defects = instance.plate_defects(n.plate_id)
        if not defects:
            continue
        vertical = n.cut_level in VERTICAL_LEVELS
        name = "1/3-cut at x" if vertical else "2/4-cut at y"
        _, (lo, span) = _axes(n, vertical)
        for k in _in_cut_order(tree, n)[:-1]:
            (k_pos, k_length), _ = _axes(k, vertical)
            cut = k_pos + k_length
            for d in defects:
                (d_pos, d_length), (d_lo, d_span) = _axes(d, vertical)
                if d_pos < cut < d_pos + d_length and d_lo < lo + span and lo < d_lo + d_span:
                    rep.add("CUT_DEFECT", f"{name}={cut} crosses a defect", n.node_id, k.node_id)


def _check_items(instance: Instance, tree: SolutionTree, rep: ValidationReport) -> None:
    seen: dict[int, int] = {}
    for n in tree.item_nodes():
        if n.type >= instance.n_items:
            rep.add("UNKNOWN_ITEM", f"no item with id {n.type}", n.node_id)
            continue
        if n.type in seen:
            rep.add("DUPLICATE_ITEM", f"item {n.type} produced twice", seen[n.type], n.node_id)
        seen[n.type] = n.node_id
        item = instance.items[n.type]
        if (n.width, n.height) not in (
            (item.width, item.height),
            (item.height, item.width),
        ):
            rep.add(
                "ITEM_DIMENSIONS",
                f"wrong item dimensions: item {n.type} is {item.width}x{item.height}, "
                f"node is {n.width}x{n.height}",
                n.node_id,
            )
        for d in instance.plate_defects(n.plate_id):
            if d.intersects(n.x, n.y, n.x + n.width, n.y + n.height):
                rep.add("ITEM_DEFECT", f"item {n.type} overlaps a defect", n.node_id)
    for it in instance.items:
        if it.id not in seen:
            rep.add("MISSING_ITEM", f"item {it.id} is not produced")


def _subtree_has_item(tree: SolutionTree, node: TreeNode) -> bool:
    if node.type >= 0:
        return True
    return any(_subtree_has_item(tree, k) for k in tree.children_of[node.node_id])


def _check_size_limits(instance: Instance, tree: SolutionTree, rep: ValidationReport) -> None:
    p = instance.params
    for n in tree.nodes:
        if n.type == TYPE_WASTE and (n.width < p.min_waste or n.height < p.min_waste):
            rep.add("MIN_WASTE", f"waste piece {n.width}x{n.height} is too thin", n.node_id)
        if n.cut_level == 1 and n.type != TYPE_RESIDUAL:
            if _subtree_has_item(tree, n) and not (p.min1 <= n.width <= p.max1):
                rep.add(
                    "COLUMN_WIDTH",
                    f"first-level width {n.width} outside [{p.min1}, {p.max1}]",
                    n.node_id,
                )
        if n.cut_level == 2:
            if _subtree_has_item(tree, n) and n.height < p.min2:
                rep.add(
                    "SHELF_HEIGHT", f"second-level height {n.height} below {p.min2}", n.node_id
                )


def _check_residual(instance: Instance, tree: SolutionTree, rep: ValidationReport) -> None:
    residuals = [n for n in tree.nodes if n.type == TYPE_RESIDUAL]
    if not residuals:
        return
    plates = tree.plates()
    last = plates[-1]
    roots = {p.plate_id: p.node_id for p in plates}
    if len(residuals) > 1:
        rep.add("RESIDUAL", "more than one residual node", *(n.node_id for n in residuals))
    for n in residuals:
        if n.plate_id != last.plate_id:
            rep.add("RESIDUAL", "residual not on the last plate", n.node_id)
        if n.parent_id != roots.get(n.plate_id) or n.cut_level != 1:
            rep.add("RESIDUAL", "residual must be a first-level piece", n.node_id)
        if n.x + n.width != last.x + last.width:
            rep.add("RESIDUAL", "residual is not the rightmost piece", n.node_id)


def _check_precedence(instance: Instance, tree: SolutionTree, rep: ValidationReport) -> None:
    """Extraction order: plates in order; vertical splits left to right,
    horizontal splits bottom to top."""
    chain_pos = {}
    for ci, chain in enumerate(instance.chains):
        for pos, item_id in enumerate(chain):
            chain_pos[item_id] = (ci, pos)
    progress = [0] * len(instance.chains)

    def walk(node: TreeNode) -> None:
        if node.type >= 0 and node.type in chain_pos:
            ci, pos = chain_pos[node.type]
            if pos != progress[ci]:
                rep.add(
                    "PRECEDENCE",
                    f"item {node.type} extracted out of chain order",
                    node.node_id,
                )
            progress[ci] = max(progress[ci], pos + 1)
            return
        for k in _in_cut_order(tree, node):
            walk(k)

    for root in tree.plates():
        walk(root)


def objective_of(instance: Instance, tree: SolutionTree) -> int:
    """Waste of a feasible tree; the formula and the waste-leaf sum must agree."""
    report = validate(instance, tree)
    if not report.ok:
        raise SolutionError(f"INFEASIBLE {report.violations[0]}")
    p = instance.params
    plates = tree.plates()
    last = plates[-1]
    residuals = [n for n in tree.children_of[last.node_id] if n.type == TYPE_RESIDUAL]
    w_last = residuals[0].x if residuals else p.plate_width
    item_area = sum(n.width * n.height for n in tree.item_nodes())
    value = (
        len(plates) * p.plate_height * p.plate_width
        - p.plate_height * (p.plate_width - w_last)
        - item_area
    )
    leaf_sum = sum(n.width * n.height for n in tree.nodes if n.type == TYPE_WASTE)
    if value != leaf_sum:
        raise SolutionError(
            f"INTERNAL objective mismatch: formula {value} != waste leaves {leaf_sum}"
        )
    return value
