"""Materialization of a search leaf into the challenge cut tree.

A solution tree has one root per used plate.  Children of a node tile it
exactly; the split direction alternates with the cut level (1-cuts and
3-cuts vertical, 2-cuts and the single 4-cut horizontal).  Leaf types:
item id >= 0, -1 waste, -3 the leftover right of the last 1-cut of the last
plate; -2 marks internal branches.

A solution is the sequence of insertions that built it, and each insertion
fixes its cell's plate, column and shelf edges, cell edges, kind, items and
4-cut.  ``build_solution_tree`` groups a leaf's insertions into columns and
shelves and drafts every piece straight from them; ``_normalize`` then
collapses single-child branches and fuses adjacent waste pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .model import Instance, Node, SolutionError
from .branching import Insertion, InsertionKind

TYPE_WASTE = -1
TYPE_BRANCH = -2
TYPE_RESIDUAL = -3


@dataclass
class TreeNode:
    node_id: int
    plate_id: int
    x: int
    y: int
    width: int
    height: int
    type: int
    cut_level: int
    parent_id: Optional[int]


@dataclass
class SolutionTree:
    nodes: list[TreeNode] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._index()

    def _index(self) -> None:
        self.by_id = {n.node_id: n for n in self.nodes}
        if len(self.by_id) != len(self.nodes):
            raise SolutionError("DUPLICATE_ID repeated node id")
        self.children_of: dict[int, list[TreeNode]] = {n.node_id: [] for n in self.nodes}
        self.roots: list[TreeNode] = []
        for n in self.nodes:
            if n.parent_id is None:
                self.roots.append(n)
            else:
                if n.parent_id not in self.by_id:
                    raise SolutionError(f"ORPHAN_NODE node {n.node_id} has no parent row")
                self.children_of[n.parent_id].append(n)

    def item_nodes(self) -> list[TreeNode]:
        return [n for n in self.nodes if n.type >= 0]

    def plates(self) -> list[TreeNode]:
        return sorted(self.roots, key=lambda n: n.plate_id)


# ---------------------------------------------------------------------------
# building the tree from a completed search node

class _Draft:
    __slots__ = ("x", "y", "w", "h", "type", "kids")

    def __init__(self, x, y, w, h, type_, kids=None):
        self.x, self.y, self.w, self.h = x, y, w, h
        self.type = type_
        self.kids: list[_Draft] = kids or []


def build_solution_tree(leaf: Node, instance: Instance) -> SolutionTree:
    """Replay the insertion sequence of a complete leaf into a cut tree."""
    if not leaf.complete:
        raise SolutionError("INCOMPLETE leaf does not pack all items")
    insertions: list[Insertion] = []
    node = leaf
    while node.parent is not None:
        insertions.append(node.insertion)
        node = node.parent
    insertions.reverse()
    if not insertions:
        raise SolutionError("NO_ITEMS nothing to materialize")

    # per plate, columns [x0, final 1-cut, shelves]; a shelf is the list of
    # the insertions that placed its cells, and the first one opened it
    plates: list[list[list]] = []
    for ins in insertions:
        if ins.depth <= 1:
            if ins.depth == 1 or plates and ins.prev_col_x1 is not None:
                plates[-1][-1][1] = ins.prev_col_x1
            if ins.depth == 0:
                plates.append([])
            plates[-1].append([ins.x1_prev, None, [[ins]]])
        elif ins.depth == 2:
            plates[-1][-1][2].append([ins])
        else:
            plates[-1][-1][2][-1].append(ins)
    plates[-1][-1][1] = leaf.x1_curr

    W = instance.params.plate_width
    H = instance.params.plate_height
    rows: list[TreeNode] = []
    next_id = 0

    def emit(plate_id: int, draft: _Draft, parent_id: Optional[int], level: int) -> None:
        nonlocal next_id
        nid = next_id
        next_id += 1
        rows.append(
            TreeNode(nid, plate_id, draft.x, draft.y, draft.w, draft.h, draft.type, level, parent_id)
        )
        for kid in draft.kids:
            emit(plate_id, kid, nid, level + 1)

    for plate_id, columns in enumerate(plates):
        root = _Draft(0, 0, W, H, TYPE_BRANCH)
        for x0, x1, shelves in columns:
            assert x1 is not None, "column never closed"
            column = _Draft(x0, 0, x1 - x0, H, TYPE_BRANCH)
            for shelf in shelves:
                y0, y1 = shelf[0].y2_prev, shelf[0].y2_curr
                row = _Draft(x0, y0, x1 - x0, y1 - y0, TYPE_BRANCH,
                             [_draft_cell(ins, y0, y1) for ins in shelf])
                edge = shelf[-1].x3_curr
                if edge < x1:
                    row.kids.append(_Draft(edge, y0, x1 - edge, y1 - y0, TYPE_WASTE))
                column.kids.append(row)
            y_top = shelves[-1][0].y2_curr
            if y_top < H:
                column.kids.append(_Draft(x0, y_top, x1 - x0, H - y_top, TYPE_WASTE))
            root.kids.append(column)
        right = columns[-1][1]
        if right < W:
            last_plate = plate_id == len(plates) - 1
            root.kids.append(
                _Draft(right, 0, W - right, H, TYPE_RESIDUAL if last_plate else TYPE_WASTE)
            )
        _normalize(root)
        emit(plate_id, root, None, 0)

    return SolutionTree(rows)


def _draft_cell(ins: Insertion, y0: int, y1: int) -> _Draft:
    x0 = ins.x3_prev
    w = ins.x3_curr - x0
    kind = ins.kind
    if kind is InsertionKind.WASTE_ONLY:
        return _Draft(x0, y0, w, y1 - y0, TYPE_WASTE)
    pieces = [_Draft(pl.x, pl.y, pl.width, pl.height, pl.item_id) for pl in ins.placements]
    if kind is InsertionKind.ONE_ITEM:
        pl = pieces[0]
        assert (pl.x, pl.y, pl.w, pl.h) == (x0, y0, w, y1 - y0)
        return pl
    split = ins.split_y
    if kind is InsertionKind.ITEM_WASTE_ABOVE:
        pieces.append(_Draft(x0, split, w, y1 - split, TYPE_WASTE))
    elif kind is InsertionKind.ITEM_WASTE_BELOW:
        pieces.insert(0, _Draft(x0, y0, w, split - y0, TYPE_WASTE))
    return _Draft(x0, y0, w, y1 - y0, TYPE_BRANCH, pieces)


def _normalize(node: _Draft) -> None:
    """Bottom-up cleanup: a branch whose sole child is a leaf becomes that
    leaf, and runs of adjacent waste leaves fuse into one (the plate root is
    never collapsed, so a full-plate item stays root + leaf)."""
    for kid in node.kids:
        _normalize(kid)
        if kid.type == TYPE_BRANCH and len(kid.kids) == 1 and not kid.kids[0].kids:
            only = kid.kids[0]
            assert (only.x, only.y, only.w, only.h) == (kid.x, kid.y, kid.w, kid.h)
            kid.type = only.type
            kid.kids = []
    if len(node.kids) < 2:
        return
    merged: list[_Draft] = []
    for kid in node.kids:
        prev = merged[-1] if merged else None
        if (
            prev is not None
            and prev.type == TYPE_WASTE
            and kid.type == TYPE_WASTE
            and not prev.kids
            and not kid.kids
        ):
            prev.w = max(prev.x + prev.w, kid.x + kid.w) - prev.x
            prev.h = max(prev.y + prev.h, kid.y + kid.h) - prev.y
        else:
            merged.append(kid)
    node.kids = merged
