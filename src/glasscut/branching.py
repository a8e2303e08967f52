"""Child generation for the tree search: one insertion packs one cell.

Each step of the search appends one cell (third-level sub-plate) to the
partial solution.  A cell has one of five shapes: exactly one item; one item
with waste above; one item with waste below; two equal-width items separated
by the single allowed 4-cut; or pure waste (only generated to skip over a
defect).  A cell can be placed at four depths:

* depth 0: first cell of a new plate,
* depth 1: first cell of a new column, right of the current one,
* depth 2: first cell of a new shelf, above the current one,
* depth 3: next cell of the current shelf, right of the current cell.

Structural pruning applied while enumerating:

* a new plate is only opened when no item fits anywhere in the current one,
  a new column only when no item fits in the current column without pushing
  its right 1-cut, and a new shelf only when no item fits in the current
  shelf;
* after a waste-only insertion the next insertion must reuse the position it
  opened (same depth; a waste first column of a fresh plate is followed at
  depth 1);
* after a two-item insertion at depth < 3 the next insertion must be at
  depth 3.

Whenever a closing cut would leave a strip narrower than ``min_waste`` next
to item cells, the cut is pushed outward to ``min_waste`` past the blocking
edge (and item columns are widened to ``min1``); insertions whose pushes
exceed ``max1`` or the plate bounds are dropped.  Every cut position an
insertion materializes or extends is checked against defect interiors.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, NamedTuple, Optional

from .model import Defect, Instance, Node, ShelfRecord, front_key_leq


class InsertionKind(Enum):
    ONE_ITEM = 1
    ITEM_WASTE_ABOVE = 2
    ITEM_WASTE_BELOW = 3
    TWO_ITEMS = 4
    WASTE_ONLY = 5


class Placement(NamedTuple):
    """One item's final rectangle inside its plate."""

    item_id: int
    chain_idx: int
    x: int
    y: int
    width: int
    height: int
    rotated: bool


class Insertion(NamedTuple):
    """A child-generating move, with all repairs already applied.

    The six coordinates describe the state *after* the move.
    ``prev_col_x1`` is the final right 1-cut of the column this move closed
    (set for depth 0/1 and for completing moves; None otherwise).
    """

    kind: InsertionKind
    depth: int
    new_bin: bool
    completes: bool
    placements: tuple[Placement, ...]
    bin: int
    prior_area: int
    x1_prev: int
    x1_curr: int
    y2_prev: int
    y2_curr: int
    x3_prev: int
    x3_curr: int
    split_y: Optional[int]
    prev_col_x1: Optional[int]

    @property
    def has_items(self) -> bool:
        return bool(self.placements)

    def min_item(self) -> Optional[int]:
        if not self.placements:
            return None
        return min(pl.item_id for pl in self.placements)

    def chain_ids(self) -> frozenset[int]:
        return frozenset(pl.chain_idx for pl in self.placements)


# ---------------------------------------------------------------------------
# geometric predicates

def _rect_clear(defects: tuple[Defect, ...], x0: int, y0: int, x1: int, y1: int) -> bool:
    """No defect overlaps the open rectangle (touching borders is fine)."""
    for d in defects:
        if d.x < x1 and x0 < d.x + d.width and d.y < y1 and y0 < d.y + d.height:
            return False
    return True


def _vcut_ok(defects: tuple[Defect, ...], x: int, y0: int, y1: int) -> bool:
    """A vertical cut at x spanning [y0, y1] does not cross a defect interior."""
    for d in defects:
        if d.x < x < d.x + d.width and d.y < y1 and y0 < d.y + d.height:
            return False
    return True


def _hcut_ok(defects: tuple[Defect, ...], y: int, x0: int, x1: int) -> bool:
    for d in defects:
        if d.y < y < d.y + d.height and d.x < x1 and x0 < d.x + d.width:
            return False
    return True


def _raise_item(
    defects: tuple[Defect, ...], x: int, w: int, h: int, y_start: int, y_cap: int
) -> Optional[int]:
    """Smallest y >= y_start where a w x h rectangle at x is defect-free."""
    y = y_start
    for _ in range(len(defects) + 1):
        if y + h > y_cap:
            return None
        hit = None
        for d in defects:
            if d.x < x + w and x < d.x + d.width and d.y < y + h and y < d.y + d.height:
                if hit is None or d.y + d.height > hit:
                    hit = d.y + d.height
        if hit is None:
            return y
        y = hit
    return None


# ---------------------------------------------------------------------------
# growth and closing of the current column

def _edge_constraints(node: Node, closing_shelf: bool, extra_edge: Optional[int]) -> list[int]:
    """Cut edges the final x1 may not approach closer than min_waste.

    Closed shelves that ended with an item cell keep their content edge as a
    constraint (a zero-width strip is fine, a sliver is not); the current
    shelf contributes its edge when it is being closed, and a newly placed
    final cell contributes ``extra_edge``.
    """
    edges = [r.edge for r in node.closed_shelves if r.edge_is_cut]
    if closing_shelf and node.cell_min_item is not None:
        edges.append(node.x3_curr)
    if extra_edge is not None:
        edges.append(extra_edge)
    return edges


def _resolve_x1(cur: int, lower: int, edges: list[int], min_waste: int) -> int:
    x1 = cur if cur >= lower else lower
    moved = True
    while moved:
        moved = False
        for e in edges:
            if e < x1 < e + min_waste:
                x1 = e + min_waste
                moved = True
    return x1


def _growth_cuts_ok(node: Node, final_x1: int, defects: tuple[Defect, ...]) -> bool:
    """Re-check cuts that widen or materialize when x1 grows."""
    if final_x1 == node.x1_curr or not defects:
        return True
    for rec in node.closed_shelves:
        if not _hcut_ok(defects, rec.y1, node.x1_prev, final_x1):
            return False
        if rec.edge_is_cut and rec.edge == node.x1_curr:
            if not _vcut_ok(defects, rec.edge, rec.y0, rec.y1):
                return False
    return True


def _close_shelf_cut_ok(node: Node, final_x1: int, defects: tuple[Defect, ...]) -> bool:
    """Strip cut left behind by the shelf being closed, if one appears."""
    if node.cell_min_item is None:
        return True  # trailing waste cell absorbs the strip, no new cut
    if final_x1 > node.x3_curr and defects:
        return _vcut_ok(defects, node.x3_curr, node.y2_prev, node.y2_curr)
    return True


class _ColumnClose:
    """Resolved close of the current column (depth 0/1 and completion)."""

    __slots__ = ("final_x1", "ok")

    def __init__(self, node: Node, inst: Instance, defects: tuple[Defect, ...]):
        p = inst.params
        self.ok = False
        self.final_x1 = node.x1_curr
        lower = node.x1_curr
        if node.col_has_items:
            lower = max(lower, node.x1_prev + p.min1)
        edges = _edge_constraints(node, closing_shelf=True, extra_edge=None)
        x1 = _resolve_x1(node.x1_curr, lower, edges, p.min_waste)
        if node.col_has_items and x1 - node.x1_prev > p.max1:
            return
        if x1 > p.plate_width:
            return
        if not _growth_cuts_ok(node, x1, defects):
            return
        if not _close_shelf_cut_ok(node, x1, defects):
            return
        # top strip of the column: absent, or at least min_waste tall (a
        # trailing all-waste shelf merges with it and has no such limit)
        if node.shelf_min_item is not None:
            gap = inst.params.plate_height - node.y2_curr
            if 0 < gap < p.min_waste:
                return
            if gap > 0 and defects and not _hcut_ok(defects, node.y2_curr, node.x1_prev, x1):
                return
        self.final_x1 = x1
        self.ok = True

    def bin_close_ok(self, node: Node, inst: Instance, defects: tuple[Defect, ...]) -> bool:
        """Extra rules when the whole plate is being left behind."""
        p = inst.params
        gap = p.plate_width - self.final_x1
        if not node.col_has_items:
            return True  # all-waste column merges with the trailing gap
        if 0 < gap < p.min_waste:
            return False
        if gap > 0 and defects and not _vcut_ok(defects, self.final_x1, 0, p.plate_height):
            return False
        return True


# ---------------------------------------------------------------------------
# enumeration

def candidate_items(node: Node, instance: Instance) -> list[int]:
    """Next unconsumed item of every chain."""
    out = []
    for ci, chain in enumerate(instance.chains):
        k = node.counts[ci]
        if k < len(chain):
            out.append(chain[k])
    return out


def _allowed_depths(node: Node) -> tuple[int, ...]:
    if node.bin < 0:
        return (0,)
    if node.last_was_waste:
        return (max(1, node.last_depth),)
    if node.last_was_two and node.last_depth != 3:
        return (3,)
    return (3, 2, 1, 0)


def _cell_variants_fixed(
    defects: tuple[Defect, ...], x: int, y_lo: int, y_hi: int, w: int, h: int, mw: int
) -> Iterator[tuple[InsertionKind, int, Optional[int]]]:
    """(kind, item_y, split_y) choices for an item cell in an existing shelf."""
    h2 = y_hi - y_lo
    if h == h2:
        if _rect_clear(defects, x, y_lo, x + w, y_lo + h):
            yield InsertionKind.ONE_ITEM, y_lo, None
        return
    if h > h2 - mw:
        return  # the 4-cut waste would be a sliver
    if _rect_clear(defects, x, y_lo, x + w, y_lo + h):
        yield InsertionKind.ITEM_WASTE_ABOVE, y_lo, y_lo + h
    elif _rect_clear(defects, x, y_hi - h, x + w, y_hi):
        yield InsertionKind.ITEM_WASTE_BELOW, y_hi - h, y_hi - h


def _cell_variants_new_shelf(
    defects: tuple[Defect, ...],
    x: int,
    y_lo: int,
    w: int,
    h: int,
    plate_h: int,
    min2: int,
    mw: int,
) -> Iterator[tuple[InsertionKind, int, int, Optional[int]]]:
    """(kind, cell_h, item_y, split_y) choices when the shelf height is free."""
    if _rect_clear(defects, x, y_lo, x + w, y_lo + h):
        if h >= min2:
            yield InsertionKind.ONE_ITEM, h, y_lo, None
        else:
            cell_h = max(min2, h + mw)  # widen to min2, keep the waste >= min_waste
            yield InsertionKind.ITEM_WASTE_ABOVE, cell_h, y_lo, y_lo + h
        return
    # bottom spot is defective: put the item at the top of a taller cell
    y_min = max(y_lo + mw, y_lo + min2 - h)
    y_item = _raise_item(defects, x, w, h, y_min, plate_h)
    if y_item is not None:
        yield InsertionKind.ITEM_WASTE_BELOW, y_item + h - y_lo, y_item, y_item


def _top_sliver_ok(y_top: int, plate_h: int, mw: int) -> bool:
    gap = plate_h - y_top
    return gap == 0 or gap >= mw


class PairCombo(NamedTuple):
    """A width-matched two-item stack: j at the bottom, k on top."""

    j: int
    k: int
    width: int
    hj: int
    rj: bool
    hk: int
    rk: bool


def pair_combos(node: Node, instance: Instance, cands: list[int]) -> list[PairCombo]:
    """Two-item cell contents: the bottom item is a candidate, the top one
    another candidate or the bottom item's chain successor, equal widths.

    Depends only on the per-chain consumption state, so results are memoized
    on the instance (each portfolio worker process fills its own copy)."""
    cache = instance.__dict__.setdefault("_pair_combo_cache", {})
    hit = cache.get(node.counts)
    if hit is not None:
        return hit
    combos = _pair_combos_uncached(node, instance, cands)
    if len(cache) > 200_000:
        cache.clear()
    cache[node.counts] = combos
    return combos


def _pair_combos_uncached(
    node: Node, instance: Instance, cands: list[int]
) -> list[PairCombo]:
    oriented = instance.oriented
    by_width: dict[int, list[tuple[int, int, bool]]] = {}
    for k in cands:
        for w, h, rot in oriented[k]:
            by_width.setdefault(w, []).append((k, h, rot))
    cset = set(cands)
    out: list[PairCombo] = []
    for j in cands:
        successor = None
        ci = instance.chain_index[j]
        chain = instance.chains[ci]
        pos = node.counts[ci]
        if pos + 1 < len(chain) and chain[pos] == j:
            nxt = chain[pos + 1]
            if nxt not in cset:
                successor = nxt
        for wj, hj, rj in oriented[j]:
            for k, hk, rk in by_width.get(wj, ()):
                if k != j:
                    out.append(PairCombo(j, k, wj, hj, rj, hk, rk))
            if successor is not None:
                for wk, hk, rk in oriented[successor]:
                    if wk == wj:
                        out.append(PairCombo(j, successor, wj, hj, rj, hk, rk))
    return out


def enumerate_insertions(node: Node, instance: Instance) -> list[Insertion]:
    """All feasible insertions at ``node``, pruning rules applied.

    Deeper depths are generated first so that shallower ones can be skipped
    entirely once an item move suppresses them; raw feasibility (not the
    emitted set) drives the suppression tests.
    """
    if node.complete:
        return []
    cands = candidate_items(node, instance)
    combos = pair_combos(node, instance, cands) if instance.n_items - node.n_packed >= 2 else []
    allowed = _allowed_depths(node)

    gen3 = _gen_depth3(node, instance, cands, combos) if 3 in allowed else []
    no_growth = any(ins.x1_curr == node.x1_curr for ins in gen3)
    gen2: list[Insertion] = []
    if 2 in allowed and (not gen3 or not no_growth):
        # needed either as output or to decide the new-column suppression
        gen2 = _gen_depth2(node, instance, cands, combos)
        no_growth = no_growth or any(ins.x1_curr == node.x1_curr for ins in gen2)
    gen1: list[Insertion] = []
    if 1 in allowed and not no_growth:
        gen1 = _gen_depth01(node, instance, cands, combos, 1)
    gen0: list[Insertion] = []
    if 0 in allowed and not (gen3 or gen2 or gen1):
        if node.bin + 1 < instance.params.n_plates:
            gen0 = _gen_depth01(node, instance, cands, combos, 0)

    kept = [d for d in allowed if d != 0 or node.bin + 1 < instance.params.n_plates]
    out: list[Insertion] = []
    for d, gen in ((3, gen3), (2, gen2), (1, gen1), (0, gen0)):
        if d not in kept:
            continue
        if d == 2 and gen3:
            continue
        if d == 1 and no_growth:
            continue
        if d == 0 and (gen3 or gen2 or gen1):
            continue
        out.extend(gen)
        w_ins = _gen_waste(node, instance, d)
        if w_ins is not None:
            out.append(w_ins)
    out.sort(key=_insertion_sort_key)
    return out


def _insertion_sort_key(ins: Insertion):
    if ins.placements:
        item_key = ins.placements[0].item_id
        orient = tuple((pl.item_id, pl.rotated) for pl in ins.placements)
    else:
        item_key = 1 << 30
        orient = ()
    return (item_key, -ins.depth, ins.kind.value, orient)


def _gen_depth3(node: Node, instance: Instance, cands: list[int], combos: list[PairCombo]) -> list[Insertion]:
    p = instance.params
    mw = p.min_waste
    H = p.plate_height
    defects = instance.plate_defects(node.bin)
    x = node.x3_curr
    y_lo, y_hi = node.y2_prev, node.y2_curr
    out: list[Insertion] = []

    def try_cell(placements, x_end, split_y, kind):
        completing = node.n_packed + len(placements) == instance.n_items
        lower = x_end
        if completing:
            lower = max(lower, node.x1_prev + p.min1)
        edges = _edge_constraints(
            node, closing_shelf=False, extra_edge=x_end if completing else None
        )
        x1 = _resolve_x1(node.x1_curr, lower, edges, mw)
        if x1 - node.x1_prev > p.max1 or x1 > p.plate_width:
            return
        if defects:
            # the boundary with the current cell is a real 3-cut
            if not _vcut_ok(defects, x, y_lo, y_hi):
                return
            if not _growth_cuts_ok(node, x1, defects):
                return
            if completing:
                if x1 > x_end and not _vcut_ok(defects, x_end, y_lo, y_hi):
                    return
                if y_hi < H and not _hcut_ok(defects, y_hi, node.x1_prev, x1):
                    return
                if x1 < p.plate_width and not _vcut_ok(defects, x1, 0, H):
                    return
        out.append(
            Insertion(
                kind=kind,
                depth=3,
                new_bin=False,
                completes=completing,
                placements=placements,
                bin=node.bin,
                prior_area=node.prior_area,
                x1_prev=node.x1_prev,
                x1_curr=x1,
                y2_prev=y_lo,
                y2_curr=y_hi,
                x3_prev=x,
                x3_curr=x_end,
                split_y=split_y,
                prev_col_x1=x1 if completing else None,
            )
        )

    for j in cands:
        for w, h, rot in instance.oriented[j]:
            for kind, y_item, split_y in _cell_variants_fixed(defects, x, y_lo, y_hi, w, h, mw):
                pl = (_placement(instance, node, j, x, y_item, w, h, rot),)
                try_cell(pl, x + w, split_y, kind)
    h2 = y_hi - y_lo
    for c in combos:
        if c.hj + c.hk != h2:
            continue
        if not _rect_clear(defects, x, y_lo, x + c.width, y_lo + c.hj):
            continue
        if not _rect_clear(defects, x, y_lo + c.hj, x + c.width, y_hi):
            continue
        pls = (
            _placement(instance, node, c.j, x, y_lo, c.width, c.hj, c.rj),
            _placement(instance, node, c.k, x, y_lo + c.hj, c.width, c.hk, c.rk),
        )
        try_cell(pls, x + c.width, y_lo + c.hj, InsertionKind.TWO_ITEMS)
    return out


def _gen_depth2(node: Node, instance: Instance, cands: list[int], combos: list[PairCombo]) -> list[Insertion]:
    p = instance.params
    mw = p.min_waste
    H = p.plate_height
    defects = instance.plate_defects(node.bin)
    x = node.x1_prev
    y_lo = node.y2_curr
    if y_lo >= H:
        return []
    out: list[Insertion] = []

    def try_cell(placements, x_end, cell_h, split_y, kind):
        y_hi = y_lo + cell_h
        if y_hi > H or not _top_sliver_ok(y_hi, H, mw):
            return
        completing = node.n_packed + len(placements) == instance.n_items
        lower = x_end
        if completing:
            lower = max(lower, node.x1_prev + p.min1)
        edges = _edge_constraints(
            node, closing_shelf=True, extra_edge=x_end if completing else None
        )
        x1 = _resolve_x1(node.x1_curr, lower, edges, mw)
        if x1 - node.x1_prev > p.max1 or x1 > p.plate_width:
            return
        if defects:
            if not _growth_cuts_ok(node, x1, defects):
                return
            if not _close_shelf_cut_ok(node, x1, defects):
                return
            # 2-cut between the closed shelf and this one
            if not _hcut_ok(defects, y_lo, node.x1_prev, x1):
                return
            if completing:
                if x1 > x_end and not _vcut_ok(defects, x_end, y_lo, y_hi):
                    return
                if y_hi < H and not _hcut_ok(defects, y_hi, node.x1_prev, x1):
                    return
                if x1 < p.plate_width and not _vcut_ok(defects, x1, 0, H):
                    return
        out.append(
            Insertion(
                kind=kind,
                depth=2,
                new_bin=False,
                completes=completing,
                placements=placements,
                bin=node.bin,
                prior_area=node.prior_area,
                x1_prev=node.x1_prev,
                x1_curr=x1,
                y2_prev=y_lo,
                y2_curr=y_hi,
                x3_prev=x,
                x3_curr=x_end,
                split_y=split_y,
                prev_col_x1=x1 if completing else None,
            )
        )

    for j in cands:
        for w, h, rot in instance.oriented[j]:
            if y_lo + h > H:
                continue
            for kind, cell_h, y_item, split_y in _cell_variants_new_shelf(
                defects, x, y_lo, w, h, H, p.min2, mw
            ):
                pl = (_placement(instance, node, j, x, y_item, w, h, rot),)
                try_cell(pl, x + w, cell_h, split_y, kind)
    for c in combos:
        if c.hj + c.hk < p.min2 or y_lo + c.hj + c.hk > H:
            continue
        if not _rect_clear(defects, x, y_lo, x + c.width, y_lo + c.hj):
            continue
        if not _rect_clear(defects, x, y_lo + c.hj, x + c.width, y_lo + c.hj + c.hk):
            continue
        pls = (
            _placement(instance, node, c.j, x, y_lo, c.width, c.hj, c.rj),
            _placement(instance, node, c.k, x, y_lo + c.hj, c.width, c.hk, c.rk),
        )
        try_cell(pls, x + c.width, c.hj + c.hk, y_lo + c.hj, InsertionKind.TWO_ITEMS)
    return out


def _gen_depth01(
    node: Node, instance: Instance, cands: list[int], combos: list[PairCombo], depth: int
) -> list[Insertion]:
    p = instance.params
    mw = p.min_waste
    H = p.plate_height
    W = p.plate_width
    new_bin = depth == 0
    frame = _open_column_frame(node, instance, new_bin)
    if frame is None:
        return []
    x_col, target_bin, prev_col_x1 = frame
    defects = instance.plate_defects(target_bin)
    prior_area = target_bin * W * H
    out: list[Insertion] = []

    def try_cell(placements, x_end, cell_h, split_y, kind):
        y_hi = cell_h
        if y_hi > H or not _top_sliver_ok(y_hi, H, mw):
            return
        completing = node.n_packed + len(placements) == instance.n_items
        x1 = x_end
        if completing:
            x1 = _resolve_x1(x_end, max(x_end, x_col + p.min1), [x_end], mw)
        if x1 - x_col > p.max1 or x1 > W:
            return
        if defects and completing:
            if x1 > x_end and not _vcut_ok(defects, x_end, 0, y_hi):
                return
            if y_hi < H and not _hcut_ok(defects, y_hi, x_col, x1):
                return
            if x1 < W and not _vcut_ok(defects, x1, 0, H):
                return
        out.append(
            Insertion(
                kind=kind,
                depth=depth,
                new_bin=new_bin,
                completes=completing,
                placements=placements,
                bin=target_bin,
                prior_area=prior_area,
                x1_prev=x_col,
                x1_curr=x1,
                y2_prev=0,
                y2_curr=y_hi,
                x3_prev=x_col,
                x3_curr=x_end,
                split_y=split_y,
                prev_col_x1=prev_col_x1,
            )
        )

    for j in cands:
        for w, h, rot in instance.oriented[j]:
            if h > H or x_col + w > W:
                continue
            for kind, cell_h, y_item, split_y in _cell_variants_new_shelf(
                defects, x_col, 0, w, h, H, p.min2, mw
            ):
                pl = (_placement(instance, node, j, x_col, y_item, w, h, rot),)
                try_cell(pl, x_col + w, cell_h, split_y, kind)
    for c in combos:
        if c.hj + c.hk < p.min2 or c.hj + c.hk > H or x_col + c.width > W:
            continue
        if not _rect_clear(defects, x_col, 0, x_col + c.width, c.hj):
            continue
        if not _rect_clear(defects, x_col, c.hj, x_col + c.width, c.hj + c.hk):
            continue
        pls = (
            _placement(instance, node, c.j, x_col, 0, c.width, c.hj, c.rj),
            _placement(instance, node, c.k, x_col, c.hj, c.width, c.hk, c.rk),
        )
        try_cell(pls, x_col + c.width, c.hj + c.hk, c.hj, InsertionKind.TWO_ITEMS)
    return out


def _open_column_frame(
    node: Node, instance: Instance, new_bin: bool
) -> Optional[tuple[int, int, Optional[int]]]:
    """Close the current column (and plate) and return where the next column
    starts: (x, plate index, final x1 of the closed column)."""
    p = instance.params
    if node.bin < 0:
        return (0, 0, None)
    defects_cur = instance.plate_defects(node.bin)
    close = _ColumnClose(node, instance, defects_cur)
    if not close.ok:
        return None
    if new_bin:
        if not close.bin_close_ok(node, instance, defects_cur):
            return None
        return (0, node.bin + 1, close.final_x1)
    # the closing 1-cut is shared with the new column's left edge
    if defects_cur and not _vcut_ok(defects_cur, close.final_x1, 0, p.plate_height):
        return None
    return (close.final_x1, node.bin, close.final_x1)


def _placement(instance, node, item_id, x, y, w, h, rotated) -> Placement:
    return Placement(item_id, instance.chain_index[item_id], x, y, w, h, rotated)


def _gen_waste(node: Node, instance: Instance, depth: int) -> Optional[Insertion]:
    """A waste cell covering the nearest blocking defect, if there is one."""
    p = instance.params
    mw = p.min_waste
    H = p.plate_height
    W = p.plate_width
    if depth == 3:
        defects = instance.plate_defects(node.bin)
        x = node.x3_curr
        y_lo, y_hi = node.y2_prev, node.y2_curr
        ahead = [
            d for d in defects if d.x + d.width > x and d.y < y_hi and y_lo < d.y + d.height
        ]
        if not ahead:
            return None
        first = min(ahead, key=lambda d: (d.x, d.y))
        x_end = _extend_past(x, max(x + mw, first.x + first.width), ahead, vertical=True)
        edges = _edge_constraints(node, closing_shelf=False, extra_edge=None)
        x1 = _resolve_x1(node.x1_curr, x_end, edges, mw)
        if (node.col_has_items and x1 - node.x1_prev > p.max1) or x1 > W:
            return None
        if node.cell_min_item is not None and not _vcut_ok(defects, x, y_lo, y_hi):
            return None
        if not _vcut_ok(defects, x_end, y_lo, y_hi):
            return None
        if not _growth_cuts_ok(node, x1, defects):
            return None
        return Insertion(
            kind=InsertionKind.WASTE_ONLY,
            depth=3,
            new_bin=False,
            completes=False,
            placements=(),
            bin=node.bin,
            prior_area=node.prior_area,
            x1_prev=node.x1_prev,
            x1_curr=x1,
            y2_prev=y_lo,
            y2_curr=y_hi,
            x3_prev=x,
            x3_curr=x_end,
            split_y=None,
            prev_col_x1=None,
        )
    if depth == 2:
        defects = instance.plate_defects(node.bin)
        y_lo = node.y2_curr
        if y_lo >= H:
            return None
        band = [
            d
            for d in defects
            if d.y + d.height > y_lo and d.x < node.x1_curr and node.x1_prev < d.x + d.width
        ]
        if not band:
            return None
        first = min(band, key=lambda d: (d.y, d.x))
        y_end = _extend_past(y_lo, max(y_lo + mw, first.y + first.height), band, vertical=False)
        if y_end > H:
            return None
        edges = _edge_constraints(node, closing_shelf=True, extra_edge=None)
        x1 = _resolve_x1(node.x1_curr, node.x1_curr, edges, mw)
        if x1 > W or (node.col_has_items and x1 - node.x1_prev > p.max1):
            return None
        if not _growth_cuts_ok(node, x1, defects):
            return None
        if not _close_shelf_cut_ok(node, x1, defects):
            return None
        if node.shelf_min_item is not None and not _hcut_ok(defects, y_lo, node.x1_prev, x1):
            return None
        if y_end < H and not _hcut_ok(defects, y_end, node.x1_prev, x1):
            return None
        return Insertion(
            kind=InsertionKind.WASTE_ONLY,
            depth=2,
            new_bin=False,
            completes=False,
            placements=(),
            bin=node.bin,
            prior_area=node.prior_area,
            x1_prev=node.x1_prev,
            x1_curr=x1,
            y2_prev=y_lo,
            y2_curr=y_end,
            x3_prev=node.x1_prev,
            x3_curr=x1,
            split_y=None,
            prev_col_x1=None,
        )
    # depth 1 or 0: a waste column hiding a defect column
    new_bin = depth == 0
    if new_bin and node.bin + 1 >= p.n_plates:
        return None
    frame = _open_column_frame(node, instance, new_bin)
    if frame is None:
        return None
    x_col, target_bin, prev_col_x1 = frame
    defects = instance.plate_defects(target_bin)
    ahead = [d for d in defects if d.x + d.width > x_col]
    if not ahead:
        return None
    first = min(ahead, key=lambda d: (d.x, d.y))
    x_end = _extend_past(x_col, max(x_col + mw, first.x + first.width), ahead, vertical=True)
    if x_end > W:
        return None
    if x_end < W and not _vcut_ok(defects, x_end, 0, H):
        return None
    return Insertion(
        kind=InsertionKind.WASTE_ONLY,
        depth=depth,
        new_bin=new_bin,
        completes=False,
        placements=(),
        bin=target_bin,
        prior_area=target_bin * W * H,
        x1_prev=x_col,
        x1_curr=x_end,
        y2_prev=0,
        y2_curr=H,
        x3_prev=x_col,
        x3_curr=x_end,
        split_y=None,
        prev_col_x1=prev_col_x1,
    )


def _extend_past(start: int, end: int, defects: list[Defect], vertical: bool) -> int:
    """Grow a waste cover until its far cut stops crossing defects."""
    for _ in range(len(defects) + 1):
        if vertical:
            bad = [d.x + d.width for d in defects if d.x < end < d.x + d.width]
        else:
            bad = [d.y + d.height for d in defects if d.y < end < d.y + d.height]
        if not bad:
            return end
        end = max(bad)
    return end


# ---------------------------------------------------------------------------
# applying an insertion

def apply_insertion(node: Node, ins: Insertion) -> Node:
    """Child node for a feasible insertion (geometry was settled upstream)."""
    counts = list(node.counts)
    item_area = node.item_area
    for pl in ins.placements:
        counts[pl.chain_idx] += 1
        item_area += pl.width * pl.height
    new_min = ins.min_item()
    new_chains = ins.chain_ids()

    if ins.depth == 3:
        closed = node.closed_shelves
        col_has_items = node.col_has_items or ins.has_items
        shelf_min = _min_opt(node.shelf_min_item, new_min)
        shelf_chains = node.shelf_chain_ids | new_chains
    elif ins.depth == 2:
        closed = node.closed_shelves + (
            ShelfRecord(
                y0=node.y2_prev,
                y1=node.y2_curr,
                edge=node.x3_curr,
                edge_is_cut=node.cell_min_item is not None,
                min_item=node.shelf_min_item,
                chain_ids=node.shelf_chain_ids,
            ),
        )
        col_has_items = node.col_has_items or ins.has_items
        shelf_min = new_min
        shelf_chains = new_chains
    else:
        closed = ()
        col_has_items = ins.has_items
        shelf_min = new_min
        shelf_chains = new_chains

    return Node(
        node,
        ins,
        node.plate_height,
        ins.bin,
        ins.x1_prev,
        ins.x1_curr,
        ins.y2_prev,
        ins.y2_curr,
        ins.x3_prev,
        ins.x3_curr,
        tuple(counts),
        node.n_packed + len(ins.placements),
        item_area,
        ins.prior_area,
        ins.completes,
        ins.depth,
        ins.kind is InsertionKind.WASTE_ONLY,
        ins.kind is InsertionKind.TWO_ITEMS,
        closed,
        col_has_items,
        shelf_min,
        shelf_chains,
        new_min,
        new_chains,
    )


def _min_opt(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return a if a < b else b


# ---------------------------------------------------------------------------
# symmetry breaking and sibling dominance

def symmetry_allows(node: Node, ins: Insertion, instance: Instance) -> bool:
    """False for patterns whose sibling sub-plates could be swapped to put
    the smaller item id first.

    Cells are compared against their left sibling when inserted (their
    contents are final immediately); a shelf is compared against the shelf
    below it at the moment it *closes*, because items joining it later can
    create the chain link that makes the swap illegal."""
    defects = instance.plate_defects(node.bin)
    if ins.depth == 3:
        new_min = ins.min_item()
        if (
            new_min is not None
            and node.cell_min_item is not None
            and new_min < node.cell_min_item
            and not (node.cell_chain_ids & ins.chain_ids())
        ):
            y0, y1 = node.y2_prev, node.y2_curr
            if _rect_clear(defects, node.x3_prev, y0, node.x3_curr, y1) and _rect_clear(
                defects, ins.x3_prev, y0, ins.x3_curr, y1
            ):
                return False
        if ins.completes:
            q_min = _min_opt(node.shelf_min_item, new_min)
            q_chains = node.shelf_chain_ids | ins.chain_ids()
            if not _shelf_close_allowed(node, defects, q_min, q_chains, ins.x1_curr):
                return False
        return True
    # depth 0/1/2: the current shelf closes now
    final_x1 = ins.x1_curr if ins.depth == 2 else (ins.prev_col_x1 or node.x1_curr)
    if not _shelf_close_allowed(
        node, defects, node.shelf_min_item, node.shelf_chain_ids, final_x1
    ):
        return False
    if ins.depth == 2 and ins.completes:
        # the newly opened shelf also closes immediately, against the old one
        q_min = ins.min_item()
        if (
            q_min is not None
            and node.shelf_min_item is not None
            and q_min < node.shelf_min_item
            and not (node.shelf_chain_ids & ins.chain_ids())
        ):
            if _rect_clear(
                defects, node.x1_prev, node.y2_prev, ins.x1_curr, node.y2_curr
            ) and _rect_clear(defects, node.x1_prev, ins.y2_prev, ins.x1_curr, ins.y2_curr):
                return False
    return True


def _shelf_close_allowed(
    node: Node,
    defects: tuple[Defect, ...],
    q_min: Optional[int],
    q_chains: frozenset[int],
    final_x1: int,
) -> bool:
    """Swap test between the closing shelf and the closed shelf below it."""
    if q_min is None or not node.closed_shelves:
        return True
    below = node.closed_shelves[-1]
    if below.min_item is None or q_min >= below.min_item:
        return True
    if below.chain_ids & q_chains:
        return True
    if not _rect_clear(defects, node.x1_prev, below.y0, final_x1, below.y1):
        return True
    if not _rect_clear(defects, node.x1_prev, node.y2_prev, final_x1, node.y2_curr):
        return True
    return False


def filter_dominated_children(children: list[Node]) -> list[Node]:
    """Among siblings packing the same items on the same plate, keep only
    undominated fronts; the earliest generated wins ties."""
    groups: dict[tuple, list[int]] = {}
    for i, ch in enumerate(children):
        groups.setdefault((ch.counts, ch.bin), []).append(i)
    dropped: set[int] = set()
    for idxs in groups.values():
        if len(idxs) < 2:
            continue
        kept: list[int] = []
        fronts = {i: children[i].front_key() for i in idxs}
        for i in idxs:
            fi = fronts[i]
            dead = False
            for j in list(kept):
                fj = fronts[j]
                if front_key_leq(fj, fi):
                    dead = True
                    break
                if front_key_leq(fi, fj):
                    kept.remove(j)
                    dropped.add(j)
            if dead:
                dropped.add(i)
            else:
                kept.append(i)
    return [ch for i, ch in enumerate(children) if i not in dropped]


def children(
    node: Node,
    instance: Instance,
    use_symmetry: bool = True,
    use_dominance: bool = True,
) -> list[Node]:
    """Enumerate, symmetry-filter, apply, dominance-filter, in that order."""
    ins_list = enumerate_insertions(node, instance)
    if use_symmetry:
        ins_list = [ins for ins in ins_list if symmetry_allows(node, ins, instance)]
    kids = [apply_insertion(node, ins) for ins in ins_list]
    if use_dominance:
        kids = filter_dominated_children(kids)
    return kids
