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

Each depth has one frame, built once by ``_frame``: the plate; the column's
1-cuts and the edges its final 1-cut must clear; the cell's left edge and
floor; and a shelf top that is fixed (depth 3) or set by the cell (depths
0-2).  What the depths of a node share is read once per node and handed to
every frame: the plate's defects and the edges of the closed shelves
(``_closed_edges``); the current shelf's edge joins them only at the depths
that close it.  Depths 0 and 1 close the current column to build it, and a
depth whose move is illegal has none.  The item cells and the waste cell
both read it.  ``_gen_cells`` places the item cells, in the shelf at depth
3 or opening one (``_cell_opening_shelf``), and checks the cuts that the
move grows or closes (the column's, at depths 2 and 3, and the shelf
below's, at depth 2).  ``_gen_waste`` covers the nearest defect: with a
band above the shelves at depth 2, else with a strip right of the frame's
left edge; it is not called on a plate without defects.

The cell trials are one loop over the cell contents of the chain state
(``pair_combos``): each candidate item alone, in each orientation, then the
width-matched two-item stacks.  A trial's shape step places one item or a
stack, and the rest of the trial is the same code for both.  The loop runs
behind a set-up done once per frame.  Whatever does not depend on the cell
is read there, or on the first trial that needs it: the final 1-cut of
every cell that keeps the column's width, whether such a cell passes the
defect checks, the widest 1-cut a growing cell may reach past them
(``_grow_max``), and the cell-swap rule's facts about the left cell.  A
trial then resolves its own 1-cut only when it grows the column or
completes the solution, and compares it with those bounds.  Insertions,
which store no fact their other fields give, and placements are built with
``tuple.__new__``, without the Python-level constructor of the NamedTuple.

Symmetry breaking (``children(..., use_symmetry=True)``) forbids a pair
of sibling sub-plates, a cell and the cell right of it or a shelf and the
shelf above it, when the later one holds a smaller item id, the two share
no chain and both are defect-free (``_swap_forbidden``): swapping them
would put the smaller id first.  The swapped pattern is not always
reachable in the scheme, so the rule can remove the optimum: on the 150
small random instances of the README's table it loses it on 23, the
sibling filter below on 5, and both together on 27
(``tests/test_search.py::TestPruningLosses``).  Its cell case is applied
inside the cell generator at depth 3: a forbidden cell is omitted, never
built.  Its feasibility is still probed while the suppression tests above
are undecided, because raw feasibility, not the emitted set, drives them;
so symmetry never changes which depths are open.

``child_insertions`` is the whole per-expansion pipeline, and it runs on
insertions only: enumerate, apply the symmetry rule where a shelf closes
(``symmetry_allows``), then drop the siblings whose fronts are
dominated.  This is a pseudo-dominance: it ignores which depths stay open
to a sibling's children.  A child's chain counts, plate and front all
follow from its parent and its insertion, so no child is built to decide
which ones to keep.  ``children`` builds the kept ones for callers that
want nodes.

A chain state's cell contents are assembled by ``pair_combos`` from its
chain heads alone, with tables built once per instance (``cell_tables``):
each item's one-item cells and its stacks under its chain successor, and
for each width the chains that hold an item of that width.
They hold O(items) entries, and nothing is stored per state.

One per-instance cache remains: the child memo of
``child_insertions(..., memoize=True)``, keyed on every node field the
pipeline reads (``CHILD_MEMO_FIELDS``).  It serves searches that meet a
state again: MBA* restarts from the root with a larger fringe, and the
iterative beam with a wider beam.  Its table (``ByteBoundedCache``) charges
each entry a size worked out from its lengths and evicts the entries put
first; a lookup is the table's own ``dict.get``, and no order of use is
kept.
"""

from __future__ import annotations

import itertools
from enum import Enum
from operator import attrgetter, getitem
from typing import Callable, Hashable, Iterable, NamedTuple, Optional, Sequence

from .model import (
    Defect, Instance, Node, Params, _cell_items, _min_opt, admit_front,
)


class InsertionKind(Enum):
    ONE_ITEM = 1
    ITEM_WASTE_ABOVE = 2
    ITEM_WASTE_BELOW = 3
    TWO_ITEMS = 4
    WASTE_ONLY = 5


# module aliases of the kinds: attribute lookups on an Enum class are slow
_ONE_ITEM, _ITEM_WASTE_ABOVE, _ITEM_WASTE_BELOW, _TWO_ITEMS, _WASTE_ONLY = InsertionKind


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
    (set for depth 0/1 and for completing moves; None otherwise).  Nothing
    else is stored: a plate opens at depth 0, the plates before ``bin`` are
    full, and a cell's 4-cut is an edge of its placements.
    """

    kind: InsertionKind
    depth: int
    completes: bool
    placements: tuple[Placement, ...]
    bin: int
    x1_prev: int
    x1_curr: int
    y2_prev: int
    y2_curr: int
    x3_prev: int
    x3_curr: int
    prev_col_x1: Optional[int]


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

def _closed_edges(node: Node) -> list[int]:
    """Cut edges of the closed shelves that the final x1 may not approach
    closer than min_waste.

    Closed shelves that ended with an item cell keep their content edge as a
    constraint (a zero-width strip is fine, a sliver is not).  ``_frame``
    adds the current shelf's edge at the depths that close it, and a cell
    that packs the last item adds its own right edge.
    """
    return [r.edge for r in node.closed_shelves if r.edge_is_cut]


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
    """Re-check cuts that widen or materialize when x1 grows to
    ``final_x1`` (at least x1_curr): see ``_grow_max``."""
    if final_x1 == node.x1_curr or not defects:
        return True
    return final_x1 <= _grow_max(node, defects, 3, final_x1)


def _grow_max(node: Node, defects: tuple[Defect, ...], depth: int, x1_max: int) -> int:
    """The largest final 1-cut x1 > x1_curr, up to ``x1_max``, that a move
    at depth 2 or 3 may give the column without a cut crossing a defect, or
    at most x1_curr if there is none.

    Growing the column widens the top cuts of its closed shelves to x1 and
    makes their edges at x1_curr real cuts.  At depth
    2 the shelf being closed also leaves its strip cut
    (``_close_shelf_cut_ok``), and the new shelf's floor is cut from x1_prev
    to x1.  A horizontal cut from x1_prev to x1 clears the defects while x1
    is at most the left edge of every defect it crosses."""
    x1_prev, x1_curr = node.x1_prev, node.x1_curr
    if depth == 2 and node.cell_min_item is not None and not _vcut_ok(
            defects, node.x3_curr, node.y2_prev, node.y2_curr):
        return x1_curr  # every x1 > x1_curr >= x3_curr makes the strip cut
    levels = []
    for rec in node.closed_shelves:
        if rec.edge_is_cut and rec.edge == x1_curr and not _vcut_ok(
                defects, x1_curr, rec.y0, rec.y1):
            return x1_curr
        levels.append(rec.y1)
    if depth == 2:
        levels.append(node.y2_curr)
    grow_max = x1_max
    for d in defects:
        if d.x < grow_max and x1_prev < d.x + d.width:
            for y in levels:
                if d.y < y < d.y + d.height:
                    grow_max = d.x
                    break
    return grow_max


def _close_shelf_cut_ok(node: Node, final_x1: int, defects: tuple[Defect, ...]) -> bool:
    """Strip cut left behind by the shelf being closed, if one appears."""
    if node.cell_min_item is None:
        return True  # trailing waste cell absorbs the strip, no new cut
    if final_x1 > node.x3_curr and defects:
        return _vcut_ok(defects, node.x3_curr, node.y2_prev, node.y2_curr)
    return True


def _frame(
    node: Node, instance: Instance, depth: int, defects: tuple[Defect, ...], closed: list[int]
) -> Optional[tuple]:
    """Where every cell placed at ``depth`` goes, or None if the move is
    illegal: (plate, prev_col_x1, x1_prev, x1_curr, the edges the final
    1-cut must clear, the plate's defects, the cell's left edge x, its floor
    y_lo and the top y_cap it may not pass).

    ``defects`` are those of the node's plate and ``closed`` the edges of
    its closed shelves (``_closed_edges``), both read once per node; the
    frame shares them, and callers must not change them.  At depth 3 the
    cell extends the current shelf, under its fixed top; at depth 2 it
    opens a shelf above it.  Depths 1 and 0 close the current column (depth
    0 its plate too) and open a column at the closing 1-cut, or at the left
    edge of the next plate."""
    if depth == 3:
        x, y_lo, y_cap = node.x3_curr, node.y2_prev, node.y2_curr
        if defects and not _vcut_ok(defects, x, y_lo, y_cap):
            return None  # the boundary with the current cell is a real 3-cut
        return (node.bin, None, node.x1_prev, node.x1_curr, closed, defects, x, y_lo, y_cap)
    # the current shelf closes: an item cell ending it adds its edge
    edges = closed + [node.x3_curr] if node.cell_min_item is not None else closed
    p = instance.params
    W, H = p.plate_width, p.plate_height
    if depth == 2:
        return (node.bin, None, node.x1_prev, node.x1_curr, edges, defects,
                node.x1_prev, node.y2_curr, H)
    new_bin = depth == 0
    x1 = None  # the final 1-cut of the closed column; none before the first plate
    if node.bin >= 0:
        lower = node.x1_curr
        if node.col_has_items:
            lower = max(lower, node.x1_prev + p.min1)
        x1 = _resolve_x1(node.x1_curr, lower, edges, p.min_waste)
        if node.col_has_items and x1 - node.x1_prev > p.max1:
            return None
        if x1 > W:
            return None
        if not (_growth_cuts_ok(node, x1, defects) and _close_shelf_cut_ok(node, x1, defects)):
            return None
        # the top strip's cut (a trailing all-waste shelf merges with the
        # strip; an item shelf's top is never a sliver below H)
        if (node.shelf_min_item is not None and node.y2_curr < H and defects
                and not _hcut_ok(defects, node.y2_curr, node.x1_prev, x1)):
            return None
        if new_bin and node.col_has_items and 0 < W - x1 < p.min_waste:
            return None  # the plate's trailing gap would be a sliver
        # the closing 1-cut is the next column's left edge, or the plate's last
        # cut (none when an all-waste column merges with the trailing gap)
        if defects and (not new_bin or node.col_has_items and x1 < W):
            if not _vcut_ok(defects, x1, 0, H):
                return None
    if new_bin:
        plate, x, defects = node.bin + 1, 0, instance.plate_defects(node.bin + 1)
    else:
        plate, x = node.bin, x1
    return (plate, x1, x, x, [], defects, x, 0, H)


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


def depths_after(ins: Insertion) -> tuple[int, ...]:
    """Depths open to the next insertion, deepest first, after ``ins``."""
    if ins.kind is _WASTE_ONLY:
        return (max(1, ins.depth),)
    if ins.kind is _TWO_ITEMS and ins.depth != 3:
        return (3,)
    return (3, 2, 1, 0)


def _allowed_depths(node: Node) -> tuple[int, ...]:
    return (0,) if node.insertion is None else depths_after(node.insertion)


class ByteBoundedCache:
    """A table of values whose charged bytes stay within ``budget``:
    ``charge(key, value)`` is an entry's size in bytes, worked out from
    their lengths.  ``get`` is the table's own ``dict.get``, and ``put``
    adds a key that ``get`` missed, then evicts the entries put first until
    the total charged fits the budget.  Values are shared: callers must not
    change them, and None is not a value.  An entry's charge is worked out
    again when it is evicted, so the table holds the values only."""

    __slots__ = ("budget", "charge", "charged", "_table", "get")

    def __init__(self, budget: int, charge: Callable[[Hashable, object], int]) -> None:
        self.budget = budget
        self.charge = charge
        self.charged = 0  # bytes charged for the entries held
        self._table: dict = {}
        self.get = self._table.get

    def __len__(self) -> int:
        return len(self._table)

    def put(self, key: Hashable, value) -> None:
        table, charge = self._table, self.charge
        table[key] = value
        self.charged += charge(key, value)
        while self.charged > self.budget:
            first = next(iter(table))
            self.charged -= charge(first, table.pop(first))


_flatten = itertools.chain.from_iterable


class CellTables(NamedTuple):
    """What ``pair_combos`` assembles a chain state's cells from, built
    once per instance by ``cell_tables``: a few entries per item, none per
    pair of items.

    ``singles[c][r]`` and ``stacks[c][r]`` belong to the item at rank r of
    chain c; one more, empty, entry per chain stands for its end.

    * ``singles`` holds the item's one-item cell contents, one per
      orientation (``Instance.oriented``).
    * ``stacks`` holds (the item's stacks under its chain successor, every
      orientation in turn; its plans).  The plans are None when no other
      chain holds an item of the item's widths, else one (bottom half,
      width entry or None, stacks under the successor) per orientation.
      The entry is empty when the plans are None and there are no stacks.
    * ``widths[w]``, the width entry of w, has one (chain, {rank: top
      half}) per chain that holds an item with an orientation of width w,
      in chain order, with the rank of each such item.

    A cell's contents are (j, chain of j, width, h_j, rot_j, k, chain of
    k, h_k, rot_k): item j at the bottom, item k on top of the 4-cut, or k
    and its fields None for a one-item cell.  A bottom half (j, chain of j,
    width, h_j, rot_j) and a top half (k, chain of k, h_k, rot_k) make a
    stack's."""

    singles: tuple[tuple[tuple[tuple, ...], ...], ...]
    stacks: tuple[tuple[tuple, ...], ...]
    widths: dict[int, tuple[tuple[int, dict[int, tuple]], ...]]


def cell_tables(instance: Instance) -> CellTables:
    """The ``CellTables`` of ``instance``, built on first use."""
    tables = instance.__dict__.get("_cell_tables")
    if tables is not None:
        return tables
    oriented = instance.oriented
    held: dict[int, dict[int, dict[int, tuple]]] = {}
    for c, chain in enumerate(instance.chains):
        for r, k in enumerate(chain):
            for w, h, rot in oriented[k]:
                held.setdefault(w, {}).setdefault(c, {})[r] = (k, c, h, rot)
    widths = {w: tuple(by_chain.items()) for w, by_chain in held.items()}
    chain_singles, chain_stacks = [], []
    for c, chain in enumerate(instance.chains):
        chain_singles.append(tuple(
            tuple((j, c, w, h, rot, None, None, None, None) for w, h, rot in oriented[j])
            for j in chain) + ((),))
        row = []
        for r, j in enumerate(chain):
            successor = oriented[chain[r + 1]] if r + 1 < len(chain) else ()
            plans = []
            for w, h, rot in oriented[j]:
                bottom = (j, c, w, h, rot)
                under = tuple(bottom + (chain[r + 1], c, hk, rk)
                              for wk, hk, rk in successor if wk == w)
                plans.append((bottom, widths[w] if len(widths[w]) > 1 else None, under))
            under_all = sum((under for _, _, under in plans), ())
            if any(entry is not None for _, entry, _ in plans):
                row.append((under_all, tuple(plans)))
            else:
                row.append((under_all, None) if under_all else ())
        chain_stacks.append(tuple(row) + ((),))
    tables = instance.__dict__["_cell_tables"] = CellTables(
        tuple(chain_singles), tuple(chain_stacks), widths)
    return tables


def pair_combos(node: Node, instance: Instance) -> list[tuple]:
    """The contents of every cell the chain state ``node.counts`` can
    place, in trial order: each candidate item (``candidate_items``) alone,
    in each orientation, then the two-item stacks, whose bottom item is a
    candidate and whose top one is another candidate or the bottom item's
    chain successor, of equal widths.  Per candidate and orientation, the
    stacks on other candidates come in chain order, then the one on the
    successor.

    The list is assembled from the chain heads alone, with the instance's
    ``cell_tables``; only a stack of two candidates is a new tuple.
    Searches call this once per enumeration, through this name."""
    tables = instance.__dict__.get("_cell_tables") or cell_tables(instance)
    counts = node.counts
    out = list(_flatten(map(getitem, tables.singles, counts)))
    for under_all, plans in filter(None, map(getitem, tables.stacks, counts)):
        if plans is None:
            out += under_all
            continue
        for bottom, entry, under in plans:
            if entry is not None:
                cj = bottom[1]
                for c, tops in entry:
                    if c != cj:
                        top = tops.get(counts[c])
                        if top is not None:
                            out.append(bottom + top)
            out += under
    return out


def enumerate_insertions(
    node: Node, instance: Instance, use_symmetry: bool = False
) -> list[Insertion]:
    """All feasible insertions at ``node``, pruning rules applied.

    One pass visits the allowed depths deepest first, and each depth may
    close the shallower ones: depth-2 insertions are only emitted while no
    depth-3 cell fits (past that, depth 2 is only probed); depths 2 and 1
    close once some cell fits without growing the column, and depth 0 once
    any item cell fits.  Raw feasibility, not the emitted set, drives these
    tests.  With ``use_symmetry`` the depth-3 cells that the cell-swap rule
    forbids are omitted (see ``_swap_forbidden``); they still count as
    feasible for the suppression tests, so the result is the unflagged list
    minus exactly those cells, in the same order.

    What the depths share is read once per node: the plate's defects and
    the edges of the closed shelves (see ``_frame``).
    """
    if node.complete:
        return []
    cells = pair_combos(node, instance)
    defects = instance.plate_defects(node.bin)
    closed = _closed_edges(node)
    out: list[Insertion] = []
    fits = no_growth = False
    for depth in _allowed_depths(node):
        if depth in (1, 2) and no_growth:
            continue
        if depth == 0 and (fits or node.bin + 1 >= instance.params.n_plates):
            continue
        frame = _frame(node, instance, depth, defects, closed)
        if frame is None:
            continue
        emit = depth != 2 or not fits
        placed, fits_d, no_growth_d = _gen_cells(
            node, instance, frame, cells, depth, use_symmetry, emit)
        fits = fits or fits_d
        no_growth = no_growth or no_growth_d
        if emit:
            out += placed
            if frame[5]:  # without defects there is no waste cell
                w_ins = _gen_waste(node, instance, frame, depth)
                if w_ins is not None:
                    out.append(w_ins)
    if len(out) > 1:
        out.sort(key=_insertion_sort_key)
    return out


def _insertion_sort_key(ins: Insertion):
    pls = ins.placements
    if not pls:
        return (1 << 30, -ins.depth, ins.kind._value_, ())
    first = pls[0]
    if len(pls) == 1:
        return (first.item_id, -ins.depth, ins.kind._value_, ((first.item_id, first.rotated),))
    second = pls[1]
    return (first.item_id, -ins.depth, ins.kind._value_,
            ((first.item_id, first.rotated), (second.item_id, second.rotated)))


def _closing_cuts_ok(
    defects: tuple[Defect, ...], p: Params, x_end: int, x1: int, x1_prev: int, y_lo: int, y_hi: int
) -> bool:
    """Cuts that appear when a cell packs the last item and the column closes
    at x1: the strip right of the cell, the column's top strip and the 1-cut."""
    if x1 > x_end and not _vcut_ok(defects, x_end, y_lo, y_hi):
        return False
    if y_hi < p.plate_height and not _hcut_ok(defects, y_hi, x1_prev, x1):
        return False
    return x1 >= p.plate_width or _vcut_ok(defects, x1, 0, p.plate_height)


def _cell_opening_shelf(
    defects: tuple[Defect, ...], x: int, y_lo: int, w: int, h: int, p: Params
) -> Optional[tuple[InsertionKind, int, int]]:
    """(kind, item y, cell top) of an item cell that opens a shelf at y_lo,
    so that its height sets the shelf's, or None.  The item itself fits
    below the plate's top edge."""
    mw, H = p.min_waste, p.plate_height
    if not defects or _rect_clear(defects, x, y_lo, x + w, y_lo + h):
        if h >= p.min2:
            kind, y_item, y_hi = _ONE_ITEM, y_lo, y_lo + h
        else:  # widen to min2, keep the waste >= min_waste
            kind, y_item, y_hi = _ITEM_WASTE_ABOVE, y_lo, y_lo + max(p.min2, h + mw)
    else:
        # bottom spot is defective: put the item at the top of a taller cell
        y_item = _raise_item(defects, x, w, h, max(y_lo + mw, y_lo + p.min2 - h), H)
        if y_item is None:
            return None
        kind, y_hi = _ITEM_WASTE_BELOW, y_item + h
    if y_hi > H - mw and y_hi != H:
        return None  # past the plate, or a sliver above
    return kind, y_item, y_hi


def _gen_cells(
    node: Node,
    instance: Instance,
    frame: tuple,
    cells: list[tuple],
    depth: int,
    use_symmetry: bool = False,
    emit: bool = True,
) -> tuple[list[Insertion], bool, bool]:
    """Item cells placed in the ``frame`` of ``depth``, whether some cell
    fits and whether some cell fits without growing the column.

    ``cells`` are the contents the chain state can place (``pair_combos``),
    tried in order.  The depth decides a cell's shape (in the shelf, or
    opening one) and the extra cuts to check.  No insertion is built for a
    cell that is not emitted: every cell when ``emit`` is False, and at
    depth 3 under ``use_symmetry`` a cell the cell-swap rule forbids.  Such
    a cell is only tried until some cell is known to fit without growth,
    which settles both facts.

    A trial is one loop body: a shape step, for one item or for a stack,
    then one tail.  The tail resolves the cell's final x1 (``_resolve_x1``;
    a cell that ends left of x1_curr and does not complete shares one x1
    per frame, and without edges a cell that grows the column and does not
    complete takes its own right edge), compares it with the bounds the
    frame's cuts set (``keeps`` for x1 = x1_curr, ``_grow_max`` past it),
    and checks the cuts that close the column after a completing cell
    (``_closing_cuts_ok``).  The facts of the cell-swap rule
    (``_swap_forbidden``) about the left cell are read once per frame, and
    each trial tests only its own cell against them."""
    plate, prev_col_x1, x1_prev, x1_curr, edges, defects, x, y_lo, y_cap = frame
    p = instance.params
    mw, H, min2 = p.min_waste, p.plate_height, p.min2
    x1_max = min(x1_prev + p.max1, p.plate_width)
    items_left = instance.n_items - node.n_packed
    new = tuple.__new__  # builds a NamedTuple without its Python-level __new__
    # the final x1 of every cell that ends left of x1_curr and does not
    # complete, and the largest x1 > x1_curr whose cuts clear the defects:
    # each is worked out on the first trial that needs it
    x1_kept = None if edges else x1_curr
    grow_max = None if defects and depth >= 2 else x1_max
    # whether a cell may leave the 1-cut at x1_curr: only at depth 2 does
    # that close a shelf, whose strip cut and the new shelf's floor appear
    keeps = x1_curr <= x1_max and (depth != 2 or not defects or (
        _close_shelf_cut_ok(node, x1_curr, defects) and _hcut_ok(defects, y_lo, x1_prev, x1_curr)))
    # the cell-swap rule forbids nothing unless the left cell holds an item
    # and is defect-free; a cell is then forbidden when it holds a smaller
    # item id, shares no chain with the left cell and is defect-free
    swap_min = None
    if use_symmetry and depth == 3 and node.cell_min_item is not None and (
            not defects or _rect_clear(defects, node.x3_prev, y_lo, x, y_cap)):
        swap_min, left_chains = node.cell_min_item, node.cell_chain_ids
    out: list[Insertion] = []
    fits = no_growth = False

    for j, cj, w, h, rot, k, ck, hk, rk in cells:
        x_end = x + w
        if x_end > x1_max:
            continue  # past the widest 1-cut the column may get
        if k is None:
            if y_lo + h > y_cap:
                continue  # above the shelf's top, or the plate's
            if depth == 3:  # between the fixed cuts y_lo and y_cap of the shelf
                y_hi = y_cap
                if h == y_cap - y_lo:
                    kind, y_item = _ONE_ITEM, y_lo
                elif h > y_cap - y_lo - mw:
                    continue  # the 4-cut waste would be a sliver
                else:
                    kind, y_item = _ITEM_WASTE_ABOVE, y_lo
                if defects and not _rect_clear(defects, x, y_lo, x_end, y_lo + h):
                    if kind is _ONE_ITEM or not _rect_clear(defects, x, y_cap - h, x_end, y_cap):
                        continue
                    kind, y_item = _ITEM_WASTE_BELOW, y_cap - h
            else:
                cell = _cell_opening_shelf(defects, x, y_lo, w, h, p)
                if cell is None:
                    continue
                kind, y_item, y_hi = cell
            completing = items_left == 1
            skip = not emit or swap_min is not None and j < swap_min and cj not in left_chains and (
                not defects or _rect_clear(defects, x, y_lo, x_end, y_cap))
        else:  # j below the 4-cut, k above it: the pair fills the shelf, or sets it
            split_y = y_lo + h
            y_hi = split_y + hk
            if depth == 3:
                if y_hi != y_cap:
                    continue
            elif y_hi - y_lo < min2 or (y_hi > H - mw and y_hi != H):
                continue
            if defects and not (
                _rect_clear(defects, x, y_lo, x_end, split_y)
                and _rect_clear(defects, x, split_y, x_end, y_hi)
            ):
                continue
            kind, completing = _TWO_ITEMS, items_left == 2
            # both items are clear, so the cell is: an instance has no empty defect
            skip = not emit or swap_min is not None and (j if j < k else k) < swap_min and (
                cj not in left_chains and ck not in left_chains)
        if skip and no_growth:
            continue
        if completing:
            x1 = _resolve_x1(x1_curr, max(x_end, x1_prev + p.min1), edges + [x_end], mw)
        elif x_end <= x1_curr:
            if x1_kept is None:
                x1_kept = _resolve_x1(x1_curr, x1_curr, edges, mw)
            x1 = x1_kept
        elif edges:
            x1 = _resolve_x1(x1_curr, x_end, edges, mw)
        else:
            x1 = x_end
        if x1 > x1_curr:
            if grow_max is None:
                grow_max = _grow_max(node, defects, depth, x1_max)
            if x1 > grow_max:
                continue
        elif not keeps:
            continue
        if completing and defects and not _closing_cuts_ok(
                defects, p, x_end, x1, x1_prev, y_lo, y_hi):
            continue
        fits = True
        if x1 == x1_curr:
            no_growth = True
        if skip:
            if no_growth and not emit:
                return out, fits, no_growth  # a probe: nothing left to learn
            continue
        if k is None:
            pls = (new(Placement, (j, cj, x, y_item, w, h, rot)),)
        else:
            pls = (new(Placement, (j, cj, x, y_lo, w, h, rot)),
                   new(Placement, (k, ck, x, split_y, w, hk, rk)))
        out.append(new(Insertion, (
            kind, depth, completing, pls, plate, x1_prev, x1, y_lo, y_hi,
            x, x_end, x1 if completing and depth >= 2 else prev_col_x1,
        )))
    return out, fits, no_growth


def _gen_waste(node: Node, instance: Instance, frame: tuple, depth: int) -> Optional[Insertion]:
    """A waste cell in the ``frame`` of ``depth`` covering the nearest
    blocking defect, if there is one: at depth 2 a band above the shelves,
    else a strip right of the frame's left edge."""
    plate, prev_col_x1, x1_prev, x1_curr, edges, defects, x, y_lo, y_cap = frame
    # most frames have no defect ahead: find the first one before listing them
    if depth == 2:
        for d in defects:
            if d.y + d.height > y_lo and d.x < x1_curr and x1_prev < d.x + d.width:
                break
        else:
            return None
        band = [d for d in defects
                if d.y + d.height > y_lo and d.x < x1_curr and x1_prev < d.x + d.width]
    else:
        for d in defects:
            if d.x + d.width > x and d.y < y_cap and y_lo < d.y + d.height:
                break
        else:
            return None
        ahead = [d for d in defects if d.x + d.width > x and d.y < y_cap and y_lo < d.y + d.height]
    p = instance.params
    mw = p.min_waste
    # a column reached at depth 2 or 3 holds items, so max1 bounds it
    x1_max = min(x1_prev + p.max1, p.plate_width) if depth >= 2 else p.plate_width
    if depth == 2:
        H = p.plate_height
        first = min(band, key=lambda d: (d.y, d.x))
        y_end = _extend_past(y_lo, max(y_lo + mw, first.y + first.height), band, vertical=False)
        if y_end > H:
            return None
        x1 = _resolve_x1(x1_curr, x1_curr, edges, mw)
        if x1 > x1_max:
            return None
        if not (_growth_cuts_ok(node, x1, defects) and _close_shelf_cut_ok(node, x1, defects)):
            return None
        if node.shelf_min_item is not None and not _hcut_ok(defects, y_lo, x1_prev, x1):
            return None
        if y_end < H and not _hcut_ok(defects, y_end, x1_prev, x1):
            return None
        return tuple.__new__(Insertion, (
            _WASTE_ONLY, 2, False, (), plate, x1_prev, x1, y_lo, y_end, x1_prev, x1, None,
        ))
    first = min(ahead, key=lambda d: (d.x, d.y))
    x_end = _extend_past(x, max(x + mw, first.x + first.width), ahead, vertical=True)
    x1 = _resolve_x1(x1_curr, x_end, edges, mw)
    if x1 > x1_max or not _vcut_ok(defects, x_end, y_lo, y_cap):
        return None
    if depth == 3 and not _growth_cuts_ok(node, x1, defects):
        return None
    return tuple.__new__(Insertion, (
        _WASTE_ONLY, depth, False, (), plate, x1_prev, x1, y_lo, y_cap, x, x_end, prev_col_x1,
    ))


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

def apply_insertion(node: Node, ins: Insertion, instance: Instance) -> Node:
    """Child node for a feasible insertion: ``Node`` derives its state.
    Searches build every node through this name, where a tracer or a test
    can wrap it."""
    return Node(node, ins, instance)


def insertion_front(ins: Insertion) -> tuple[int, int, int, int, int, int]:
    """``Node.front_key`` of the child that ``ins`` makes."""
    return (ins.bin, ins.x1_prev, ins.x1_curr, ins.x3_curr, ins.y2_prev, ins.y2_curr)


# ---------------------------------------------------------------------------
# symmetry breaking and sibling dominance

def _may_swap(
    first_min: Optional[int], first_chains: frozenset[int],
    then_min: Optional[int], then_chains: Iterable[int],
) -> bool:
    """The half of ``_swap_forbidden`` that reads no cut: both sub-plates
    hold items, the later one a smaller id, and they share no chain."""
    return (then_min is not None and first_min is not None and then_min < first_min
            and first_chains.isdisjoint(then_chains))


def _swap_forbidden(
    defects: tuple[Defect, ...],
    first_min: Optional[int], first_chains: frozenset[int], first_rect: tuple[int, ...],
    then_min: Optional[int], then_chains: Iterable[int], then_rect: tuple[int, ...],
) -> bool:
    """The symmetry-breaking rule, for a sub-plate ``first`` and its
    sibling ``then`` after it (the cell right of it, or the shelf above
    it).  Each has the smallest item id it holds, or None, the chains of its
    items and its rectangle (x0, y0, x1, y1).  The pair is forbidden when
    the later one holds a smaller id, the two share no chain (``_may_swap``)
    and both are defect-free: swapping them would put the smaller id
    first."""
    return (_may_swap(first_min, first_chains, then_min, then_chains)
            and _rect_clear(defects, *first_rect) and _rect_clear(defects, *then_rect))


def symmetry_allows(node: Node, ins: Insertion, instance: Instance) -> bool:
    """False where ``ins`` makes a pair of sibling sub-plates that
    ``_swap_forbidden`` forbids.

    A cell is tested against its left cell when it is inserted, as its
    contents are final at once.  A shelf is tested against the shelf below
    it when it *closes*, because items joining it later can create the
    chain link that makes the swap illegal: on a move below depth 3, or on
    one that completes the solution.  A new shelf that completes the
    solution also closes at once, against the shelf it closes."""
    defects = instance.plate_defects(node.bin)
    x1_prev, y2_prev, y2_curr = node.x1_prev, node.y2_prev, node.y2_curr
    q_min, q_chains = node.shelf_min_item, node.shelf_chain_ids  # the shelf that closes
    if ins.depth == 3:
        new_min, new_chains = _cell_items(ins, instance)
        if _swap_forbidden(
                defects, node.cell_min_item, node.cell_chain_ids,
                (node.x3_prev, y2_prev, node.x3_curr, y2_curr),
                new_min, new_chains, (node.x3_curr, y2_prev, ins.x3_curr, y2_curr)):
            return False
        if not ins.completes:
            return True
        q_min, q_chains = _min_opt(q_min, new_min), q_chains | new_chains
    x1 = ins.x1_curr if ins.depth >= 2 else (ins.prev_col_x1 or node.x1_curr)
    if node.closed_shelves:
        below = node.closed_shelves[-1]
        if _swap_forbidden(
                defects, below.min_item, below.chain_ids, (x1_prev, below.y0, x1, below.y1),
                q_min, q_chains, (x1_prev, y2_prev, x1, y2_curr)):
            return False
    if ins.depth == 2 and ins.completes:
        new_min, new_chains = _cell_items(ins, instance)
        return not _swap_forbidden(
            defects, node.shelf_min_item, node.shelf_chain_ids, (x1_prev, y2_prev, x1, y2_curr),
            new_min, new_chains, (x1_prev, ins.y2_prev, x1, ins.y2_curr))
    return True


def filter_dominated_children(insertions: list[Insertion]) -> list[Insertion]:
    """Among sibling insertions packing the same items on the same plate,
    drop each one that a sibling dominates: its child's front is at or
    right of the sibling's, and strictly so or the sibling was generated
    earlier (so the earliest of equal fronts is kept).  Siblings pack the
    same items exactly when they advance the same chains, so no child is
    built to decide this.  The input itself is returned when nothing is
    dropped.

    A group is admitted in generation order into a list of undominated
    fronts (``admit_front``), each labelled with its sibling's position in
    place of the plate: a sibling that an earlier one is at most is
    rejected, and one that a later one strictly dominates is evicted, so
    the list ends with the kept siblings."""
    groups: dict[tuple, list[int]] = {}
    for i, ins in enumerate(insertions):
        pls = ins.placements
        if not pls:
            key = (ins.bin,)
        elif len(pls) == 1:
            key = (ins.bin, pls[0].chain_idx)
        else:
            a, b = pls[0].chain_idx, pls[1].chain_idx
            key = (ins.bin, a, b) if a <= b else (ins.bin, b, a)
        groups.setdefault(key, []).append(i)
    if len(groups) == len(insertions):
        return insertions
    dropped: set[int] = set()
    for members in groups.values():
        if len(members) < 2:
            continue
        kept: list[tuple] = []
        for i in members:
            ins = insertions[i]
            admit_front(kept, (i, ins.x1_prev, ins.x1_curr, ins.x3_curr, ins.y2_prev, ins.y2_curr))
        if len(kept) < len(members):
            dropped.update(members)
            dropped.difference_update(profile[0] for profile in kept)
    if not dropped:
        return insertions
    return [ins for i, ins in enumerate(insertions) if i not in dropped]


# The node fields that the child pipeline reads, which key the child memo
# along with the open depths and both flags.  A node's other fields follow
# from these or are never read here (see tests/test_branching.py).
CHILD_MEMO_FIELDS = (
    "bin", "x1_prev", "x1_curr", "y2_prev", "y2_curr", "x3_prev", "x3_curr", "counts",
    "closed_shelves", "col_has_items", "shelf_min_item", "shelf_chain_ids", "cell_min_item",
    "cell_chain_ids",
)
_memo_fields = attrgetter(*CHILD_MEMO_FIELDS)
_MEMO_COUNTS = CHILD_MEMO_FIELDS.index("counts")

# Child memo entries, in bytes under tracemalloc (CPython 3.11), of the
# objects an entry adds to its node and its instance: a key tuple with its
# chain counts, which take a slot per chain, and the tuple of kept
# insertions, each insertion with its placements and the coordinates it
# made.  Fitted by least squares to 1,800 entries of restarting MBA* on 8-,
# 30- and 60-chain instances, each measured twice with the free lists
# emptied by gc.collect(), with 15-field insertions, as are the figures
# below.  Kept for 12 fields, so that the memo holds the same entries, they
# charge 1.06-1.18 times the sizes of 192 entries of the runs of
# tests/test_search.py::TestCacheBudgets (``_traced_size``; 0.99-1.14 with
# 15).  They count neither the table's own slots (about 50 B an entry) nor
# a key's shelf records and chain-id sets, which its node shares with its
# relatives: dropping a full memo after such a run freed 0.93-1.16 times its
# charged total (most on 8 chains).  Entries averaged 1.45 KB on the
# benchmark's 8-chain instances, 4.7 KB on 30 chains and 10.6 KB on 60.
CHAIN_BYTES = 8
MEMO_ENTRY_BYTES = 320
MEMO_INSERTION_BYTES = 272
MEMO_PLACEMENT_BYTES = 128
# 1.5 MB: 825-1,381 states (median 1,150) on the instances of the benchmark's
# mba_many_chains, whose restarts then hit the memo on 25-28% of lookups
# (36-37% with no bound, 15-16% at 384 states).  On that workload (2 vCPUs,
# CPython 3.11), against a bound of 384 states, it gained 9-21% expansions/s
# for 3-5% more peak RSS; 1.75 MB gained nothing more in 3 pairs, for 1.4%
# more peak RSS.
CHILD_MEMO_BYTES = 1_500_000


def child_memo_key(node: Node, use_symmetry: bool, use_dominance: bool) -> tuple:
    """The child memo's key of ``node``: equal keys give equal kept
    insertions."""
    return _memo_fields(node) + (_allowed_depths(node), use_symmetry, use_dominance)


def child_memo_charge(key: tuple, kept: tuple[Insertion, ...]) -> int:
    """Bytes charged for the child memo's entry of ``key``."""
    placed = 0
    for ins in kept:
        placed += len(ins.placements)
    return (MEMO_ENTRY_BYTES + CHAIN_BYTES * len(key[_MEMO_COUNTS])
            + MEMO_INSERTION_BYTES * len(kept) + MEMO_PLACEMENT_BYTES * placed)


def child_memo(instance: Instance) -> ByteBoundedCache:
    """The child memo of ``instance``: the kept insertions of the states
    that ``child_insertions`` put last, within ``CHILD_MEMO_BYTES``; the
    states put first are evicted first, however often they were read.
    It is made on first use, and each portfolio worker process fills its
    own copy."""
    memo = instance.__dict__.get("_child_memo")
    if memo is None:
        memo = instance.__dict__["_child_memo"] = ByteBoundedCache(
            CHILD_MEMO_BYTES, child_memo_charge)
    return memo


def forget_children(instance: Instance) -> None:
    """Drop the child memo of ``instance``: the next search derives every
    child anew, as on a freshly loaded instance."""
    instance.__dict__.pop("_child_memo", None)


def child_insertions(
    node: Node,
    instance: Instance,
    use_symmetry: bool = True,
    use_dominance: bool = True,
    memoize: bool = False,
) -> Sequence[Insertion]:
    """The insertions of the children the search keeps at ``node``:
    enumerate, symmetry-filter, dominance-filter, in that order.

    With ``use_symmetry`` the generator has already omitted every depth-3
    cell that the cell-swap rule forbids, so ``symmetry_allows`` only runs
    where a shelf closes: below depth 3, or on a completing insertion.
    Whether closing the current shelf could break symmetry (``_may_swap``
    against the shelf below) is decided once per node; where it could not,
    only the completing insertions go through ``symmetry_allows``.

    With ``memoize`` the result is a tuple, looked up in or added to the
    instance's ``child_memo``, which other callers share."""
    if not memoize:
        return _child_insertions(node, instance, use_symmetry, use_dominance)
    memo = child_memo(instance)
    key = child_memo_key(node, use_symmetry, use_dominance)
    kept = memo.get(key)
    if kept is None:
        kept = tuple(_child_insertions(node, instance, use_symmetry, use_dominance))
        memo.put(key, kept)
    return kept


def _child_insertions(
    node: Node, instance: Instance, use_symmetry: bool, use_dominance: bool
) -> list[Insertion]:
    ins_list = enumerate_insertions(node, instance, use_symmetry)
    if use_symmetry:
        below = node.closed_shelves[-1] if node.closed_shelves else None
        closes = below is not None and _may_swap(
            below.min_item, below.chain_ids, node.shelf_min_item, node.shelf_chain_ids)
        ins_list = [ins for ins in ins_list
                    if not (ins.completes or closes and ins.depth < 3)
                    or symmetry_allows(node, ins, instance)]
    if use_dominance:
        ins_list = filter_dominated_children(ins_list)
    return ins_list


def children(
    node: Node,
    instance: Instance,
    use_symmetry: bool = True,
    use_dominance: bool = True,
) -> list[Node]:
    """The kept children of ``node`` (``child_insertions``), each built."""
    return [apply_insertion(node, ins, instance)
            for ins in child_insertions(node, instance, use_symmetry, use_dominance)]
