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

A closing shelf's own cuts, the strip cut right of its last item cell and
its top cut, are stated once (``_shelf_cuts_max``), as the widest final
1-cut they allow.  Every move that closes a shelf reads them there: the
frames of depths 0 and 1, a depth-2 frame's bound, a completing cell and
the band.  The current shelf's check (``_shelf_closes``) adds the cuts
that the column's growth widens (``_grow_max``), only past x1_curr.  A
column or shelf without items only follows a waste move, after which
only depth 1 is open, or only depth 2 after a band, whose 1-cut cannot
move; so the closing cuts need no exception for one
(``tests/test_branching.py::TestStatesWithoutItems``).

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
would put the smaller id first.  A cell lower than its shelf is not
forbidden right of the shelf's first cell, whose swap the scheme cannot
build.  Other swapped patterns are still not always reachable, so the rule
can remove the optimum: on the 150 small random instances of the README's
table it loses it on 16, and together with the sibling filter below on 17
(``tests/test_search.py::TestPruningLosses``).  Each half of the rule is
applied in one place.  The cell's half is applied inside the cell
generator at depth 3 (``_gen_cells``): a forbidden cell is omitted, never
built.  Its feasibility is still probed while the suppression tests above
are undecided, because raw feasibility, not the emitted set, drives them;
so symmetry never changes which depths are open.  The shelf's half is
decided once per node (``_shelf_swap_max``), and each trial marks the
insertion it forbids; ``symmetry_allows`` tests only the completing ones.

``child_insertions`` is the whole per-expansion pipeline, and it runs on
insertions only: enumerate, drop what the symmetry rule forbids, then
drop the siblings whose fronts are dominated, among those that pack the
same items on the same plate and leave the same depths open to their
children, as a bucket of the DPA* store does.  The trials give each
insertion its order key (``CellTables``) and group (``InsertionList``),
so no later pass reads the insertions back.  This is still a
pseudo-dominance (a front at or left of
another need not reach every completion the other reaches), though it
loses no optimum on those 150 instances.  A child's chain counts, plate,
front and open depths all follow from its parent and its insertion, so
no child is built to decide which ones to keep.  ``children`` builds the
kept ones for callers that want nodes.

A chain state's cell contents are assembled by ``pair_combos`` from its
chain heads alone, with tables built once per instance (``cell_tables``):
each item's one-item cells and its stacks under its chain successor, and
for each width the chains that hold an item of that width.
They hold O(items) entries, and nothing is stored per state.

One per-instance cache remains: the child memo of
``child_insertions(..., memoize=True)``, keyed on every node field the
pipeline reads (``CHILD_MEMO_FIELDS``).  It serves searches that meet a
state again: MBA* restarts from the root with a larger fringe, and the
iterative beam with a wider beam.  Each pass first fits the memo to itself
(``fit_child_memo``): a pass at capacity D looks up about D states per item,
so the budget rises to hold that many at the mean charge of the entries
held, up to ``CHILD_MEMO_MAX_BYTES``; past it, the budget is back at its
floor, as a memo that holds less than a pass serves the next pass little.
Its table (``ByteBoundedCache``) charges each entry once, when it is put, a
size worked out from its lengths, and evicts the entries put first; a
lookup is the table's own ``dict.get``, and no order of use is kept.
"""

from __future__ import annotations

import itertools
from collections import deque
from enum import Enum
from operator import attrgetter, getitem, itemgetter
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
    while True:  # each pass clears the defects it hits, so it ends
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


def _hcuts_max(defects: tuple[Defect, ...], x0: int, levels: Iterable[int], x_max: int) -> int:
    """The largest x, up to ``x_max``, at which cuts from x0 to x at each of
    ``levels`` cross no defect: at most the left edge of each they cross."""
    for d in defects:
        if d.x < x_max and x0 < d.x + d.width:
            for y in levels:
                if d.y < y < d.y + d.height:
                    x_max = d.x
                    break
    return x_max


def _grow_max(node: Node, defects: tuple[Defect, ...], x1_max: int) -> int:
    """The largest final 1-cut x1 > x1_curr, up to ``x1_max``, that a move
    at depth 2 or 3 may give the column without a cut crossing a defect, or
    at most x1_curr if there is none.

    Growing the column widens the top cuts of its closed shelves to x1 and
    makes their edges at x1_curr real cuts."""
    x1_curr = node.x1_curr
    levels = []
    for rec in node.closed_shelves:
        if rec.edge_is_cut and rec.edge == x1_curr and not _vcut_ok(
                defects, x1_curr, rec.y0, rec.y1):
            return x1_curr
        levels.append(rec.y1)
    return _hcuts_max(defects, node.x1_prev, levels, x1_max)


def _shelf_cuts_max(
    defects: tuple[Defect, ...], x1_prev: int, x_end: Optional[int], y0: int, y1: int, x1_max: int
) -> int:
    """The largest final 1-cut x1, up to ``x1_max``, at which a closing
    shelf from y0 to y1 leaves its own cuts clear of the defects: the strip
    cut at ``x_end``, the right edge of its last cell, which an x1 past it
    makes (None when that cell is waste and absorbs the strip), and its top
    cut from x1_prev to x1."""
    if x_end is not None and x_end < x1_max and not _vcut_ok(defects, x_end, y0, y1):
        x1_max = x_end
    return _hcuts_max(defects, x1_prev, (y1,), x1_max)


def _shelf_closes(node: Node, x1: int, defects: tuple[Defect, ...]) -> bool:
    """Whether the current shelf may close with the column's final 1-cut
    at ``x1`` (at least x1_curr): its own cuts (``_shelf_cuts_max``) and,
    where x1 > x1_curr, the cuts that the column's growth widens
    (``_grow_max``)."""
    x_end = node.x3_curr if node.cell_min_item is not None else None
    return (x1 <= _shelf_cuts_max(defects, node.x1_prev, x_end, node.y2_prev, node.y2_curr, x1)
            and (x1 == node.x1_curr or x1 <= _grow_max(node, defects, x1)))


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
        # a column without items is a waste cell's, after which only depth
        # 1 is open (``depths_after``), so depth 0 closes a column of items
        lower = node.x1_curr
        if node.col_has_items:
            lower = max(lower, node.x1_prev + p.min1)
        x1 = _resolve_x1(node.x1_curr, lower, edges, p.min_waste)
        if node.col_has_items and x1 - node.x1_prev > p.max1 or x1 > W:
            return None
        if new_bin and 0 < W - x1 < p.min_waste:
            return None  # the plate's trailing gap would be a sliver
        # the shelf's top cut is the top strip's (an item shelf's top is
        # never a sliver below H); the closing 1-cut is the next column's
        # left edge, or the plate's last cut
        if defects and (not _shelf_closes(node, x1, defects)
                        or x1 < W and not _vcut_ok(defects, x1, 0, H)):
            return None
    if new_bin:
        plate, x, defects = node.bin + 1, 0, instance.plate_defects(node.bin + 1)
    else:
        plate, x = node.bin, x1
    return (plate, x1, x, x, [], defects, x, 0, H)


# ---------------------------------------------------------------------------
# enumeration

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
    their lengths once, when the entry is put.  ``get`` is the table's own
    ``dict.get``, and ``put`` adds a key that ``get`` missed, then evicts
    the entries put first until the total charged fits the budget.  Values
    are shared: callers must not change them, and None is not a value.  Two
    deques hold the keys and their charges in put order, so an eviction pops
    their fronts and costs O(1) however many entries the table holds."""

    __slots__ = ("budget", "charge", "charged", "_table", "_order", "_charges", "get")

    def __init__(self, budget: int, charge: Callable[[Hashable, object], int]) -> None:
        self.budget = budget
        self.charge = charge
        self.charged = 0  # bytes charged for the entries held
        self._table: dict = {}
        self._order: deque[Hashable] = deque()  # the keys, put first first
        self._charges: deque[int] = deque()  # the keys' charges, in the same order
        self.get = self._table.get

    def __len__(self) -> int:
        return len(self._table)

    def put(self, key: Hashable, value) -> None:
        table, order, charges = self._table, self._order, self._charges
        table[key] = value
        order.append(key)
        charge = self.charge(key, value)
        charges.append(charge)
        self.charged += charge
        while self.charged > self.budget:
            del table[order.popleft()]
            self.charged -= charges.popleft()


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

    A cell's contents are (j, chain of j, width, h_j, rot_j, order of j,
    k, chain of k, h_k, rot_k, order of k): item j at the bottom, item k on
    top of the 4-cut, or k and its fields None and its order 0 for a
    one-item cell.  A bottom half (its first six fields) and a top half
    (its last five) make a stack's.

    An insertion's order key sums its content's orders, its depth's key
    and its kind's value times ``kind_step``; ``depths[d]`` holds depth d's
    (key, waste cell's key and group, first group of one-item cells and of
    stacks).  Keys order a node's insertions by the first item's id,
    deepest first, kind, then each item's (id, rotated), waste cells last."""

    singles: tuple[tuple[tuple[tuple, ...], ...], ...]
    stacks: tuple[tuple[tuple, ...], ...]
    widths: dict[int, tuple[tuple[int, dict[int, tuple]], ...]]
    kind_step: int
    depths: tuple[tuple[int, int, int, int, int], ...]


def cell_tables(instance: Instance) -> CellTables:
    """The ``CellTables`` of ``instance``, built on first use."""
    tables = instance.__dict__.get("_cell_tables")
    if tables is not None:
        return tables
    oriented = instance.oriented
    # orders: j * item_step + rot_j * (2n + 1) at the bottom, 2k + rot_k + 1
    n = instance.n_items
    kind_step = 4 * n + 2
    depth_step = 8 * kind_step  # kinds are 1 to 5
    item_step = 4 * depth_step  # depths are 0 to 3
    held: dict[int, dict[int, dict[int, tuple]]] = {}
    for c, chain in enumerate(instance.chains):
        for r, k in enumerate(chain):
            for w, h, rot in oriented[k]:
                held.setdefault(w, {}).setdefault(c, {})[r] = (k, c, h, rot, 2 * k + rot + 1)
    widths = {w: tuple(by_chain.items()) for w, by_chain in held.items()}
    chain_singles, chain_stacks = [], []
    for c, chain in enumerate(instance.chains):
        chain_singles.append(tuple(
            tuple((j, c, w, h, rot, j * item_step + rot * (2 * n + 1), None, None, None, None, 0)
                  for w, h, rot in oriented[j])
            for j in chain) + ((),))
        row = []
        for r, j in enumerate(chain):
            successor = oriented[chain[r + 1]] if r + 1 < len(chain) else ()
            plans = []
            for w, h, rot in oriented[j]:
                bottom = (j, c, w, h, rot, j * item_step + rot * (2 * n + 1))
                under = tuple(bottom + (chain[r + 1], c, hk, rk, 2 * chain[r + 1] + rk + 1)
                              for wk, hk, rk in successor if wk == w)
                plans.append((bottom, widths[w] if len(widths[w]) > 1 else None, under))
            under_all = sum((under for _, _, under in plans), ())
            if any(entry is not None for _, entry, _ in plans):
                row.append((under_all, tuple(plans)))
            else:
                row.append((under_all, None) if under_all else ())
        chain_stacks.append(tuple(row) + ((),))
    # a plate's groups: per chain, per pair of chains at depth 3 and below
    # it, per depth's waste cell; depth 0's plate is the next one
    c = len(instance.chains)
    span = c * (2 * c + 1) + 4
    depths = tuple((
        (3 - d) * depth_step, n * item_step + (3 - d) * depth_step + 5 * kind_step,
        (d == 0) * span + span - 4 + d, (d == 0) * span, (d == 0) * span + c + (d < 3) * c * c,
    ) for d in range(4))
    tables = instance.__dict__["_cell_tables"] = CellTables(
        tuple(chain_singles), tuple(chain_stacks), widths, kind_step, depths)
    return tables


def pair_combos(node: Node, instance: Instance) -> list[tuple]:
    """The contents of every cell the chain state ``node.counts`` can
    place, in trial order: each chain head (the next item of a chain) alone,
    in each orientation, then the two-item stacks, whose bottom item is a
    head and whose top one is another head or the bottom item's chain
    successor, of equal widths.  Per head and orientation, the stacks on
    other heads come in chain order, then the one on the successor.

    The list is assembled from the chain heads alone, with the instance's
    ``cell_tables``; only a stack of two heads is a new tuple.
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


_DOMINATED = -1  # the group of an insertion dominated at its own depth


class InsertionList(list):
    """A node's insertions in order, and their sibling ``groups``: equal
    where they pack the same items on the same plate and leave the same
    depths open (``depths_after``); None where the symmetry rule forbids
    one, ``_DOMINATED`` where a sibling of its depth dominates it."""

    __slots__ = ("groups",)


_second, _third = itemgetter(1), itemgetter(2)


def enumerate_insertions(
    node: Node, instance: Instance, use_symmetry: bool = False
) -> InsertionList:
    """All feasible insertions at ``node``, pruning rules applied.

    One pass visits the allowed depths deepest first, and each depth may
    close the shallower ones: depth-2 insertions are only emitted while no
    depth-3 cell fits (past that, depth 2 is only probed); depths 2 and 1
    close once some cell fits without growing the column, and depth 0 once
    any item cell fits.  Raw feasibility, not the emitted set, drives these
    tests.  With ``use_symmetry`` the depth-3 cells that the cell-swap rule
    forbids are omitted (see ``_swap_forbidden``); they still count as
    feasible for the suppression tests, so the result is the unflagged list
    minus exactly those cells, in the same order; the shelf half only
    marks what it forbids (``InsertionList``).

    What the depths share is read once per node: the plate's defects, the
    edges of the closed shelves (see ``_frame``) and ``_shelf_swap_max``.
    """
    cells = pair_combos(node, instance)
    defects = instance.plate_defects(node.bin)
    closed = _closed_edges(node)
    p = instance.params
    shelf_max = _shelf_swap_max(node, defects, node.shelf_min_item, node.shelf_chain_ids,
                                p.plate_width) if use_symmetry and node.closed_shelves else -1
    entries: list[tuple] = []
    fits = no_growth = False
    for depth in () if node.complete else _allowed_depths(node):
        if depth in (1, 2) and no_growth:
            continue
        if depth == 0 and (fits or node.bin + 1 >= p.n_plates):
            continue
        frame = _frame(node, instance, depth, defects, closed)
        if frame is None:
            continue
        # the final 1-cuts at which a move of this depth closes the shelf
        # where the rule forbids it: depths 0 and 1 close it at frame[1]
        closing_max = shelf_max if depth == 2 else (
            p.plate_width if depth < 2 and 0 <= shelf_max and frame[1] <= shelf_max else -1)
        emit = depth != 2 or not fits
        placed, fits_d, no_growth_d = _gen_cells(
            node, instance, frame, cells, depth, use_symmetry, emit, closing_max)
        fits = fits or fits_d
        no_growth = no_growth or no_growth_d
        if emit:
            entries += placed
            if frame[5]:  # without defects there is no waste cell
                w_ins = _gen_waste(node, instance, frame, depth)
                if w_ins is not None:
                    _, key, group, _, _ = instance._cell_tables.depths[depth]
                    entries.append((key, None if w_ins.x1_curr <= closing_max else group, w_ins))
    if len(entries) > 1:
        entries.sort()  # by the trials' order keys, which are unique
    out = InsertionList(map(_third, entries))
    out.groups = list(map(_second, entries))
    return out


def _shelf_swap_max(node: Node, defects: tuple[Defect, ...], shelf_min: Optional[int],
                    shelf_chains: frozenset[int], x_max: int) -> int:
    """The largest final 1-cut x1, up to ``x_max``, at which closing the
    current shelf, holding ``shelf_min`` and ``shelf_chains``, is forbidden
    against the shelf below (``_swap_forbidden``), or -1: the two span
    x1_prev to x1 and are stacked, so both are defect-free up to the first
    defect in the band from the lower's floor to the upper's top."""
    below = node.closed_shelves[-1]
    if not _may_swap(below.min_item, below.chain_ids, shelf_min, shelf_chains):
        return -1
    for d in defects:
        if (d.x < x_max and node.x1_prev < d.x + d.width
                and d.y < node.y2_curr and below.y0 < d.y + d.height):
            x_max = d.x
    return x_max


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
    closing_max: int = -1,
) -> tuple[list[tuple], bool, bool]:
    """The (order key, sibling group, insertion) entries of the item cells
    placed in the ``frame`` of ``depth``, whether some cell fits and whether
    some cell fits without growing the column.

    ``cells`` are the contents the chain state can place (``pair_combos``),
    tried in order.  The depth decides a cell's shape (in the shelf, or
    opening one) and the extra cuts to check.  No insertion is built for a
    cell that is not emitted: every cell when ``emit`` is False, and at
    depth 3 under ``use_symmetry`` a cell the cell-swap rule forbids.  Such
    a cell is only tried until some cell is known to fit without growth,
    which settles both facts.  The group is None for a move that closes
    the shelf at a final 1-cut up to ``closing_max``, and for a completing
    one that ``symmetry_allows`` rejects under ``use_symmetry``; it is
    ``_DOMINATED`` for the wider orientation of an item that the narrower
    one dominates.

    A trial is one loop body: a shape step, for one item or for a stack,
    then one tail.  The tail resolves the cell's final x1 (``_resolve_x1``;
    a cell that ends left of x1_curr and does not complete shares one x1
    per frame, and without edges a cell that grows the column and does not
    complete takes its own right edge), compares it with the bounds the
    frame's cuts set (``x1_max``, at depth 2 also by the cuts of the shelf
    that closes, whose top is the new shelf's floor, and ``_grow_max`` past
    x1_curr), and checks the cuts that close the shelf and the column after
    a completing cell (``_shelf_cuts_max`` and the 1-cut).  The facts of the
    cell-swap rule (``_swap_forbidden``) about the left cell are read once
    per frame, and each trial tests only its own cell against them."""
    plate, prev_col_x1, x1_prev, x1_curr, edges, defects, x, y_lo, y_cap = frame
    p = instance.params
    mw, W, H, min2 = p.min_waste, p.plate_width, p.plate_height, p.min2
    x1_max = min(x1_prev + p.max1, W)
    if depth == 2 and defects:  # the cuts of the shelf that closes, whose top is the floor
        x_last = node.x3_curr if node.cell_min_item is not None else None
        x1_max = _shelf_cuts_max(defects, x1_prev, x_last, node.y2_prev, y_lo, x1_max)
    items_left = len(instance.items) - node.n_packed
    new = tuple.__new__  # builds a NamedTuple without its Python-level __new__
    # the final x1 of every cell that ends left of x1_curr and does not
    # complete, and the largest x1 > x1_curr whose cuts clear the defects:
    # each is worked out on the first trial that needs it
    x1_kept = None if edges else x1_curr
    grow_max = None if defects and depth >= 2 else x1_max
    tables = instance._cell_tables  # built by pair_combos, which gave the cells
    kind_step = tables.kind_step
    depth_key, _, _, one_group, two_group = tables.depths[depth]
    # the cell-swap rule forbids nothing unless the left cell holds an item
    # and is defect-free; a cell is then forbidden when it holds a smaller
    # item id, shares no chain with the left cell and is defect-free.  A
    # cell lower than the shelf is forbidden only where the left cell is not
    # the shelf's first: a first cell set the shelf's top, and a lower cell
    # opening the shelf in its place sets a lower top, under which the first
    # cell no longer fits, so the swapped pair is out of the scheme's reach
    swap_min = None
    if use_symmetry and depth == 3 and node.cell_min_item is not None and (
            not defects or _rect_clear(defects, node.x3_prev, y_lo, x, y_cap)):
        swap_min, left_chains = node.cell_min_item, node.cell_chain_ids
        swap_lower = node.x3_prev != x1_prev
    out: list[tuple] = []
    fits = no_growth = False
    one_j = one_w = one_top = one_at = None  # the last one-item cell kept so far

    for j, cj, w, h, rot, order_j, k, ck, hk, rk, order_k in cells:
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
                kind is _ONE_ITEM or swap_lower) and (
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
                grow_max = _grow_max(node, defects, x1_max)
            if x1 > grow_max:
                continue
        elif x1_curr > x1_max:
            continue
        if completing and defects and (  # the cell's shelf and the column close
                x1 > _shelf_cuts_max(defects, x1_prev, x_end, y_lo, y_hi, x1)
                or x1 < W and not _vcut_ok(defects, x1, 0, H)):
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
            group = one_group + cj
        else:
            pls = (new(Placement, (j, cj, x, y_lo, w, h, rot)),
                   new(Placement, (k, ck, x, split_y, w, hk, rk)))
            group = two_group + min(cj, ck) * len(instance.chains) + max(cj, ck)
        ins = new(Insertion, (kind, depth, completing, pls, plate, x1_prev, x1, y_lo, y_hi,
                              x, x_end, x1 if completing and depth >= 2 else prev_col_x1))
        if completing:
            if use_symmetry and not symmetry_allows(node, ins, instance):
                group = None
        elif x1 <= closing_max:
            group = None
        elif k is None:
            # of an item's two orientations the narrower has the smaller or
            # equal final x1, so it dominates the wider unless its top is higher
            if j == one_j and w > one_w and y_hi >= one_top:
                group = _DOMINATED
            elif j == one_j and w < one_w and one_top >= y_hi:
                out[one_at] = (out[one_at][0], _DOMINATED, out[one_at][2])
            one_j, one_w, one_top, one_at = j, w, y_hi, len(out)
        out.append((order_j + order_k + depth_key + kind._value_ * kind_step, group, ins))
    return out, fits, no_growth


def _gen_waste(node: Node, instance: Instance, frame: tuple, depth: int) -> Optional[Insertion]:
    """A waste cell in the ``frame`` of ``depth`` covering the nearest
    blocking defect, if there is one: at depth 2 a band above the shelves,
    else a strip right of the frame's left edge."""
    plate, prev_col_x1, x1_prev, x1_curr, edges, defects, x, y_lo, y_cap = frame
    near = []  # the defects in the waste cell's way
    if depth == 2:  # a band covers those above the shelves
        for d in defects:
            if d.y + d.height > y_lo and d.x < x1_curr and x1_prev < d.x + d.width:
                near.append(d)
    else:  # a strip covers those right of x, between the frame's floor and top
        for d in defects:
            if d.x + d.width > x and d.y < y_cap and y_lo < d.y + d.height:
                near.append(d)
    if not near:
        return None
    p = instance.params
    mw = p.min_waste
    # a column reached at depth 2 or 3 holds items, so max1 bounds it
    x1_max = min(x1_prev + p.max1, p.plate_width) if depth >= 2 else p.plate_width
    if depth == 2:
        first = min(near, key=lambda d: (d.y, d.x))
        y_end = _extend_past(y_lo, max(y_lo + mw, first.y + first.height), near, vertical=False)
        # after a band only depth 2 is open, and a shelf of items is at
        # least min2 high: a band that ends above H - min2 is a dead end
        if y_end > p.plate_height - p.min2:
            return None
        x1 = _resolve_x1(x1_curr, x1_curr, edges, mw)
        if (x1 > x1_max or not _shelf_closes(node, x1, defects)
                or not _hcut_ok(defects, y_end, x1_prev, x1)):
            return None
        return tuple.__new__(Insertion, (
            _WASTE_ONLY, 2, False, (), plate, x1_prev, x1, y_lo, y_end, x1_prev, x1, None,
        ))
    first = min(near, key=lambda d: (d.x, d.y))
    x_end = _extend_past(x, max(x + mw, first.x + first.width), near, vertical=True)
    x1 = _resolve_x1(x1_curr, x_end, edges, mw)
    if x1 > x1_max or not _vcut_ok(defects, x_end, y_lo, y_cap):
        return None
    if depth == 3 and x1 > x1_curr and x1 > _grow_max(node, defects, x1):
        return None  # a cut that the column's growth widens crosses a defect
    return tuple.__new__(Insertion, (
        _WASTE_ONLY, depth, False, (), plate, x1_prev, x1, y_lo, y_cap, x, x_end, prev_col_x1,
    ))


def _extend_past(start: int, end: int, defects: list[Defect], vertical: bool) -> int:
    """Grow a waste cover until its far cut stops crossing defects."""
    while True:  # each pass clears the defects it crosses, so it ends
        if vertical:
            bad = [d.x + d.width for d in defects if d.x < end < d.x + d.width]
        else:
            bad = [d.y + d.height for d in defects if d.y < end < d.y + d.height]
        if not bad:
            return end
        end = max(bad)


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
    """False where ``ins`` closes a shelf that ``_swap_forbidden`` forbids
    against its sibling: the shelf's half of the symmetry rule.

    A shelf is tested against the shelf below it when it *closes*, because
    items joining it later can create the chain link that makes the swap
    illegal: on a move below depth 3, or on one that completes the
    solution, whose cell then joins the shelf.  A new shelf that completes
    the solution also closes at once, against the shelf it closes.  The
    cell trials apply both halves (``_gen_cells``), and call this on the
    completing moves only."""
    defects = instance.plate_defects(node.bin)
    q_min, q_chains = node.shelf_min_item, node.shelf_chain_ids  # the shelf that closes
    if ins.depth == 3:
        if not ins.completes:
            return True
        new_min, new_chains = _cell_items(ins, instance)
        q_min, q_chains = _min_opt(q_min, new_min), q_chains | new_chains
    x1 = ins.x1_curr if ins.depth >= 2 else (ins.prev_col_x1 or node.x1_curr)
    if node.closed_shelves and x1 <= _shelf_swap_max(
            node, defects, q_min, q_chains, instance.params.plate_width):
        return False
    if ins.depth == 2 and ins.completes:
        new_min, new_chains = _cell_items(ins, instance)
        x1_prev, y2_prev, y2_curr = node.x1_prev, node.y2_prev, node.y2_curr
        return not _swap_forbidden(
            defects, node.shelf_min_item, node.shelf_chain_ids, (x1_prev, y2_prev, x1, y2_curr),
            new_min, new_chains, (x1_prev, ins.y2_prev, x1, ins.y2_curr))
    return True


def filter_dominated_children(insertions: list[Insertion], groups: list) -> list[Insertion]:
    """Among sibling insertions of equal ``groups`` (``InsertionList``),
    drop each one that a sibling dominates: its child's front is at or
    right of the sibling's, and strictly so or the sibling was generated
    earlier (so the earliest of equal fronts is kept), and each one whose
    group is ``_DOMINATED``.  This is the scope of a bucket of the DPA*
    store, and no child is built to decide it.  The input itself is
    returned when nothing is dropped.

    A group is admitted in generation order into a list of undominated
    fronts (``admit_front``), each labelled with its sibling's position in
    place of the plate: a sibling that an earlier one is at most is
    rejected, and one that a later one strictly dominates is evicted, so
    the list ends with the kept siblings."""
    if _DOMINATED in groups:
        insertions = [ins for ins, group in zip(insertions, groups) if group != _DOMINATED]
        groups = [group for group in groups if group != _DOMINATED]
    if len(set(groups)) == len(groups):
        return insertions
    members: dict = {}
    for i, group in enumerate(groups):
        members.setdefault(group, []).append(i)
    dropped: set[int] = set()
    for group in members.values():
        if len(group) < 2:
            continue
        kept: list[tuple] = []
        for i in group:
            ins = insertions[i]
            admit_front(kept, (i, ins.x1_prev, ins.x1_curr, ins.x3_curr, ins.y2_prev, ins.y2_curr))
        if len(kept) < len(group):
            dropped.update(group)
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
# charge 1.04-1.18 times (median 1.11-1.13 per run) the sizes of 192
# entries, 64 from each node_cap=16 run of tests/test_search.py::
# TestCacheBudgets (``_traced_size``; 0.99-1.14 with 15 fields), also now
# that the sibling filter keeps the siblings that leave other depths open.
# They count neither the table's own slots and put order (about 80 B an
# entry) nor a key's shelf records and chain-id sets, which its node shares
# with its relatives: dropping a full memo after such a run freed 0.93-1.16
# times its charged total (most on 8 chains).  Entries averaged 1.45 KB on the
# benchmark's 8-chain instances, 4.7 KB on 30 chains and 10.6 KB on 60.
CHAIN_BYTES = 8
MEMO_ENTRY_BYTES = 320
MEMO_INSERTION_BYTES = 272
MEMO_PLACEMENT_BYTES = 128
# The budget's floor: 1.5 MB holds 825-1,381 states (median 1,150) of the
# benchmark's mba_many_chains, whose restarts then hit the memo on 25-28% of
# lookups (15-16% at 384 states).
CHILD_MEMO_BYTES = 1_500_000
# The largest pass the budget holds.  Passes of (300, 40) instances meet few
# states again: held at 3, 8 or 24 MB there, the memo cost up to 4%, 6-13%
# or 9-16% of the expansion rate (two instances, 30 s each); set back to the
# floor past 24 MB, it read -14% to +7% against a fixed floor in 14 pairs,
# median +1%.  The passes of 1.5 s restarts on 30 items take up to about
# 20 MB; 48 MB ran no faster there.
CHILD_MEMO_MAX_BYTES = 24_000_000


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
    that ``child_insertions`` put last, within a budget that starts at
    ``CHILD_MEMO_BYTES`` and that ``fit_child_memo`` fits to each pass; the
    states put first are evicted first, however often they were read.  It is made on
    first use, and each portfolio worker process fills its own copy."""
    memo = instance.__dict__.get("_child_memo")
    if memo is None:
        memo = instance.__dict__["_child_memo"] = ByteBoundedCache(
            CHILD_MEMO_BYTES, child_memo_charge)
    return memo


def fit_child_memo(instance: Instance, capacity: int) -> None:
    """Fit the child memo's budget to one pass of a search that keeps
    ``capacity`` open nodes (MBA*) or a beam that wide (IBS): about
    ``capacity`` states per item, each charged the mean charge of the
    entries held.  A pass within ``CHILD_MEMO_MAX_BYTES`` raises the budget
    to hold it and never lowers it; a larger pass sets it back to
    ``CHILD_MEMO_BYTES``, as a memo that evicts in put order and holds less
    than a pass evicts each state before the next pass meets it again.  An
    empty memo keeps its budget."""
    memo = child_memo(instance)
    if memo:
        one_pass = capacity * len(instance.items) * memo.charged // len(memo)
        memo.budget = (max(memo.budget, one_pass) if one_pass <= CHILD_MEMO_MAX_BYTES
                       else CHILD_MEMO_BYTES)


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
    enumerate, symmetry-filter, dominance-filter, in that order.  The cell
    trials decide both rules' facts (``enumerate_insertions``), so the two
    filters only scan their groups: None where the symmetry rule forbids an
    insertion, and the sibling groups of ``filter_dominated_children``.

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
    groups = ins_list.groups
    if None in groups:  # the insertions that the symmetry rule forbids
        ins_list = [ins for ins, group in zip(ins_list, groups) if group is not None]
        groups = [group for group in groups if group is not None]
    if use_dominance:
        ins_list = filter_dominated_children(ins_list, groups)
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
