"""Shared helpers: instance builders, random generators and slow oracles."""

from __future__ import annotations

import contextlib
import multiprocessing
import random
from typing import NamedTuple, Optional

import pytest

from glasscut import search
from glasscut.branching import (
    _ITEM_WASTE_ABOVE, _ITEM_WASTE_BELOW, _ONE_ITEM, _TWO_ITEMS, Insertion, InsertionKind,
    Placement, _allowed_depths, _cell_opening_shelf, _close_shelf_cut_ok, _closed_edges,
    _closing_cuts_ok, _frame, _gen_cells, _gen_waste, _growth_cuts_ok, _hcut_ok,
    _insertion_sort_key, _rect_clear, _resolve_x1, _swap_forbidden, _vcut_ok, apply_insertion,
    children, insertion_front, pair_combos,
)
from glasscut.model import (
    Defect, Instance, Item, Node, Params, SolutionError, admit_front, root_node,
)
from glasscut.solution import TYPE_BRANCH, TYPE_RESIDUAL, TYPE_WASTE, SolutionTree, TreeNode

SMALL_PARAMS = Params(
    plate_width=1000,
    plate_height=600,
    n_plates=3,
    min1=50,
    max1=1000,
    min2=30,
    min_waste=10,
)


def make_instance(item_dims, chains=None, defects=None, params=None) -> Instance:
    """Instance from (width, height) pairs; default one chain per item.
    Each item gets the index of its chain in ``chains`` as its chain id and
    its position there as its rank, from which ``Instance`` derives the
    same chains."""
    params = params or SMALL_PARAMS
    if chains is None:
        chains = [[i] for i in range(len(item_dims))]
    items = []
    for ci, chain in enumerate(chains):
        for pos, iid in enumerate(chain):
            w, h = item_dims[iid]
            items.append(Item(iid, w, h, ci, pos))
    defect_map = {}
    for d in defects or []:
        defect_map.setdefault(d.plate_index, []).append(d)
    return Instance(
        params=params,
        items=items,
        defects={k: tuple(v) for k, v in defect_map.items()},
    )


def random_small_instance(rng: random.Random, max_items: int = 6) -> Instance:
    """Synthetic instance in the oracle-testable range: small plate, at most
    two chains, a couple of defects."""
    W, H = SMALL_PARAMS.plate_width, SMALL_PARAMS.plate_height
    n = rng.randint(2, max_items)
    n_chains = rng.randint(1, 2)
    dims = [(rng.randint(60, 500), rng.randint(40, 400)) for _ in range(n)]
    chains = [[] for _ in range(n_chains)]
    for i in range(n):
        chains[rng.randrange(n_chains)].append(i)
    chains = [c for c in chains if c]
    defects = []
    for _ in range(rng.randint(0, 2)):
        plate = rng.randint(0, 1)
        dw, dh = rng.randint(5, 60), rng.randint(5, 60)
        x, y = rng.randint(0, W - dw), rng.randint(0, H - dh)
        cand = Defect(plate, x, y, dw, dh)
        if all(
            d.plate_index != plate
            or not cand.intersects(d.x, d.y, d.x + d.width, d.y + d.height)
            for d in defects
        ):
            defects.append(cand)
    return make_instance(dims, chains, defects)


def midsize_instance(n_items, n_chains, seed, low=150, defects=None) -> Instance:
    """Random instance on the default (challenge-sized) plates, items from
    ``low`` to 1800 x 1400 spread over ``n_chains`` chains."""
    rng = random.Random(seed)
    dims = [(rng.randint(low, 1800), rng.randint(low, 1400)) for _ in range(n_items)]
    chains = [[] for _ in range(n_chains)]
    for i in range(n_items):
        chains[rng.randrange(n_chains)].append(i)
    return make_instance(dims, [c for c in chains if c], defects, params=Params())


def dfs_best_leaf(
    instance: Instance, use_symmetry: bool = False, use_dominance: bool = False
) -> Node | None:
    """Exhaustive depth-first sweep of the insertion scheme."""
    best: list[Node | None] = [None]

    def rec(node: Node) -> None:
        if node.complete:
            if best[0] is None or node.waste < best[0].waste:
                best[0] = node
            return
        for child in children(node, instance, use_symmetry, use_dominance):
            rec(child)

    rec(root_node(instance))
    return best[0]


def dfs_min_waste(instance: Instance, **kw) -> int | None:
    leaf = dfs_best_leaf(instance, **kw)
    return None if leaf is None else leaf.waste


def unsuppressed_insertions(node: Node, instance: Instance) -> list[Insertion]:
    """The insertions of ``node`` with the generator's three structural
    tests off: A (a new plate opens only when no item cell fits in the
    current one), B (depths 2 and 1 close once some cell fits without
    growing the column) and C (no depth-2 cell once a depth-3 cell fits).
    Every allowed depth gives its frame's item cells and waste cell; depth
    0 is limited only by the plate count.  Sorted as
    ``enumerate_insertions`` sorts, with no pruning rule applied."""
    if node.complete:
        return []
    cells = pair_combos(node, instance)
    defects = instance.plate_defects(node.bin)
    closed = _closed_edges(node)
    out: list[Insertion] = []
    for depth in _allowed_depths(node):
        if depth == 0 and node.bin + 1 >= instance.params.n_plates:
            continue
        frame = _frame(node, instance, depth, defects, closed)
        if frame is None:
            continue
        out += _gen_cells(node, instance, frame, cells, depth, emit=True)[0]
        waste = _gen_waste(node, instance, frame, depth)
        if waste is not None:
            out.append(waste)
    return sorted(out, key=_insertion_sort_key)


def unsuppressed_min_waste(instance: Instance) -> int | None:
    """Exhaustive depth-first sweep over ``unsuppressed_insertions``: the
    least waste of the scheme without its structural tests."""
    best: list[int | None] = [None]

    def rec(node: Node) -> None:
        if node.complete:
            if best[0] is None or node.waste < best[0]:
                best[0] = node.waste
            return
        for ins in unsuppressed_insertions(node, instance):
            rec(apply_insertion(node, ins, instance))

    rec(root_node(instance))
    return best[0]


def random_walk(rng: random.Random, instance: Instance, **child_kw) -> list[Node]:
    """One root-to-stuck/complete path choosing children uniformly."""
    path = [root_node(instance)]
    while not path[-1].complete:
        kids = children(path[-1], instance, **child_kw)
        if not kids:
            break
        path.append(rng.choice(kids))
    return path


def greedy_trace(instance: Instance, guide) -> tuple[list[Node], int | None]:
    """Reference greedy mirroring capacity-1 MBA*: complete children feed the
    incumbent instead of the fringe, later siblings prune against it, and the
    walk ends when the chosen node no longer beats the incumbent."""
    from glasscut.search import guide_scale, guide_value

    scale = guide_scale(instance.params)
    trace: list[Node] = []
    best: int | None = None
    node = root_node(instance)
    while not node.complete:
        trace.append(node)
        cands = []
        for i, kid in enumerate(children(node, instance)):
            if kid.complete:
                if best is None or kid.waste < best:
                    best = kid.waste
                continue
            if best is not None and kid.waste >= best:
                continue
            key = guide_value(kid.waste, kid.waste + kid.item_area, kid.item_area, kid.n_packed,
                              guide, scale)
            cands.append((key, -kid.n_packed, i, kid))
        if not cands:
            break
        node = min(cands)[3]
        if best is not None and node.waste >= best:
            break
    return trace, best


@contextlib.contextmanager
def expansion_trace():
    """The nodes the searches run inside the block expand, in order: every
    search calls ``glasscut.search.children`` once per node it expands."""
    trace: list[Node] = []
    original = search.children

    def traced(node, *args, **kwargs):
        trace.append(node)
        return original(node, *args, **kwargs)

    search.children = traced
    try:
        yield trace
    finally:
        search.children = original


def raster_front_area(node: Node, params: Params) -> int:
    """Area oracle: the full plates before the node's, plus its front's
    step function summed row by row (1 mm rows)."""
    if node.bin < 0:
        return 0
    plate_height = params.plate_height
    total = node.bin * params.plate_width * plate_height
    if node.complete:
        return total + node.x1_curr * plate_height
    for y in range(plate_height):
        if y < node.y2_prev:
            total += node.x1_curr
        elif y < node.y2_curr:
            total += node.x3_curr
        else:
            total += node.x1_prev
    return total


def front_x_at(key: tuple, y: int) -> int:
    """The step function of a (bin, x1_prev, x1_curr, x3_curr, y2_prev,
    y2_curr) front key at height y."""
    _, x1_prev, x1_curr, x3_curr, y2_prev, y2_curr = key
    if y < y2_prev:
        return x1_curr
    if y < y2_curr:
        return x3_curr
    return x1_prev


def front_leq_grid(a: tuple, b: tuple, plate_height: int) -> bool:
    """Front order oracle: compare the step functions on every 1 mm row."""
    return all(front_x_at(a, y) <= front_x_at(b, y) for y in range(plate_height + 1))


def front_profile(front: tuple) -> tuple:
    """The entry that ``admit_front`` records for ``front``: the front
    followed by its step function's values at its own levels 0, y2_prev
    and y2_curr."""
    entries: list = []
    assert admit_front(entries, front) == 0
    return entries[0]


def front_order_bits(a: tuple, b: tuple) -> int:
    """Both directions of the front order on two (bin, x1_prev, x1_curr,
    x3_curr, y2_prev, y2_curr) fronts, through ``admit_front``: bit 1 is
    set when a <= b, bit 2 when b <= a.

    The list holding a alone rejects b exactly when a <= b, and is then
    left as it was; otherwise b evicts a exactly when b <= a.  So both
    outcomes of the scan are read, and the second direction is asked anew
    only after a rejection."""
    pa, pb = front_profile(a), front_profile(b)
    entries = [pa]
    evicted = admit_front(entries, b)
    if evicted < 0:
        assert entries == [pa]
        return 1 | (admit_front([pb], a) < 0) << 1
    assert evicted in (0, 1) and entries == ([pb] if evicted else [pa, pb])
    return evicted << 1


def front_leq(a: tuple, b: tuple) -> bool:
    """a <= b for two (bin, x1_prev, x1_curr, x3_curr, y2_prev, y2_curr)
    fronts, through ``admit_front``."""
    return admit_front([front_profile(a)], b) < 0


def reference_front_leq(a: tuple, b: tuple) -> bool:
    """The front order as a five-level loop, the form it had before it
    became a scan (``admit_front``): evaluate both step functions at 0 and at the y2 levels
    of both fronts."""
    _, a1p, a1c, a3c, a2p, a2c = a
    _, b1p, b1c, b3c, b2p, b2c = b
    for y in (0, a2p, a2c, b2p, b2c):
        if (a1c if y < a2p else (a3c if y < a2c else a1p)) > (
            b1c if y < b2p else (b3c if y < b2c else b1p)
        ):
            return False
    return True


class ReferenceDominanceStore:
    """``search.DominanceStore`` as two scans over the bucket: one for a
    recorded front that dominates the newcomer, then one that drops the
    fronts the newcomer dominates; fronts are kept as given."""

    def __init__(self) -> None:
        self.by_state: dict[tuple, list[tuple]] = {}
        self.size = 0

    def admit(self, counts: tuple, depths: tuple, front: tuple) -> bool:
        bucket = (counts, depths, front[0])
        entries = self.by_state.get(bucket)
        if entries is None:
            self.by_state[bucket] = [front]
            self.size += 1
            return True
        for e in entries:
            if reference_front_leq(e, front):
                return False
        kept = [e for e in entries if not reference_front_leq(front, e)]
        self.size -= len(entries) - len(kept)
        kept.append(front)
        self.size += 1
        self.by_state[bucket] = kept
        return True


def reference_push_then_trim(fringe: search.Fringe, capacity: int, batch: list) -> bool:
    """MBA*'s capped fringe step before ``Fringe.push_within``: push every
    (key, child) of an expansion's batch, then pop the worst open entries
    beyond ``capacity``.  True when one was popped."""
    for key, child in batch:
        fringe.push(key, child)
    discarded = False
    while len(fringe) > capacity:
        fringe.pop_worst()
        discarded = True
    return discarded


def reference_filter_dominated_children(insertions: list) -> list:
    """``branching.filter_dominated_children`` with every ordered pair of
    siblings compared: a sibling is dropped when another one of its group
    (plate and sorted chains advanced) is at most it, and is strictly
    smaller or earlier."""
    groups: dict[tuple, list[tuple[int, tuple]]] = {}
    for i, ins in enumerate(insertions):
        key = (ins.bin, *sorted([pl.chain_idx for pl in ins.placements]))
        groups.setdefault(key, []).append((i, insertion_front(ins)))
    dropped: set[int] = set()
    for members in groups.values():
        for i, fi in members:
            for j, fj in members:
                if j != i and reference_front_leq(fj, fi) and (
                        j < i or not reference_front_leq(fi, fj)):
                    dropped.add(i)
                    break
    return [ins for i, ins in enumerate(insertions) if i not in dropped]


def reference_edge_constraints(node: Node, closing_shelf: bool) -> list[int]:
    """Cut edges the final x1 may not approach closer than min_waste.

    Closed shelves that ended with an item cell keep their content edge as a
    constraint (a zero-width strip is fine, a sliver is not), and the current
    shelf contributes its edge when it is being closed.  A cell that packs
    the last item adds its own right edge.

    ``branching._edge_constraints`` as it was while every depth's frame
    built its own edge list.
    """
    edges = [r.edge for r in node.closed_shelves if r.edge_is_cut]
    if closing_shelf and node.cell_min_item is not None:
        edges.append(node.x3_curr)
    return edges


def reference_frame(node: Node, instance: Instance, depth: int) -> Optional[tuple]:
    """Where every cell placed at ``depth`` goes, or None if the move is
    illegal: (plate, prev_col_x1, x1_prev, x1_curr, the edges the final
    1-cut must clear, the plate's defects, the cell's left edge x, its floor
    y_lo and the top y_cap it may not pass).

    At depth 3 the cell extends the current shelf, under its fixed top; at
    depth 2 it opens a shelf above it.  Depths 1 and 0 close the current
    column (depth 0 its plate too) and open a column at the closing 1-cut,
    or at the left edge of the next plate.

    ``branching._frame`` as it was while it read the defects and built the
    edges anew for every depth."""
    defects = instance.plate_defects(node.bin)
    if depth == 3:
        x, y_lo, y_cap = node.x3_curr, node.y2_prev, node.y2_curr
        if defects and not _vcut_ok(defects, x, y_lo, y_cap):
            return None  # the boundary with the current cell is a real 3-cut
        return (node.bin, None, node.x1_prev, node.x1_curr,
                reference_edge_constraints(node, closing_shelf=False), defects, x, y_lo, y_cap)
    p = instance.params
    W, H = p.plate_width, p.plate_height
    if depth == 2:
        return (node.bin, None, node.x1_prev, node.x1_curr,
                reference_edge_constraints(node, closing_shelf=True), defects,
                node.x1_prev, node.y2_curr, H)
    new_bin = depth == 0
    x1 = None  # the final 1-cut of the closed column; none before the first plate
    if node.bin >= 0:
        lower = node.x1_curr
        if node.col_has_items:
            lower = max(lower, node.x1_prev + p.min1)
        edges = reference_edge_constraints(node, closing_shelf=True)
        x1 = _resolve_x1(node.x1_curr, lower, edges, p.min_waste)
        if node.col_has_items and x1 - node.x1_prev > p.max1:
            return None
        if x1 > W:
            return None
        if not (_growth_cuts_ok(node, x1, defects) and _close_shelf_cut_ok(node, x1, defects)):
            return None
        # top strip of the column: absent, or at least min_waste tall (a
        # trailing all-waste shelf merges with it and has no such limit)
        if node.shelf_min_item is not None:
            gap = H - node.y2_curr
            if 0 < gap < p.min_waste:
                return None
            if gap > 0 and defects and not _hcut_ok(defects, node.y2_curr, node.x1_prev, x1):
                return None
        if new_bin and node.col_has_items and 0 < W - x1 < p.min_waste:
            return None  # the plate's trailing gap would be a sliver
        # the closing 1-cut is the next column's left edge, or the plate's last
        # cut (none when an all-waste column merges with the trailing gap)
        if defects and (not new_bin or node.col_has_items and x1 < W):
            if not _vcut_ok(defects, x1, 0, H):
                return None
    plate, x = (node.bin + 1, 0) if new_bin else (node.bin, x1)
    return (plate, x1, x, x, [], instance.plate_defects(plate), x, 0, H)


def reference_enumerate_insertions(
    node: Node, instance: Instance, use_symmetry: bool = False
) -> list[Insertion]:
    """``branching.enumerate_insertions`` as it was while every depth built
    its frame from the node alone (``reference_frame``), every emitting
    depth called ``_gen_waste`` and every list was sorted."""
    if node.complete:
        return []
    cells = pair_combos(node, instance)
    out: list[Insertion] = []
    fits = no_growth = False
    for depth in _allowed_depths(node):
        if depth in (1, 2) and no_growth:
            continue
        if depth == 0 and (fits or node.bin + 1 >= instance.params.n_plates):
            continue
        frame = reference_frame(node, instance, depth)
        if frame is None:
            continue
        emit = depth != 2 or not fits
        placed, fits_d, no_growth_d = _gen_cells(
            node, instance, frame, cells, depth, use_symmetry, emit)
        fits = fits or fits_d
        no_growth = no_growth or no_growth_d
        if emit:
            out += placed
            w_ins = _gen_waste(node, instance, frame, depth)
            if w_ins is not None:
                out.append(w_ins)
    out.sort(key=_insertion_sort_key)
    return out


def reference_growth_cuts_ok(node: Node, final_x1: int, defects: tuple[Defect, ...]) -> bool:
    """Re-check cuts that widen or materialize when x1 grows:
    ``branching._growth_cuts_ok`` as a loop over the closed shelves, before
    ``_grow_max`` gave the widest growth at once."""
    if final_x1 == node.x1_curr or not defects:
        return True
    for rec in node.closed_shelves:
        if not _hcut_ok(defects, rec.y1, node.x1_prev, final_x1):
            return False
        if rec.edge_is_cut and rec.edge == node.x1_curr:
            if not _vcut_ok(defects, rec.edge, rec.y0, rec.y1):
                return False
    return True


def reference_cell_in_shelf(
    defects: tuple[Defect, ...], x: int, y_lo: int, y_hi: int, w: int, h: int, mw: int
) -> Optional[tuple[InsertionKind, int, int]]:
    """(kind, item y, cell top) of an item cell between the fixed cuts y_lo
    and y_hi of the current shelf, or None: ``_cell_in_shelf`` as it was
    before the generator took its shape inline."""
    if h == y_hi - y_lo:
        kind, y_item = _ONE_ITEM, y_lo
    elif h > y_hi - y_lo - mw:
        return None  # too tall, or the 4-cut waste would be a sliver
    else:
        kind, y_item = _ITEM_WASTE_ABOVE, y_lo
    if defects and not _rect_clear(defects, x, y_item, x + w, y_item + h):
        if kind is _ONE_ITEM or not _rect_clear(defects, x, y_hi - h, x + w, y_hi):
            return None
        kind, y_item = _ITEM_WASTE_BELOW, y_hi - h
    return kind, y_item, y_hi


class PairCombo(NamedTuple):
    """A width-matched two-item stack: j at the bottom, k on top."""

    j: int
    k: int
    width: int
    hj: int
    rj: bool
    hk: int
    rk: bool


def reference_pair_combos(
    node: Node, instance: Instance, cands: list[int]
) -> list[PairCombo]:
    """The two-item cell contents, for ``reference_gen_cells``:
    ``branching._pair_combos_uncached`` as it was before the candidates'
    one-item cells and the stacks became one list of cell contents."""
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


def reference_cell_swap_forbidden(node: Node, defects, new_min, new_chains, x_end) -> bool:
    """The cell-swap rule for a cell ending at ``x_end`` right of the
    current cell, holding ``new_min`` and ``new_chains``: ``_swap_forbidden``
    for the current cell and it."""
    y0, y1 = node.y2_prev, node.y2_curr
    return _swap_forbidden(
        defects, node.cell_min_item, node.cell_chain_ids, (node.x3_prev, y0, node.x3_curr, y1),
        new_min, new_chains, (node.x3_curr, y0, x_end, y1))


def reference_gen_cells(
    node: Node,
    instance: Instance,
    frame: tuple,
    cands: list[int],
    combos: list[PairCombo],
    depth: int,
    use_symmetry: bool = False,
    emit: bool = True,
) -> tuple[list[Insertion], bool, bool]:
    """Item cells placed in the ``frame`` of ``depth``, whether some cell
    fits and whether some cell fits without growing the column.

    The depth decides a cell's shape (in the shelf, or opening one) and the
    extra cuts to check.  No insertion is built for a cell that is not
    emitted: every cell when ``emit`` is False, and at depth 3 under
    ``use_symmetry`` a cell the cell-swap rule forbids.  Such a cell is
    only tried until some cell is known to fit without growth, which settles
    both facts.

    ``branching._gen_cells`` as it was before its trials became straight-line
    code: one closure per call tries each cell, calling the helpers anew."""
    plate, prev_col_x1, x1_prev, x1_curr, edges, defects, x, y_lo, y_cap = frame
    p = instance.params
    mw, W, H = p.min_waste, p.plate_width, p.plate_height
    x1_max = min(x1_prev + p.max1, W)
    swap_rule = use_symmetry and depth == 3
    items_left = instance.n_items - node.n_packed
    chain_index, chain_sets = instance.chain_index, instance.chain_sets
    out: list[Insertion] = []
    fits = no_growth = False

    def try_cell(x_end, y_hi, completing, skip):
        """The final x1 of a cell to emit, or None; records the two facts."""
        nonlocal fits, no_growth
        if skip and no_growth:
            return None
        if completing:
            x1 = _resolve_x1(x1_curr, max(x_end, x1_prev + p.min1), edges + [x_end], mw)
        else:
            x1 = _resolve_x1(x1_curr, x_end, edges, mw)
        if x1 > x1_max:
            return None
        if defects:
            # the column grows; at depth 2 the shelf below also closes at the new 2-cut
            if depth >= 2 and not reference_growth_cuts_ok(node, x1, defects):
                return None
            if depth == 2 and not (
                _close_shelf_cut_ok(node, x1, defects) and _hcut_ok(defects, y_lo, x1_prev, x1)
            ):
                return None
            if completing and not _closing_cuts_ok(defects, p, x_end, x1, x1_prev, y_lo, y_hi):
                return None
        fits = True
        if x1 == x1_curr:
            no_growth = True
        return None if skip else x1

    completing = items_left == 1
    for j in cands:
        ci = chain_index[j]
        for w, h, rot in instance.oriented[j]:
            x_end = x + w
            if x_end > x1_max or y_lo + h > y_cap:
                continue  # past the widest 1-cut the column may get, or above y_cap
            if depth == 3:
                cell = reference_cell_in_shelf(defects, x, y_lo, y_cap, w, h, mw)
            else:
                cell = _cell_opening_shelf(defects, x, y_lo, w, h, p)
            if cell is None:
                continue
            kind, y_item, y_hi = cell
            skip = not emit or swap_rule and reference_cell_swap_forbidden(
                node, defects, j, chain_sets[ci], x_end)
            x1 = try_cell(x_end, y_hi, completing, skip)
            if x1 is None:
                if no_growth and not emit:
                    return out, fits, no_growth  # a probe: nothing left to learn
            else:
                out.append(Insertion(
                    kind, depth, completing, (Placement(j, ci, x, y_item, w, h, rot),),
                    plate, x1_prev, x1, y_lo, y_hi, x, x_end,
                    x1 if completing and depth >= 2 else prev_col_x1,
                ))
    completing = items_left == 2
    for c in combos:
        x_end = x + c.width
        y_split = y_lo + c.hj
        y_hi = y_split + c.hk
        if x_end > x1_max:
            continue
        if depth == 3:
            if y_hi != y_cap:
                continue
        elif y_hi - y_lo < p.min2 or (y_hi > H - mw and y_hi != H):
            continue
        if defects and not (
            _rect_clear(defects, x, y_lo, x_end, y_split)
            and _rect_clear(defects, x, y_split, x_end, y_hi)
        ):
            continue
        cj, ck = chain_index[c.j], chain_index[c.k]
        skip = not emit or swap_rule and reference_cell_swap_forbidden(
            node, defects, min(c.j, c.k), (cj, ck), x_end)
        x1 = try_cell(x_end, y_hi, completing, skip)
        if x1 is not None:
            pls = (
                Placement(c.j, cj, x, y_lo, c.width, c.hj, c.rj),
                Placement(c.k, ck, x, y_split, c.width, c.hk, c.rk),
            )
            out.append(Insertion(
                _TWO_ITEMS, depth, completing, pls, plate, x1_prev, x1, y_lo, y_hi, x, x_end,
                x1 if completing and depth >= 2 else prev_col_x1,
            ))
    return out, fits, no_growth


# ---------------------------------------------------------------------------
# ``solution.build_solution_tree`` and its helpers as they were while the
# builder first copied the insertions into columns, shelves and cells:
# verbatim but for the prefixed names, for the old-versus-new CSV test in
# test_solution.py


class _RefDraft:
    __slots__ = ("x", "y", "w", "h", "type", "kids")

    def __init__(self, x, y, w, h, type_, kids=None):
        self.x, self.y, self.w, self.h = x, y, w, h
        self.type = type_
        self.kids: list[_RefDraft] = kids or []


class _RefCell:
    __slots__ = ("x0", "x1", "kind", "placements", "split_y")

    def __init__(self, ins: Insertion):
        self.x0 = ins.x3_prev
        self.x1 = ins.x3_curr
        self.kind = ins.kind
        self.placements = ins.placements
        self.split_y = split_y_of(ins)


class _RefShelf:
    __slots__ = ("y0", "y1", "cells")

    def __init__(self, ins: Insertion):
        self.y0 = ins.y2_prev
        self.y1 = ins.y2_curr
        self.cells = [_RefCell(ins)]


class _RefColumn:
    __slots__ = ("x0", "x1", "shelves")

    def __init__(self, ins: Insertion):
        self.x0 = ins.x1_prev
        self.x1 = None  # fixed when the column closes
        self.shelves = [_RefShelf(ins)]


def reference_build_solution_tree(leaf: Node, instance: Instance) -> SolutionTree:
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

    plates: list[list[_RefColumn]] = []
    for ins in insertions:
        if ins.depth == 0:
            if plates and ins.prev_col_x1 is not None:
                plates[-1][-1].x1 = ins.prev_col_x1
            plates.append([_RefColumn(ins)])
        elif ins.depth == 1:
            plates[-1][-1].x1 = ins.prev_col_x1
            plates[-1].append(_RefColumn(ins))
        elif ins.depth == 2:
            plates[-1][-1].shelves.append(_RefShelf(ins))
        else:
            plates[-1][-1].shelves[-1].cells.append(_RefCell(ins))
    plates[-1][-1].x1 = leaf.x1_curr

    W = instance.params.plate_width
    H = instance.params.plate_height
    rows: list[TreeNode] = []
    next_id = 0

    def emit(plate_id: int, draft: _RefDraft, parent_id: Optional[int], level: int) -> None:
        nonlocal next_id
        nid = next_id
        next_id += 1
        rows.append(
            TreeNode(nid, plate_id, draft.x, draft.y, draft.w, draft.h, draft.type, level, parent_id)
        )
        for kid in draft.kids:
            emit(plate_id, kid, nid, level + 1)

    for plate_id, columns in enumerate(plates):
        root = _RefDraft(0, 0, W, H, TYPE_BRANCH)
        for col in columns:
            root.kids.append(_ref_draft_column(col, H))
        gap = W - columns[-1].x1
        if gap > 0:
            last_plate = plate_id == len(plates) - 1
            root.kids.append(
                _RefDraft(columns[-1].x1, 0, gap, H, TYPE_RESIDUAL if last_plate else TYPE_WASTE)
            )
        _ref_normalize(root)
        emit(plate_id, root, None, 0)

    return SolutionTree(rows)


def _ref_draft_column(col: _RefColumn, plate_h: int) -> _RefDraft:
    x0, x1 = col.x0, col.x1
    assert x1 is not None, "column never closed"
    node = _RefDraft(x0, 0, x1 - x0, plate_h, TYPE_BRANCH)
    for shelf in col.shelves:
        node.kids.append(_ref_draft_shelf(shelf, x0, x1))
    y_top = col.shelves[-1].y1
    if y_top < plate_h:
        node.kids.append(_RefDraft(x0, y_top, x1 - x0, plate_h - y_top, TYPE_WASTE))
    return node


def _ref_draft_shelf(shelf: _RefShelf, col_x0: int, col_x1: int) -> _RefDraft:
    y0, y1 = shelf.y0, shelf.y1
    node = _RefDraft(col_x0, y0, col_x1 - col_x0, y1 - y0, TYPE_BRANCH)
    for cell in shelf.cells:
        node.kids.append(_ref_draft_cell(cell, y0, y1))
    edge = shelf.cells[-1].x1
    if edge < col_x1:
        node.kids.append(_RefDraft(edge, y0, col_x1 - edge, y1 - y0, TYPE_WASTE))
    return node


def _ref_draft_cell(cell: _RefCell, y0: int, y1: int) -> _RefDraft:
    w = cell.x1 - cell.x0
    if cell.kind is InsertionKind.WASTE_ONLY:
        return _RefDraft(cell.x0, y0, w, y1 - y0, TYPE_WASTE)
    if cell.kind is InsertionKind.ONE_ITEM:
        pl = cell.placements[0]
        assert (pl.x, pl.y, pl.width, pl.height) == (cell.x0, y0, w, y1 - y0)
        return _RefDraft(pl.x, pl.y, pl.width, pl.height, pl.item_id)
    node = _RefDraft(cell.x0, y0, w, y1 - y0, TYPE_BRANCH)
    split = cell.split_y
    if cell.kind is InsertionKind.ITEM_WASTE_ABOVE:
        pl = cell.placements[0]
        node.kids = [
            _RefDraft(pl.x, pl.y, pl.width, pl.height, pl.item_id),
            _RefDraft(cell.x0, split, w, y1 - split, TYPE_WASTE),
        ]
    elif cell.kind is InsertionKind.ITEM_WASTE_BELOW:
        pl = cell.placements[0]
        node.kids = [
            _RefDraft(cell.x0, y0, w, split - y0, TYPE_WASTE),
            _RefDraft(pl.x, pl.y, pl.width, pl.height, pl.item_id),
        ]
    else:  # TWO_ITEMS
        a, b = cell.placements
        node.kids = [
            _RefDraft(a.x, a.y, a.width, a.height, a.item_id),
            _RefDraft(b.x, b.y, b.width, b.height, b.item_id),
        ]
    return node


def _ref_normalize(node: _RefDraft) -> None:
    """Bottom-up cleanup: a branch whose sole child is a leaf becomes that
    leaf, and runs of adjacent waste leaves fuse into one (the plate root is
    never collapsed, so a full-plate item stays root + leaf)."""
    for kid in node.kids:
        _ref_normalize(kid)
        if kid.type == TYPE_BRANCH and len(kid.kids) == 1 and not kid.kids[0].kids:
            only = kid.kids[0]
            assert (only.x, only.y, only.w, only.h) == (kid.x, kid.y, kid.w, kid.h)
            kid.type = only.type
            kid.kids = []
    if len(node.kids) < 2:
        return
    merged: list[_RefDraft] = []
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


def split_y_of(ins: Insertion) -> Optional[int]:
    """The 4-cut of the cell that ``ins`` packs, or None: the top of an
    item with waste above, the bottom of one with waste below, and the
    bottom of the upper item of two."""
    pls = ins.placements
    if ins.kind is _ITEM_WASTE_ABOVE:
        return pls[0].y + pls[0].height
    if ins.kind is _ITEM_WASTE_BELOW:
        return pls[0].y
    if ins.kind is _TWO_ITEMS:
        return pls[1].y
    return None


def pinned_record(ins: Insertion, params: Params) -> tuple:
    """The 15 values on which the insertion pins and the golden traces were
    taken, in their order then, rebuilt from ``ins`` on plates of
    ``params``: kind name, depth, whether a plate opens, completes, the
    placements as plain tuples, plate, the full area of the plates before
    it, the six coordinates, the 4-cut and prev_col_x1.  Hashing this
    record rather than ``list(ins)`` keeps the pins valid across changes
    of the insertion's layout that leave every search decision alone."""
    return (
        ins.kind.name, ins.depth, ins.depth == 0, ins.completes,
        tuple(tuple(pl) for pl in ins.placements), ins.bin,
        ins.bin * params.plate_width * params.plate_height,
        ins.x1_prev, ins.x1_curr, ins.y2_prev, ins.y2_curr, ins.x3_prev, ins.x3_curr,
        split_y_of(ins), ins.prev_col_x1,
    )


def random_front(rng: random.Random, bin_index: int = 0) -> tuple:
    """A random front key on a 1000 x 600 plate."""
    W, H = 1000, 600
    x1_prev = rng.randint(0, W)
    x1_curr = rng.randint(x1_prev, W)
    x3_curr = rng.randint(x1_prev, x1_curr)
    y2_prev = rng.randint(0, H)
    y2_curr = rng.randint(y2_prev, H)
    return (bin_index, x1_prev, x1_curr, x3_curr, y2_prev, y2_curr)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture(autouse=True)
def no_lingering_workers():
    """Fail a test that leaves child processes (portfolio workers) running;
    they are stopped so that the next test starts clean."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join()
    assert not left, f"child processes outlived the test: {left}"
