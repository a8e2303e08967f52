"""Shared helpers: instance builders, random generators and slow oracles."""

from __future__ import annotations

import contextlib
import multiprocessing
import random
from typing import Optional

import pytest

from glasscut import search
from glasscut.branching import (
    _ITEM_WASTE_ABOVE, _ITEM_WASTE_BELOW, _TWO_ITEMS, Insertion, _allowed_depths, _closed_edges,
    _frame, _gen_cells, _gen_waste, _swap_forbidden, apply_insertion, children, depths_after,
    filter_dominated_children, insertion_front, pair_combos,
)
from glasscut.model import Defect, Instance, Item, Node, Params, admit_front, root_node, waste_floor

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


def reference_sort_key(ins: Insertion) -> tuple:
    """The order of the insertions of one node as a tuple: the first
    item's id (waste cells last), deepest first, kind, then each item's
    (id, rotated).  ``enumerate_insertions`` sorted by this key before its
    trials gave each insertion an integer one (``branching.CellTables``)."""
    pls = ins.placements
    if not pls:
        return (1 << 30, -ins.depth, ins.kind.value, ())
    return (pls[0].item_id, -ins.depth, ins.kind.value,
            tuple((pl.item_id, pl.rotated) for pl in pls))


def reference_sibling_group(ins: Insertion) -> tuple:
    """The sibling group of ``ins`` as a tuple: its plate, the sorted
    chains it advances and the depths it leaves open to its child.  Among
    the insertions of one node, equal exactly where the groups that the
    trials give (``InsertionList``) are equal, but for those they mark."""
    return (ins.bin, *sorted(pl.chain_idx for pl in ins.placements), depths_after(ins))


def reference_filter(insertions: list) -> list:
    """``branching.filter_dominated_children`` on any list, its groups
    told by ``reference_sibling_group``."""
    return filter_dominated_children(insertions, [reference_sibling_group(m) for m in insertions])


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
        out += [ins for _, _, ins in _gen_cells(node, instance, frame, cells, depth, emit=True)[0]]
        waste = _gen_waste(node, instance, frame, depth)
        if waste is not None:
            out.append(waste)
    return sorted(out, key=reference_sort_key)


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
    incumbent instead of the fringe, later siblings prune against it by
    their waste and their waste floor, and the walk ends when the chosen
    node no longer beats the incumbent."""
    from glasscut.search import guide_scale, guide_value

    scale = guide_scale(instance.params)
    height = instance.params.plate_height
    plate_area = instance.params.plate_width * height
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
            if best is not None and (kid.waste >= best or waste_floor(
                    kid.bin * plate_area, height, kid.x1_curr, instance.total_item_area) >= best):
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
    entry of an expansion's batch, then pop the worst open entries beyond
    ``capacity``.  True when one was popped."""
    for entry in batch:
        fringe.push(entry)
    discarded = False
    while len(fringe) > capacity:
        fringe.pop_worst()
        discarded = True
    return discarded


def reference_filter_dominated_children(insertions: list, by_open_depths: bool = True) -> list:
    """``branching.filter_dominated_children`` with every ordered pair of
    siblings compared: a sibling is dropped when another one of its group
    (plate, sorted chains advanced and the depths open to its child) is at
    most it, and is strictly smaller or earlier.  With ``by_open_depths``
    False a group leaves the open depths out, as it did before siblings
    that leave different depths open were told apart."""
    groups: dict[tuple, list[tuple[int, tuple]]] = {}
    for i, ins in enumerate(insertions):
        key = (ins.bin, *sorted([pl.chain_idx for pl in ins.placements]))
        if by_open_depths:
            key += (depths_after(ins),)
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


def reference_cell_swap_forbidden(
    node: Node, defects, new_min, new_chains, x_end, fills_shelf: bool
) -> bool:
    """The cell-swap rule for a cell ending at ``x_end`` right of the
    current cell, holding ``new_min`` and ``new_chains``: ``_swap_forbidden``
    for the current cell and it, where the swapped pair is one the scheme
    builds.  A current cell at the column's left edge opened the shelf and
    set its top, so a new cell lower than the shelf (not ``fills_shelf``)
    cannot open it in its place; with ``fills_shelf`` True the rule is the
    one that ignored this."""
    y0, y1 = node.y2_prev, node.y2_curr
    if node.x3_prev == node.x1_prev and not fills_shelf:
        return False
    return _swap_forbidden(
        defects, node.cell_min_item, node.cell_chain_ids, (node.x3_prev, y0, node.x3_curr, y1),
        new_min, new_chains, (node.x3_curr, y0, x_end, y1))


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
