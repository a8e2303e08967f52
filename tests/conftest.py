"""Shared helpers: instance builders, random generators and slow oracles."""

from __future__ import annotations

import contextlib
import multiprocessing
import random

import pytest

from glasscut import search
from glasscut.branching import children, insertion_front
from glasscut.model import (
    Defect, Instance, Item, Node, Params, front_order, front_profile, root_node,
)

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
    """Instance from (width, height) pairs; default one chain per item."""
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
        chains=[list(c) for c in chains],
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
            key = guide_value(kid.waste, kid.area, kid.item_area, kid.n_packed, guide, scale)
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


def raster_front_area(node: Node, plate_height: int) -> int:
    """Area oracle: sum the front's step function row by row (1 mm rows) on
    plates ``plate_height`` tall."""
    if node.bin < 0:
        return 0
    if node.complete:
        return node.prior_area + node.x1_curr * plate_height
    total = node.prior_area
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


def front_leq(a: tuple, b: tuple) -> bool:
    """a <= b for two (bin, x1_prev, x1_curr, x3_curr, y2_prev, y2_curr)
    fronts, through ``front_order``."""
    return bool(front_order(front_profile(a), front_profile(b)) & 1)


def reference_front_leq(a: tuple, b: tuple) -> bool:
    """The front order as a five-level loop, the form it had before
    ``front_order``: evaluate both step functions at 0 and at the y2 levels
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
