"""Shared helpers: instance builders, random generators and slow oracles."""

from __future__ import annotations

import multiprocessing
import random

import pytest

from glasscut.branching import children
from glasscut.model import Defect, Front, Instance, Item, Node, Params, root_node

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
    from glasscut.search import guide_value

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
            cands.append((guide_value(kid, guide), -kid.n_packed, i, kid))
        if not cands:
            break
        node = min(cands)[3]
        if best is not None and node.waste >= best:
            break
    return trace, best


def raster_front_area(node: Node) -> int:
    """Area oracle: sum the front's step function row by row (1 mm rows)."""
    if node.bin < 0:
        return 0
    if node.complete:
        return node.prior_area + node.x1_curr * node.plate_height
    total = node.prior_area
    for y in range(node.plate_height):
        if y < node.y2_prev:
            total += node.x1_curr
        elif y < node.y2_curr:
            total += node.x3_curr
        else:
            total += node.x1_prev
    return total


def front_leq_grid(f1: Front, f2: Front, plate_height: int) -> bool:
    """front_leq oracle: compare the step functions on every 1 mm row."""
    return all(f1.x_at(y) <= f2.x_at(y) for y in range(plate_height + 1))


def random_front(rng: random.Random, bin_index: int = 0) -> Front:
    W, H = 1000, 600
    x1_prev = rng.randint(0, W)
    x1_curr = rng.randint(x1_prev, W)
    x3_curr = rng.randint(x1_prev, x1_curr)
    y2_prev = rng.randint(0, H)
    y2_curr = rng.randint(y2_prev, H)
    return Front(bin_index, x1_prev, x1_curr, x3_curr, y2_prev, y2_curr)


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
