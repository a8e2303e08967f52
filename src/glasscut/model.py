"""Domain model for the four-stage guillotine glass cutting problem.

Geometry conventions used across the package (all coordinates are integer
millimeters, origin at the bottom-left of a plate):

* a *column* is a first-level sub-plate: a vertical slice of the plate
  produced by 1-cuts, spanning the full plate height;
* a *shelf* is a second-level sub-plate: a horizontal band of a column
  produced by 2-cuts;
* a *cell* is a third-level sub-plate: a vertical chunk of a shelf produced
  by 3-cuts; a cell may be split once more by a single horizontal 4-cut.

A partial solution is summarized by six coordinates: ``x1_prev``/``x1_curr``
bound the current column, ``y2_prev``/``y2_curr`` bound its current shelf,
and ``x3_prev``/``x3_curr`` bound the shelf's current cell.  The committed
region of the current plate is the step function

    X(y) = x1_curr  for y in [0, y2_prev)
           x3_curr  for y in [y2_prev, y2_curr)
           x1_prev  for y in [y2_curr, H]

which we call the *front*.  Waste of a partial solution is the covered area
minus the packed item area; the part of the last plate right of its final
1-cut is a free leftover and never counted.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Sequence


class GlasscutError(Exception):
    """Base class for all package errors."""


class ParseError(GlasscutError):
    """Malformed input file (message starts with a short error code)."""


class InstanceError(GlasscutError):
    """Instance-level inconsistency (bad dimensions, items or defects)."""


class SolutionError(GlasscutError):
    """Malformed or inconsistent solution tree."""


@dataclass(frozen=True)
class Params:
    """Plate dimensions and cut-distance limits.

    ``min1``/``max1`` bound the width of columns that contain items,
    ``min2`` is the minimum height of shelves that contain items, and
    ``min_waste`` is the minimum width and height of any waste rectangle.
    """

    plate_width: int = 6000
    plate_height: int = 3210
    n_plates: int = 100
    min1: int = 100
    max1: int = 3500
    min2: int = 100
    min_waste: int = 20

    def __post_init__(self) -> None:
        if self.plate_width <= 0 or self.plate_height <= 0:
            raise InstanceError("BAD_PARAMS plate dimensions must be positive")
        if not (0 < self.min1 <= self.max1 <= self.plate_width):
            raise InstanceError("BAD_PARAMS need 0 < min1 <= max1 <= plate width")
        if not (0 < self.min2 <= self.plate_height):
            raise InstanceError("BAD_PARAMS need 0 < min2 <= plate height")
        if not (0 < self.min_waste <= min(self.min1, self.min2)):
            raise InstanceError("BAD_PARAMS need 0 < min_waste <= min(min1, min2)")
        if self.n_plates <= 0:
            raise InstanceError("BAD_PARAMS need at least one plate")


@dataclass(frozen=True)
class Item:
    """A rectangular glass piece; ``chain_rank`` orders it within its chain."""

    id: int
    width: int
    height: int
    chain_id: int
    chain_rank: int

    @property
    def area(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class Defect:
    """An axis-aligned defective rectangle on one plate."""

    plate_index: int
    x: int
    y: int
    width: int
    height: int

    def intersects(self, x0: int, y0: int, x1: int, y1: int) -> bool:
        """Open-rectangle overlap with [x0,x1]x[y0,y1]; touching edges do not count."""
        return (
            self.x < x1
            and x0 < self.x + self.width
            and self.y < y1
            and y0 < self.y + self.height
        )


@dataclass
class Instance:
    """Items grouped into precedence chains plus per-plate defects; the
    chains (item ids by rank, chains by id) follow from the items."""

    params: Params
    items: Sequence[Item]
    defects: dict[int, tuple[Defect, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.items = sorted(self.items, key=lambda it: it.id)
        if [it.id for it in self.items] != list(range(len(self.items))):
            raise InstanceError("BAD_ITEM item ids must be 0..n-1")
        self.chains = _derive_chains(self.items)
        self.chain_index = {i: ci for ci, chain in enumerate(self.chains) for i in chain}
        self._check()
        # {chain index} per chain, shared by every one-item cell of the chain
        self.chain_sets = tuple(frozenset((ci,)) for ci in range(len(self.chains)))
        self.total_item_area = sum(it.area for it in self.items)
        # (width, height, rotated) choices per item, squares listed once
        self.oriented: list[tuple[tuple[int, int, bool], ...]] = [
            ((it.width, it.height, False),)
            if it.width == it.height
            else ((it.width, it.height, False), (it.height, it.width, True))
            for it in self.items
        ]

    def _check(self) -> None:
        p = self.params
        if len(self.items) >= 700:
            warnings.warn(f"{len(self.items)} items is beyond the expected range")
        for it in self.items:
            if min(it.width, it.height) < p.min_waste:
                raise InstanceError(f"BAD_ITEM item {it.id} thinner than min_waste")
            fits = (it.width <= p.plate_width and it.height <= p.plate_height) or (
                it.height <= p.plate_width and it.width <= p.plate_height
            )
            if not fits:
                raise InstanceError(f"BAD_ITEM item {it.id} does not fit any plate")
        for plate, defs in self.defects.items():
            if plate < 0:
                raise InstanceError(f"OUT_OF_PLATE defects on plate {plate}")
            for d in defs:
                if d.width <= 0 or d.height <= 0:
                    raise InstanceError(f"BAD_DEFECT empty defect on plate {plate}")
                if (
                    d.x < 0
                    or d.y < 0
                    or d.x + d.width > p.plate_width
                    or d.y + d.height > p.plate_height
                ):
                    raise InstanceError(f"OUT_OF_PLATE defect outside plate {plate}")
            for i, a in enumerate(defs):
                for b in defs[i + 1 :]:
                    if a.intersects(b.x, b.y, b.x + b.width, b.y + b.height):
                        raise InstanceError(
                            f"BAD_DEFECT overlapping defects on plate {plate}"
                        )

    @property
    def n_items(self) -> int:
        return len(self.items)

    def plate_defects(self, plate: int) -> tuple[Defect, ...]:
        return self.defects.get(plate, ())


def _derive_chains(items: Iterable[Item]) -> list[list[int]]:
    by_chain: dict[int, list[Item]] = {}
    for it in items:
        by_chain.setdefault(it.chain_id, []).append(it)
    chains = []
    for cid in sorted(by_chain):
        members = sorted(by_chain[cid], key=lambda it: it.chain_rank)
        for a, b in zip(members, members[1:]):
            if a.chain_rank == b.chain_rank:
                raise ParseError(f"DUPLICATE_SEQUENCE stack {cid} repeats rank {a.chain_rank}")
        chains.append([it.id for it in members])
    return chains


def admit_front(entries: list, front: tuple) -> int:
    """The front order, between a newcomer and a whole list in one scan.

    A front is a (bin, x1_prev, x1_curr, x3_curr, y2_prev, y2_curr) tuple
    (``Node.front_key``), and a is at most b (a <= b) when a's step
    function is nowhere right of b's.  ``entries`` holds the profiles of
    fronts no two of which are comparable: each front followed by its step
    function's values at its own levels 0, y2_prev and y2_curr.  When one
    of them is at most ``front``, the result is -1 and ``entries`` stays
    as it was.  Otherwise the entries that ``front`` is at most are
    removed, its profile is appended, and the result is how many were
    removed.  An entry that the newcomer is at most never meets one that
    is at most the newcomer, as the two would be comparable; so the scan
    rejects at once, and removes only once it is over.

    Both steps only change at the y2 levels, so comparing at 0 and at the
    y2 levels of both fronts decides the order.  Each entry brings its
    values at its own levels, and the newcomer's are evaluated once; only
    the values at the other front's levels are evaluated per entry.  The
    level 0 tells which directions remain possible, and each one stops at
    its first failing level (the levels are tried in the order that fails
    soonest in DPA*'s store).  The first field is carried into the
    profile, never compared: the caller guarantees equal plate indexes, or
    puts a label of its own there."""
    _, n1p, n1c, n3c, n2p, n2c = front
    n0 = n1c if 0 < n2p else (n3c if 0 < n2c else n1p)
    np_ = n3c if n2p < n2c else n1p
    nc = n1c if n2c < n2p else n1p
    dominated = []
    for e in entries:
        _, e1p, e1c, e3c, e2p, e2c, e0, ep, ec = e
        if e0 < n0:  # only e <= front is possible
            if ((e1c if n2c < e2p else (e3c if n2c < e2c else e1p)) <= nc
                    and (e1c if n2p < e2p else (e3c if n2p < e2c else e1p)) <= np_
                    and ep <= (n1c if e2p < n2p else (n3c if e2p < n2c else n1p))
                    and ec <= (n1c if e2c < n2p else (n3c if e2c < n2c else n1p))):
                return -1
        elif e0 > n0:  # only front <= e is possible
            if (ec >= (n1c if e2c < n2p else (n3c if e2c < n2c else n1p))
                    and ep >= (n1c if e2p < n2p else (n3c if e2p < n2c else n1p))
                    and (e1c if n2p < e2p else (e3c if n2p < e2c else e1p)) >= np_
                    and (e1c if n2c < e2p else (e3c if n2c < e2c else e1p)) >= nc):
                dominated.append(e)
        else:
            e_np = e1c if n2p < e2p else (e3c if n2p < e2c else e1p)
            e_nc = e1c if n2c < e2p else (e3c if n2c < e2c else e1p)
            n_ep = n1c if e2p < n2p else (n3c if e2p < n2c else n1p)
            n_ec = n1c if e2c < n2p else (n3c if e2c < n2c else n1p)
            if ep <= n_ep and ec <= n_ec and e_np <= np_ and e_nc <= nc:
                return -1
            if ep >= n_ep and ec >= n_ec and e_np >= np_ and e_nc >= nc:
                dominated.append(e)
    if dominated:
        entries[:] = [e for e in entries if e not in dominated]
    entries.append((front[0], n1p, n1c, n3c, n2p, n2c, n0, np_, nc))
    return len(dominated)


class ShelfRecord(NamedTuple):
    """A closed shelf of the current column, kept for strip and cut re-checks.

    ``edge`` is the right edge of the shelf's content when it was closed; the
    region between ``edge`` and the column's final right 1-cut becomes a waste
    strip.  ``edge_is_cut`` is False when the shelf ended in a waste cell:
    such a shelf absorbs later column growth without a new cut, so it carries
    no minimum-strip constraint.
    """

    y0: int
    y1: int
    edge: int
    edge_is_cut: bool
    min_item: Optional[int]
    chain_ids: frozenset[int]


class GuideKind(Enum):
    """Node-ordering keys for the searches."""

    WASTE = "w"
    WASTE_PERCENTAGE = "p"
    WASTE_PERCENTAGE_OVER_MEAN_ITEM_AREA = "a"


def covered_area(ins, plate_area: int, plate_height: int) -> int:
    """Area the partial solution that the insertion ``ins`` makes covers:
    the plates before its own, then up to its front, or left of its last
    1-cut once it is complete."""
    x1_prev, x1_curr = ins.x1_prev, ins.x1_curr
    if ins.completes:
        return ins.bin * plate_area + x1_curr * plate_height
    y2_prev = ins.y2_prev
    return (ins.bin * plate_area + x1_prev * plate_height + (x1_curr - x1_prev) * y2_prev
            + (ins.x3_curr - x1_prev) * (ins.y2_curr - y2_prev))


def waste_floor(prior_area: int, plate_height: int, x1_curr: int, total_item_area: int) -> int:
    """Least waste of any completion of a partial solution whose plates
    before its own cover ``prior_area`` and whose column edge is
    ``x1_curr``: the completion covers at least those plates and its own
    plate left of ``x1_curr`` over the full height, as the column closes at
    ``x1_curr`` or to its right, or on a later plate, and it packs exactly
    ``total_item_area``."""
    return prior_area + x1_curr * plate_height - total_item_area


_NO_CHAINS: frozenset[int] = frozenset()


def counts_after(counts: tuple[int, ...], ins) -> tuple[int, ...]:
    """Items consumed per chain once the insertion ``ins`` is applied to
    ``counts``."""
    out = list(counts)
    for pl in ins.placements:
        out[pl.chain_idx] += 1
    return tuple(out)


def _cell_items(ins, instance: Instance) -> tuple[Optional[int], frozenset[int]]:
    """Smallest item id (None for a waste cell) and chain indexes of the cell
    that the insertion ``ins`` packs."""
    pls = ins.placements
    if not pls:
        return None, _NO_CHAINS
    if len(pls) == 1:
        return pls[0].item_id, instance.chain_sets[pls[0].chain_idx]
    a, b = pls
    return min(a.item_id, b.item_id), frozenset((a.chain_idx, b.chain_idx))


def _min_opt(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return a if a < b else b


class Node:
    """A partial solution: its parent plus the insertion that produced it.

    ``Node(parent, insertion, instance)`` derives the child's whole state
    from its parent and a feasible insertion (``branching.Insertion``, read
    by field name; its geometry was settled when it was generated);
    ``Node(None, None, instance)`` is the empty root, before any plate is
    opened.  Immutable after construction.  ``waste`` is the area covered
    (``covered_area``: the plates before ``bin`` and the front) less
    ``item_area``.
    """

    __slots__ = (
        "parent", "insertion", "bin", "x1_prev", "x1_curr", "y2_prev", "y2_curr",
        "x3_prev", "x3_curr", "counts", "n_packed", "item_area", "waste", "complete",
        "closed_shelves", "col_has_items", "shelf_min_item", "shelf_chain_ids",
        "cell_min_item", "cell_chain_ids",
    )

    def __init__(self, parent: Optional["Node"], insertion, instance: Instance):
        self.parent = parent
        self.insertion = ins = insertion
        if parent is None:
            self.bin = -1
            self.x1_prev = self.x1_curr = self.y2_prev = self.y2_curr = 0
            self.x3_prev = self.x3_curr = 0
            self.counts = (0,) * len(instance.chains)
            self.n_packed = self.item_area = self.waste = 0
            self.complete = instance.n_items == 0
            self.closed_shelves = ()
            self.col_has_items = False
            self.shelf_min_item = self.cell_min_item = None
            self.shelf_chain_ids = self.cell_chain_ids = _NO_CHAINS
            return
        pls = ins.placements
        counts, item_area = parent.counts, parent.item_area
        if pls:
            counts = counts_after(counts, ins)
            for pl in pls:
                item_area += pl.width * pl.height
        cell_min, cell_chains = _cell_items(ins, instance)
        if ins.depth == 3:
            self.closed_shelves = parent.closed_shelves
            self.col_has_items = parent.col_has_items or bool(pls)
            self.shelf_min_item = _min_opt(parent.shelf_min_item, cell_min)
            self.shelf_chain_ids = parent.shelf_chain_ids | cell_chains
        else:
            if ins.depth == 2:  # the current shelf closes below the new one
                self.closed_shelves = parent.closed_shelves + (ShelfRecord(
                    parent.y2_prev, parent.y2_curr, parent.x3_curr,
                    parent.cell_min_item is not None, parent.shelf_min_item,
                    parent.shelf_chain_ids,
                ),)
                self.col_has_items = parent.col_has_items or bool(pls)
            else:  # a new column
                self.closed_shelves = ()
                self.col_has_items = bool(pls)
            self.shelf_min_item = cell_min
            self.shelf_chain_ids = cell_chains
        self.cell_min_item = cell_min
        self.cell_chain_ids = cell_chains
        self.bin = ins.bin
        self.x1_prev = ins.x1_prev
        self.x1_curr = ins.x1_curr
        self.y2_prev = ins.y2_prev
        self.y2_curr = ins.y2_curr
        self.x3_prev = ins.x3_prev
        self.x3_curr = ins.x3_curr
        self.counts = counts
        self.n_packed = parent.n_packed + len(pls)
        self.item_area = item_area
        self.complete = ins.completes
        p = instance.params
        self.waste = covered_area(ins, p.plate_width * p.plate_height, p.plate_height) - item_area

    def front_key(self) -> tuple[int, int, int, int, int, int]:
        return (self.bin, self.x1_prev, self.x1_curr, self.x3_curr, self.y2_prev, self.y2_curr)

    def __repr__(self) -> str:  # debugging aid only
        return (
            f"Node(bin={self.bin}, packed={self.n_packed}, waste={self.waste}, "
            f"x1=[{self.x1_prev},{self.x1_curr}], y2=[{self.y2_prev},{self.y2_curr}], "
            f"x3=[{self.x3_prev},{self.x3_curr}])"
        )


def root_node(instance: Instance) -> Node:
    """Empty partial solution: no plate opened yet."""
    return Node(None, None, instance)
