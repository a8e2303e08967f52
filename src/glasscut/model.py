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
from typing import Iterable, Optional, Sequence


class GlasscutError(Exception):
    """Base class for all package errors."""


class ParseError(GlasscutError):
    """Malformed input file (message starts with a short error code)."""


class InstanceError(GlasscutError):
    """Instance-level inconsistency (bad dimensions, bad chains, ...)."""


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
    """Items grouped into precedence chains plus per-plate defects."""

    params: Params
    items: Sequence[Item]
    chains: Sequence[Sequence[int]] = field(default_factory=list)
    defects: dict[int, tuple[Defect, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.items = sorted(self.items, key=lambda it: it.id)
        if [it.id for it in self.items] != list(range(len(self.items))):
            raise InstanceError("BAD_ITEM item ids must be 0..n-1")
        if not self.chains:
            self.chains = _derive_chains(self.items)
        self._check()
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
        seen: set[int] = set()
        self.chain_index: dict[int, int] = {}
        for ci, chain in enumerate(self.chains):
            for item_id in chain:
                if item_id in seen:
                    raise InstanceError(f"BAD_CHAINS item {item_id} in two chains")
                seen.add(item_id)
                self.chain_index[item_id] = ci
        if seen != {it.id for it in self.items}:
            raise InstanceError("BAD_CHAINS chains do not partition the item set")
        for it in self.items:
            if min(it.width, it.height) < p.min_waste:
                raise InstanceError(f"BAD_ITEM item {it.id} thinner than min_waste")
            fits = (it.width <= p.plate_width and it.height <= p.plate_height) or (
                it.height <= p.plate_width and it.width <= p.plate_height
            )
            if not fits:
                raise InstanceError(f"BAD_ITEM item {it.id} does not fit any plate")
        for plate, defs in self.defects.items():
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
        ranks = [it.chain_rank for it in members]
        if len(set(ranks)) != len(ranks):
            raise ParseError(f"DUPLICATE_SEQUENCE stack {cid} repeats a rank")
        chains.append([it.id for it in members])
    return chains


@dataclass(frozen=True)
class Front:
    """Step-function boundary of a partial solution in its last plate."""

    bin_index: int
    x1_prev: int
    x1_curr: int
    x3_curr: int
    y2_prev: int
    y2_curr: int

    def x_at(self, y: int) -> int:
        if y < self.y2_prev:
            return self.x1_curr
        if y < self.y2_curr:
            return self.x3_curr
        return self.x1_prev


def front_leq(f1: Front, f2: Front) -> bool:
    """True iff f1's front is nowhere to the right of f2's (same plate only)."""
    if f1.bin_index != f2.bin_index:
        raise ValueError("BIN_MISMATCH fronts belong to different plates")
    for y in (0, f1.y2_prev, f1.y2_curr, f2.y2_prev, f2.y2_curr):
        if f1.x_at(y) > f2.x_at(y):
            return False
    return True


def front_key_leq(a: tuple, b: tuple) -> bool:
    """front_leq on (bin, x1_prev, x1_curr, x3_curr, y2_prev, y2_curr) tuples;
    the caller guarantees equal plate indexes."""
    _, a1p, a1c, a3c, a2p, a2c = a
    _, b1p, b1c, b3c, b2p, b2c = b
    for y in (0, a2p, a2c, b2p, b2c):
        if (a1c if y < a2p else (a3c if y < a2c else a1p)) > (
            b1c if y < b2p else (b3c if y < b2c else b1p)
        ):
            return False
    return True


@dataclass(frozen=True)
class ShelfRecord:
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


class Node:
    """A partial solution: parent link plus the insertion that produced it.

    Immutable after construction.  ``prior_area`` is the full area of every
    plate before the current one; ``area``/``waste`` follow the front-based
    accounting (leftover right of the last 1-cut is free once complete).
    """

    __slots__ = (
        "parent",
        "insertion",
        "plate_height",
        "bin",
        "x1_prev",
        "x1_curr",
        "y2_prev",
        "y2_curr",
        "x3_prev",
        "x3_curr",
        "counts",
        "n_packed",
        "item_area",
        "prior_area",
        "area",
        "waste",
        "complete",
        "last_depth",
        "last_was_waste",
        "last_was_two",
        "closed_shelves",
        "col_has_items",
        "shelf_min_item",
        "shelf_chain_ids",
        "cell_min_item",
        "cell_chain_ids",
    )

    def __init__(
        self,
        parent: Optional["Node"],
        insertion,
        plate_height: int,
        bin: int,
        x1_prev: int,
        x1_curr: int,
        y2_prev: int,
        y2_curr: int,
        x3_prev: int,
        x3_curr: int,
        counts: tuple[int, ...],
        n_packed: int,
        item_area: int,
        prior_area: int,
        complete: bool,
        last_depth: int,
        last_was_waste: bool,
        last_was_two: bool,
        closed_shelves: tuple[ShelfRecord, ...],
        col_has_items: bool,
        shelf_min_item: Optional[int],
        shelf_chain_ids: frozenset[int],
        cell_min_item: Optional[int],
        cell_chain_ids: frozenset[int],
    ):
        self.parent = parent
        self.insertion = insertion
        self.plate_height = plate_height
        self.bin = bin
        self.x1_prev = x1_prev
        self.x1_curr = x1_curr
        self.y2_prev = y2_prev
        self.y2_curr = y2_curr
        self.x3_prev = x3_prev
        self.x3_curr = x3_curr
        self.counts = counts
        self.n_packed = n_packed
        self.item_area = item_area
        self.prior_area = prior_area
        self.complete = complete
        self.last_depth = last_depth
        self.last_was_waste = last_was_waste
        self.last_was_two = last_was_two
        self.closed_shelves = closed_shelves
        self.col_has_items = col_has_items
        self.shelf_min_item = shelf_min_item
        self.shelf_chain_ids = shelf_chain_ids
        self.cell_min_item = cell_min_item
        self.cell_chain_ids = cell_chain_ids
        # front-based covered area, inlined from area() for construction speed
        if bin < 0:
            self.area = 0
        elif complete:
            self.area = prior_area + x1_curr * plate_height
        else:
            self.area = (
                prior_area
                + x1_prev * plate_height
                + (x1_curr - x1_prev) * y2_prev
                + (x3_curr - x1_prev) * (y2_curr - y2_prev)
            )
        self.waste = self.area - item_area

    def front(self) -> Front:
        return Front(
            self.bin, self.x1_prev, self.x1_curr, self.x3_curr, self.y2_prev, self.y2_curr
        )

    def front_key(self) -> tuple[int, int, int, int, int, int]:
        return (
            self.bin,
            self.x1_prev,
            self.x1_curr,
            self.x3_curr,
            self.y2_prev,
            self.y2_curr,
        )

    def __repr__(self) -> str:  # debugging aid only
        return (
            f"Node(bin={self.bin}, packed={self.n_packed}, waste={self.waste}, "
            f"x1=[{self.x1_prev},{self.x1_curr}], y2=[{self.y2_prev},{self.y2_curr}], "
            f"x3=[{self.x3_prev},{self.x3_curr}])"
        )


def root_node(instance: Instance) -> Node:
    """Empty partial solution: no plate opened yet."""
    return Node(
        parent=None,
        insertion=None,
        plate_height=instance.params.plate_height,
        bin=-1,
        x1_prev=0,
        x1_curr=0,
        y2_prev=0,
        y2_curr=0,
        x3_prev=0,
        x3_curr=0,
        counts=(0,) * len(instance.chains),
        n_packed=0,
        item_area=0,
        prior_area=0,
        complete=instance.n_items == 0,
        last_depth=-1,
        last_was_waste=False,
        last_was_two=False,
        closed_shelves=(),
        col_has_items=False,
        shelf_min_item=None,
        shelf_chain_ids=frozenset(),
        cell_min_item=None,
        cell_chain_ids=frozenset(),
    )


def area(node: Node) -> int:
    """Covered area of a partial solution, per the front accounting.

    While items remain, the current column is only committed up to its front;
    once everything is packed the whole region left of the last 1-cut counts.
    """
    if node.bin < 0:
        return 0
    h = node.plate_height
    if node.complete:
        return node.prior_area + node.x1_curr * h
    return (
        node.prior_area
        + node.x1_prev * h
        + (node.x1_curr - node.x1_prev) * node.y2_prev
        + (node.x3_curr - node.x1_prev) * (node.y2_curr - node.y2_prev)
    )


def waste(node: Node) -> int:
    """Covered area not occupied by items; non-negative, non-decreasing."""
    return area(node) - node.item_area


def dominates(a: Node, b: Node) -> bool:
    """True iff a packs the same items as b on the same plate with a front
    nowhere behind b's."""
    if a.counts != b.counts or a.bin != b.bin:
        return False
    return front_leq(a.front(), b.front())
