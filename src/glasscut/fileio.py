"""Challenge file formats: instance CSVs in, solution CSV out (and back).

All files are UTF-8 text, with or without a leading byte-order mark,
semicolon-separated with a mandatory header, ``.`` decimal point and
``\\n`` or ``\\r\\n`` line endings.  An instance is a path prefix
``<name>``: items come from ``<name>_batch.csv``, defects (optional) from
``<name>_defects.csv``.
"""

from __future__ import annotations

import math
import os
from typing import Optional, TextIO, Union

from .model import Defect, Instance, Item, Params, ParseError, SolutionError
from .solution import SolutionTree, TreeNode

BATCH_HEADER = "ITEM_ID;LENGTH;WIDTH;STACK;SEQUENCE"
DEFECTS_HEADER = "DEFECT_ID;PLATE_ID;X;Y;WIDTH;HEIGHT"
SOLUTION_HEADER = "PLATE_ID;NODE_ID;X;Y;WIDTH;HEIGHT;TYPE;CUT;PARENT"

PathOrFile = Union[str, os.PathLike, TextIO]


def _read_lines(src: PathOrFile) -> list[str]:
    try:
        if hasattr(src, "read"):
            text = src.read()
        else:
            with open(src, "r", encoding="utf-8") as f:
                text = f.read()
    except UnicodeDecodeError:
        raise ParseError(f"PARSE {getattr(src, 'name', src)} is not UTF-8 text") from None
    if text.startswith("\ufeff"):  # a byte-order mark, as spreadsheet exports write
        text = text[1:]
    return [ln.rstrip("\r") for ln in text.split("\n") if ln.strip("\r").strip()]


def _open_out(dst: PathOrFile):
    if hasattr(dst, "write"):
        return dst, False
    return open(dst, "w", encoding="utf-8", newline=""), True


def _int_field(raw: str, what: str, line_no: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"PARSE line {line_no}: {what} {raw!r} is not an integer") from None


def parse_batch(src: PathOrFile) -> list[Item]:
    """Items from a ``*_batch.csv`` file; LENGTH is the item height, WIDTH
    its width, STACK the chain and SEQUENCE its rank within the chain."""
    lines = _read_lines(src)
    if not lines or lines[0].split(";")[:5] != BATCH_HEADER.split(";"):
        raise ParseError("PARSE missing or wrong batch header")
    items: list[Item] = []
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split(";")
        if len(parts) != 5:
            raise ParseError(f"PARSE line {line_no}: expected 5 fields, got {len(parts)}")
        item_id = _int_field(parts[0], "ITEM_ID", line_no)
        length = _int_field(parts[1], "LENGTH", line_no)
        width = _int_field(parts[2], "WIDTH", line_no)
        stack = _int_field(parts[3], "STACK", line_no)
        seq = _int_field(parts[4], "SEQUENCE", line_no)
        if item_id != len(items):
            raise ParseError(f"NONCONTIGUOUS_IDS item id {item_id} out of order")
        items.append(Item(id=item_id, width=width, height=length, chain_id=stack, chain_rank=seq))
    return items


def parse_defects(src: PathOrFile, params: Params) -> dict[int, tuple[Defect, ...]]:
    """Defects from a ``*_defects.csv`` file.  Fractional coordinates are
    enclosed in the smallest integer rectangle (floor origin, ceil far edge),
    so a rounded defect never under-covers the true one.  Overlapping
    defects are kept: ``Instance`` rejects them."""
    lines = _read_lines(src)
    if not lines or lines[0].split(";")[:6] != DEFECTS_HEADER.split(";"):
        raise ParseError("PARSE missing or wrong defects header")
    per_plate: dict[int, list[Defect]] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split(";")
        if len(parts) != 6:
            raise ParseError(f"PARSE line {line_no}: expected 6 fields, got {len(parts)}")
        plate = _int_field(parts[1], "PLATE_ID", line_no)
        if plate < 0:
            raise ParseError(f"OUT_OF_PLATE line {line_no}: PLATE_ID {plate} is negative")
        try:
            fx, fy = float(parts[2]), float(parts[3])
            fw, fh = float(parts[4]), float(parts[5])
        except ValueError:
            raise ParseError(f"PARSE line {line_no}: non-numeric defect geometry") from None
        # a sum is finite only if both its terms are
        x_end, y_end = fx + fw, fy + fh
        if not (math.isfinite(x_end) and math.isfinite(y_end)):
            raise ParseError(f"PARSE line {line_no}: non-finite defect geometry")
        x = math.floor(fx)
        y = math.floor(fy)
        w = math.ceil(x_end) - x
        h = math.ceil(y_end) - y
        if x < 0 or y < 0 or x + w > params.plate_width or y + h > params.plate_height:
            raise ParseError(f"OUT_OF_PLATE line {line_no}: defect exceeds plate bounds")
        per_plate.setdefault(plate, []).append(Defect(plate, x, y, w, h))
    return {plate: tuple(defs) for plate, defs in per_plate.items()}


def load_instance(prefix: Union[str, os.PathLike], params: Optional[Params] = None) -> Instance:
    """Instance from ``<prefix>_batch.csv`` and optional ``<prefix>_defects.csv``."""
    params = params or Params()
    items = parse_batch(f"{prefix}_batch.csv")
    defects_path = f"{prefix}_defects.csv"
    defects = parse_defects(defects_path, params) if os.path.exists(defects_path) else {}
    return Instance(params=params, items=items, defects=defects)


def write_solution(tree: SolutionTree, dst: PathOrFile) -> None:
    """Emit the tree, parents before children, node ids increasing."""
    out, close = _open_out(dst)
    try:
        out.write(SOLUTION_HEADER + "\n")
        for n in sorted(tree.nodes, key=lambda n: n.node_id):
            parent = "" if n.parent_id is None else str(n.parent_id)
            out.write(
                f"{n.plate_id};{n.node_id};{n.x};{n.y};{n.width};{n.height};"
                f"{n.type};{n.cut_level};{parent}\n"
            )
    finally:
        if close:
            out.close()


def read_solution(src: PathOrFile) -> SolutionTree:
    """Inverse of :func:`write_solution`."""
    lines = _read_lines(src)
    if not lines or lines[0].split(";")[:9] != SOLUTION_HEADER.split(";"):
        raise ParseError("PARSE missing or wrong solution header")
    nodes: list[TreeNode] = []
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split(";")
        if len(parts) != 9:
            raise ParseError(f"PARSE line {line_no}: expected 9 fields, got {len(parts)}")
        plate = _int_field(parts[0], "PLATE_ID", line_no)
        node_id = _int_field(parts[1], "NODE_ID", line_no)
        x = _int_field(parts[2], "X", line_no)
        y = _int_field(parts[3], "Y", line_no)
        w = _int_field(parts[4], "WIDTH", line_no)
        h = _int_field(parts[5], "HEIGHT", line_no)
        type_ = _int_field(parts[6], "TYPE", line_no)
        cut = _int_field(parts[7], "CUT", line_no)
        parent = None if parts[8] == "" else _int_field(parts[8], "PARENT", line_no)
        nodes.append(TreeNode(node_id, plate, x, y, w, h, type_, cut, parent))
    all_ids = {n.node_id for n in nodes}
    seen: set[int] = set()
    last_id = -1
    for n in nodes:
        if n.node_id in seen:
            raise SolutionError(f"DUPLICATE_ID node {n.node_id} appears twice")
        if n.node_id <= last_id:
            raise ParseError(f"PARSE node ids must increase (node {n.node_id})")
        if n.parent_id is not None:
            if n.parent_id not in all_ids:
                raise SolutionError(f"ORPHAN_NODE node {n.node_id} has no parent row")
            if n.parent_id not in seen:
                raise ParseError(f"PARSE parent {n.parent_id} listed after node {n.node_id}")
        seen.add(n.node_id)
        last_id = n.node_id
    return SolutionTree(nodes)
