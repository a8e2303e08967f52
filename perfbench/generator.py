"""Seeded instance generator in the challenge CSV format.

The ROADEF 2018 A/B/X sets need a download, so the benchmark writes
instances of the same shape itself: an X-like profile with many chains and a
B-like profile with at most two, on the challenge's default 6000 x 3210 mm
plates. The program only ever sees the files, through
``glasscut.fileio.load_instance``.
"""

from __future__ import annotations

import os
import random
from typing import NamedTuple

PLATE_WIDTH = 6000
PLATE_HEIGHT = 3210
DEFECT_PLATES = 3  # the first plates carry defects
DEFECTS_PER_PLATE = 2


class Profile(NamedTuple):
    n_items: int
    n_chains: int


def batch_rows(rng: random.Random, profile: Profile) -> list[str]:
    """``ITEM_ID;LENGTH;WIDTH;STACK;SEQUENCE`` lines; chain lengths differ by
    at most one, so the size of the chain-state space is fixed by the profile."""
    stacks = [i % profile.n_chains for i in range(profile.n_items)]
    rng.shuffle(stacks)
    next_rank = [0] * profile.n_chains
    rows = ["ITEM_ID;LENGTH;WIDTH;STACK;SEQUENCE"]
    for item_id, stack in enumerate(stacks):
        width = rng.randint(150, 1800)
        length = rng.randint(150, 1400)
        rows.append(f"{item_id};{length};{width};{stack};{next_rank[stack]}")
        next_rank[stack] += 1
    return rows


def defect_rows(rng: random.Random) -> list[str]:
    """``DEFECT_ID;PLATE_ID;X;Y;WIDTH;HEIGHT`` lines: small, disjoint defects."""
    rows = ["DEFECT_ID;PLATE_ID;X;Y;WIDTH;HEIGHT"]
    defect_id = 0
    for plate in range(DEFECT_PLATES):
        placed: list[tuple[int, int, int, int]] = []
        while len(placed) < DEFECTS_PER_PLATE:
            w, h = rng.randint(5, 60), rng.randint(5, 60)
            x, y = rng.randint(0, PLATE_WIDTH - w), rng.randint(0, PLATE_HEIGHT - h)
            if any(x < px + pw and px < x + w and y < py + ph and py < y + h
                   for px, py, pw, ph in placed):
                continue
            placed.append((x, y, w, h))
            rows.append(f"{defect_id};{plate};{x};{y};{w};{h}")
            defect_id += 1
    return rows


def write_instance(prefix: str, seed: int | str, profile: Profile) -> str:
    """Write ``<prefix>_batch.csv`` and ``<prefix>_defects.csv``; return prefix."""
    rng = random.Random(seed)
    directory = os.path.dirname(prefix)
    if directory:
        os.makedirs(directory, exist_ok=True)
    for suffix, rows in (("_batch.csv", batch_rows(rng, profile)),
                         ("_defects.csv", defect_rows(rng))):
        with open(prefix + suffix, "w", encoding="utf-8", newline="") as f:
            f.write("\n".join(rows) + "\n")
    return prefix
