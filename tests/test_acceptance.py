"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Criteria 1, 3, 4, 5 and 6 need the public challenge instance files
(A/B/X datasets).  Point GLASSCUT_DATA at a directory containing
``<name>_batch.csv`` / ``<name>_defects.csv`` to enable them; the
multi-hour ones additionally want GLASSCUT_RUN_SLOW=1.  Everything
synthetic (criteria 2, 7, 8) runs unconditionally.
"""

import io
import os
import random
import time

import pytest

from glasscut.branching import children, enumerate_insertions, symmetry_allows
from glasscut.fileio import load_instance, read_solution, write_solution
from glasscut.model import Defect, GuideKind, Params, root_node
from glasscut.search import (
    Incumbent,
    dpa_star,
    guide_value,
    mba_star,
    portfolio_solve,
    restarting_mba_star,
)
from glasscut.solution import build_solution_tree
from glasscut.validator import objective_of, validate

from conftest import (
    dfs_min_waste,
    front_order_bits,
    front_x_at,
    make_instance,
    random_front,
    expansion_trace,
    random_small_instance,
    random_walk,
)
from test_fileio import random_format_tree

DATA_DIR = os.environ.get("GLASSCUT_DATA")
RUN_SLOW = os.environ.get("GLASSCUT_RUN_SLOW") == "1"

TABLE_TRIVIAL_180S = {"A1": 425_486, "A16": 3_380_333, "A17": 3_617_251, "A20": 1_467_925}
TABLE_DPA = {"B5": (72_155_615, 60.0), "X8": (22_265_601, 600.0)}
TABLE_180S_SUBSET = {
    "B2": 14_312_915,
    "B4": 8_323_615,
    "B5": 72_155_615,
    "X5": 4_988_207,
    "X8": 22_265_601,
}


def _emit(criterion: int, name: str, status: str, detail: str = "") -> None:
    tail = f" - {detail}" if detail else ""
    print(f"ACCEPTANCE {criterion} ({name}): {status}{tail}")


def _need_data(criterion: int, name: str):
    if not DATA_DIR:
        _emit(criterion, name, "SKIP", "set GLASSCUT_DATA to the instance directory")
        pytest.skip("challenge instance files not available")


def _need_slow(criterion: int, name: str):
    if not RUN_SLOW:
        _emit(criterion, name, "SKIP", "set GLASSCUT_RUN_SLOW=1 for multi-hour runs")
        pytest.skip("long benchmark run not enabled")


def _data_instances():
    names = []
    for fn in sorted(os.listdir(DATA_DIR)):
        if fn.endswith("_batch.csv"):
            names.append(fn[: -len("_batch.csv")])
    return names


def _solve_and_check(name: str, time_limit: float):
    instance = load_instance(os.path.join(DATA_DIR, name))
    incumbent, _ = portfolio_solve(instance, time_limit=time_limit)
    assert incumbent.leaf is not None, f"{name}: no feasible solution found"
    tree = build_solution_tree(incumbent.leaf, instance)
    report = validate(instance, tree)
    assert report.ok, f"{name}: {report}"
    value = objective_of(instance, tree)
    assert value == incumbent.waste, f"{name}: objective {value} != waste {incumbent.waste}"
    buf = io.StringIO()
    write_solution(tree, buf)
    back = read_solution(io.StringIO(buf.getvalue()))
    assert validate(instance, back).ok
    return incumbent.waste


@pytest.mark.dataset
@pytest.mark.slow
def test_criterion_1_datasets_roundtrip():
    """Solver output validates with exact objective on every A/B/X instance."""
    _need_data(1, "dataset roundtrip")
    _need_slow(1, "dataset roundtrip")
    names = _data_instances()
    assert names, f"no instances under {DATA_DIR}"
    for name in names:
        _solve_and_check(name, 180.0)
    _emit(1, "dataset roundtrip", "PASS", f"{len(names)} instances")


def test_criterion_2_oracle_equivalence():
    """Unbounded MBA*, symmetry and dominance off, equals exhaustive DFS on
    200 random small instances, exactly."""
    rng = random.Random(20180515)
    mismatches = []
    for trial in range(200):
        inst = random_small_instance(rng)
        oracle = dfs_min_waste(inst, use_symmetry=False, use_dominance=False)
        incumbent = Incumbent()
        res = mba_star(
            root_node(inst),
            inst,
            GuideKind.WASTE_PERCENTAGE,
            1 << 30,
            120.0,
            incumbent,
            use_symmetry=False,
            use_dominance=False,
        )
        assert res.outcome == "exhausted", f"trial {trial} timed out"
        if incumbent.waste != oracle:
            mismatches.append((trial, oracle, incumbent.waste))
    if mismatches:
        _emit(2, "oracle equivalence", "FAIL", f"{len(mismatches)} mismatches: {mismatches[:5]}")
    else:
        _emit(2, "oracle equivalence", "PASS", "200/200 exact")
    assert not mismatches


@pytest.mark.dataset
def test_criterion_3_published_trivial_and_two_chain_values():
    """Table values for the easy instances, exact, within 180 s each."""
    _need_data(3, "published values")
    results = {}
    for name, expect in TABLE_TRIVIAL_180S.items():
        waste = _solve_and_check(name, 180.0)
        results[name] = (waste, expect)
    bad = {k: v for k, v in results.items() if v[0] != v[1]}
    if bad:
        _emit(3, "published values", "FAIL", str(bad))
    else:
        _emit(3, "published values", "PASS", str({k: v[0] for k, v in results.items()}))
    assert not bad


@pytest.mark.dataset
def test_criterion_4_dpa_star_published_values():
    """DPA* reaches the published two-chain optima within the stated caps."""
    _need_data(4, "DPA* values")
    outcomes = {}
    for name, (expect, cap) in TABLE_DPA.items():
        instance = load_instance(os.path.join(DATA_DIR, name))
        incumbent = Incumbent()
        started = time.monotonic()
        dpa_star(root_node(instance), instance, cap, incumbent)
        elapsed = time.monotonic() - started
        outcomes[name] = (incumbent.waste, expect, round(elapsed, 2))
    bad = {k: v for k, v in outcomes.items() if v[0] != v[1]}
    if bad:
        _emit(4, "DPA* values", "FAIL", str(bad))
    else:
        _emit(4, "DPA* values", "PASS", str(outcomes))
    assert not bad


@pytest.mark.dataset
@pytest.mark.slow
def test_criterion_5_guide_and_symmetry_ablation_direction():
    """100 s single-worker sweeps over dataset A: percentage guide beats the
    waste guide, and symmetry on beats symmetry off, in total waste."""
    _need_data(5, "ablation direction")
    _need_slow(5, "ablation direction")
    names = [n for n in _data_instances() if n.startswith("A")]
    assert names, "dataset A not found"
    totals = {"sym_p": 0, "sym_w": 0, "nosym_p": 0}
    for name in names:
        instance = load_instance(os.path.join(DATA_DIR, name))
        for key, guide, sym in (
            ("sym_p", GuideKind.WASTE_PERCENTAGE, True),
            ("sym_w", GuideKind.WASTE, True),
            ("nosym_p", GuideKind.WASTE_PERCENTAGE, False),
        ):
            incumbent = Incumbent()
            restarting_mba_star(
                root_node(instance), instance, guide, "1.5", 100.0, incumbent,
                use_symmetry=sym,
            )
            assert incumbent.waste is not None, f"{name} {key}: no solution"
            totals[key] += incumbent.waste
    ok = totals["sym_p"] <= totals["sym_w"] and totals["sym_p"] <= totals["nosym_p"]
    _emit(5, "ablation direction", "PASS" if ok else "FAIL", str(totals))
    assert ok


@pytest.mark.dataset
@pytest.mark.slow
def test_criterion_6_published_180s_subset_within_10_percent():
    """Five chosen B/X instances at 180 s land within 10% of the published
    180 s column."""
    _need_data(6, "180s subset")
    _need_slow(6, "180s subset")
    misses = {}
    scores = {}
    for name, expect in TABLE_180S_SUBSET.items():
        waste = _solve_and_check(name, 180.0)
        scores[name] = (waste, expect)
        if waste > expect * 1.10:
            misses[name] = (waste, expect)
    if misses:
        _emit(6, "180s subset", "FAIL", str(misses))
    else:
        _emit(6, "180s subset", "PASS", str(scores))
    assert not misses


class TestCriterion7Properties:
    def test_waste_monotone_along_edges(self):
        rng = random.Random(71)
        edges = 0
        while edges < 10_000:
            inst = random_small_instance(rng)
            path = random_walk(rng, inst)
            for parent, child in zip(path, path[1:]):
                assert 0 <= parent.waste <= child.waste
                edges += 1
        _emit(7, "waste monotonicity", "PASS", f"{edges} edges")

    def test_front_partial_order_laws(self):
        rng = random.Random(72)
        for _ in range(10_000):
            a, b, c = (random_front(rng) for _ in range(3))
            ab = front_order_bits(a, b)
            assert front_order_bits(a, a) == 3
            assert front_order_bits(b, a) == (ab & 1) << 1 | ab >> 1  # both bits agree
            if ab & 1 and front_order_bits(b, c) & 1:
                assert front_order_bits(a, c) & 1
            if ab == 3:
                for y in range(0, 601, 13):
                    assert front_x_at(a, y) == front_x_at(b, y)
        _emit(7, "front order partial order", "PASS", "10000 triples")

    def test_incumbent_anytime_monotonicity(self):
        class LeafStub:
            def __init__(self, waste):
                self.waste = waste

        rng = random.Random(73)
        incumbent = Incumbent()
        for tick in range(10_000):
            incumbent.offer(LeafStub(rng.randint(0, 10**9)), float(tick))
        wastes = [w for _, w in incumbent.history]
        assert wastes == sorted(wastes, reverse=True)
        # and on a real run
        inst = random_small_instance(rng)
        incumbent = Incumbent()
        mba_star(root_node(inst), inst, GuideKind.WASTE, 1 << 30, 30.0, incumbent)
        wastes = [w for _, w in incumbent.history]
        assert wastes == sorted(wastes, reverse=True)
        _emit(7, "anytime incumbent", "PASS", "10000 offers + search history")

    def test_capacity_one_equals_greedy(self):
        from conftest import greedy_trace

        rng = random.Random(74)
        steps = 0
        while steps < 10_000:
            inst = random_small_instance(rng)
            incumbent = Incumbent()
            with expansion_trace() as trace:
                mba_star(root_node(inst), inst, GuideKind.WASTE_PERCENTAGE, 1, 30.0, incumbent)
            expect, expect_best = greedy_trace(inst, GuideKind.WASTE_PERCENTAGE)
            assert [n.insertion for n in trace] == [n.insertion for n in expect]
            assert incumbent.waste == expect_best
            steps += max(1, len(trace))
        _emit(7, "capacity-1 greedy trace", "PASS", f"{steps} trace steps")

    def test_serialization_round_trips(self):
        rng = random.Random(75)
        for _ in range(10_000):
            tree = random_format_tree(rng)
            buf = io.StringIO()
            write_solution(tree, buf)
            back = read_solution(io.StringIO(buf.getvalue()))
            assert [vars(n) for n in back.nodes] == [vars(n) for n in tree.nodes]
        _emit(7, "serialization round-trips", "PASS", "10000 trees")


def test_criterion_8_symmetry_pattern_classification():
    """The three reference reorder patterns classify forbidden/allowed/allowed."""
    params = Params()

    # (a) item 0 above item 1, no defect, separate chains: forbidden
    inst_a = make_instance([(2000, 1000), (3000, 2000)], chains=[[0], [1]],
                           params=params)
    below = children(root_node(inst_a), inst_a)
    parent = next(k for k in below if k.insertion.placements[0].item_id == 1)
    moves_a = [
        m for m in enumerate_insertions(parent, inst_a) if m.depth == 2 and m.placements
    ]
    assert moves_a
    a_forbidden = all(not symmetry_allows(parent, m, inst_a) for m in moves_a)

    # (b) same, with a defect in the lower shelf's spare region: allowed
    inst_b = make_instance(
        [(2000, 1000), (1750, 2000)],
        chains=[[0], [1]],
        params=params,
        defects=[Defect(0, 1800, 800, 150, 200)],
    )
    below = children(root_node(inst_b), inst_b)
    parent = next(k for k in below if k.insertion.placements[0].item_id == 1)
    moves_b = [
        m for m in enumerate_insertions(parent, inst_b) if m.depth == 2 and m.placements
    ]
    assert moves_b
    b_allowed = all(symmetry_allows(parent, m, inst_b) for m in moves_b)

    # (c) chain between the lower item and the upper shelf's later item: allowed
    inst_c = make_instance(
        [(1000, 1000), (3000, 2000), (1000, 1000)],
        chains=[[0], [1, 2]],
        params=params,
    )
    parent = next(
        k
        for k in children(root_node(inst_c), inst_c)
        if k.insertion.placements[0].item_id == 1
    )
    shelf_open = [
        m for m in enumerate_insertions(parent, inst_c)
        if m.depth == 2 and m.placements and m.placements[0].item_id == 0
    ]
    assert shelf_open
    opened = next(
        k
        for k in children(parent, inst_c, use_symmetry=True)
        if k.insertion.depth == 2 and k.insertion.placements
        and k.insertion.placements[0].item_id == 0
    )
    closing = [
        m
        for m in enumerate_insertions(opened, inst_c)
        if m.depth == 3 and m.placements and m.placements[0].item_id == 2
    ]
    assert closing and all(m.completes for m in closing)
    c_allowed = all(symmetry_allows(opened, m, inst_c) for m in closing)

    verdicts = {"a": a_forbidden, "b": b_allowed, "c": c_allowed}
    ok = all(verdicts.values())
    _emit(8, "symmetry patterns", "PASS" if ok else "FAIL",
          "a=forbidden, b=allowed, c=allowed" if ok else str(verdicts))
    assert a_forbidden and b_allowed and c_allowed
