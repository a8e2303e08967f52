"""Scaled times and the waste charged for an unsolved instance."""

import itertools

import pytest

import speed
from checks import Repetition
from run import Sample, end_to_end


def test_scaled_time_uses_the_probes_on_both_sides(monkeypatch):
    probes = itertools.chain([0.004], itertools.repeat(0.012))
    monkeypatch.setattr(speed, "probe", lambda: next(probes))
    clock = speed.ReferenceClock()
    result, wall, scaled = clock.timed(lambda: 42)
    assert result == 42
    # the machine ran at half the reference speed on average: (4 + 12) / 2 = 8 ms
    assert scaled == wall * 0.004 / 0.008
    assert clock.probes == [0.004, 0.012]


def test_the_probe_uses_no_program_code():
    assert 0 < speed.probe() < 1.0
    with open(speed.__file__, encoding="utf-8") as f:
        assert "glasscut" not in f.read()


def sample(index, waste, item_area=100):
    return Sample(index, item_area, [0.1], [0.05], 2.0, 1.0, 0.0, None, [],
                  Repetition(index, waste, 10, "exhausted"))


def test_an_unsolved_instance_makes_waste_worse_not_better():
    solved = end_to_end([sample(0, 10), sample(1, 30)], fixed_work=True)
    assert solved["waste_pct"] == pytest.approx(20)
    # dropping the unsolved instance would give 10 / 100 = 10%, better than 20%
    with_unsolved = end_to_end([sample(0, 10), sample(1, None)], fixed_work=True)
    assert with_unsolved["waste_pct"] == pytest.approx(55)  # charged 100 of waste
    assert with_unsolved["solve_s"] == 2 and with_unsolved["wall_solve_s"] == 4
    # a wall-clock budget is not scaled
    assert end_to_end([sample(0, 10)], fixed_work=False)["solve_s"] == 2.0
