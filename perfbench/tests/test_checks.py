"""The output check must be able to fail."""

from glasscut import fileio
from glasscut.model import root_node

import checks
from checks import Repetition, check_fixed_work, check_solution, failed_count
from generator import Profile, write_instance
from speed import ReferenceClock
from workloads import solve_mba_schedule

SMALL = Profile(8, 3)


def solved(tmp_path):
    instance = fileio.load_instance(write_instance(str(tmp_path / "inst"), "checks/1", SMALL))
    result = solve_mba_schedule(instance, root_node(instance), 60.0, ReferenceClock())
    return instance, result.incumbent


def repetition(incumbent, waste=None):
    return Repetition(0, incumbent.waste if waste is None else waste, 1, "exhausted")


def test_a_correct_solution_passes(tmp_path):
    instance, incumbent = solved(tmp_path)
    rep = repetition(incumbent)
    assert check_solution(instance, incumbent.leaf, rep, str(tmp_path / "sol.csv")) > 0
    assert rep.failure is None and not rep.wrong_output


def test_a_corrupted_solution_file_fails(tmp_path, monkeypatch):
    instance, incumbent = solved(tmp_path)
    write = fileio.write_solution

    def write_then_corrupt(tree, path):
        write(tree, path)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines[1:], start=1):
            fields = line.split(";")
            if int(fields[6]) >= 0:  # an item: make it 1 mm narrower
                fields[4] = str(int(fields[4]) - 1)
                lines[i] = ";".join(fields)
                break
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")

    monkeypatch.setattr(checks.fileio, "write_solution", write_then_corrupt)
    rep = repetition(incumbent)
    check_solution(instance, incumbent.leaf, rep, str(tmp_path / "sol.csv"))
    assert rep.failure.startswith("validator") and rep.wrong_output
    assert failed_count([rep]) == 1


def test_a_wrong_waste_and_a_missing_solution_fail(tmp_path):
    instance, incumbent = solved(tmp_path)
    wrong = repetition(incumbent, waste=incumbent.waste + 1)
    check_solution(instance, incumbent.leaf, wrong, str(tmp_path / "sol.csv"))
    assert wrong.failure.startswith("objective_of") and wrong.wrong_output
    missing = Repetition(0, None, 1, "exhausted")
    check_solution(instance, None, missing, str(tmp_path / "none.csv"))
    # no answer is a failure, but not a wrong answer
    assert missing.failure == "no solution" and not missing.wrong_output


def test_mismatched_and_unfinished_repetitions_fail():
    reps = [
        Repetition(0, 100, 50, "exhausted"),
        Repetition(0, 100, 50, "exhausted"),
        Repetition(1, 100, 50, "exhausted"),
        Repetition(1, 100, 51, "exhausted"),  # nodes expanded differ
        Repetition(2, 90, 7, "exhausted"),
        Repetition(2, 91, 7, "exhausted"),  # waste differs
        Repetition(3, 80, 4, "timeout"),  # cut short: failed, not compared
        Repetition(3, 80, 9, "exhausted"),
        Repetition(4, 70, 9, "memory"),
    ]
    check_fixed_work(reps)
    assert [rep.failure is not None for rep in reps] == [
        False, False, True, True, True, True, True, False, True]
    assert [rep.wrong_output for rep in reps] == [
        False, False, True, True, True, True, False, False, False]
    assert failed_count(reps) == 6
