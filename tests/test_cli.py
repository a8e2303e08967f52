"""End-to-end command line runs on generated instance files."""

import os
import subprocess
import sys

import pytest

import glasscut
from glasscut.cli import build_parser, main
from glasscut.fileio import read_solution
from glasscut.validator import validate

BATCH = """ITEM_ID;LENGTH;WIDTH;STACK;SEQUENCE
0;2000;1500;0;1
1;1200;800;0;2
2;900;1100;1;1
3;700;600;1;2
"""

DEFECTS = """DEFECT_ID;PLATE_ID;X;Y;WIDTH;HEIGHT
0;0;2500.5;1000.0;40.0;35.5
"""


@pytest.fixture
def instance_dir(tmp_path):
    (tmp_path / "toy_batch.csv").write_text(BATCH)
    (tmp_path / "toy_defects.csv").write_text(DEFECTS)
    return tmp_path


def run(argv):
    return main(argv)


class TestSolve:
    def test_solve_writes_validating_solution(self, instance_dir, capsys):
        out = instance_dir / "toy_solution.csv"
        code = run(
            ["solve", "-p", str(instance_dir / "toy"), "-t", "5", "-o", str(out),
             "--threads", "1"]
        )
        assert code == 0
        printed = capsys.readouterr().out.strip()
        name, waste, t_best = printed.split(",")
        assert name == "toy"
        assert out.exists()
        code = run(
            ["validate", "-p", str(instance_dir / "toy"), "-s", str(out)]
        )
        assert code == 0
        assert f"objective {waste}" in capsys.readouterr().out

    def test_seed_flag_accepted_and_ignored(self, instance_dir, capsys):
        out = instance_dir / "s.csv"
        code = run(
            ["solve", "-p", str(instance_dir / "toy"), "-t", "3", "-o", str(out),
             "--threads", "1", "--seed", "123"]
        )
        assert code == 0

    def test_single_thread_runs_are_identical(self, instance_dir, capsys, tmp_path):
        outputs = []
        for i in range(2):
            out = tmp_path / f"run{i}.csv"
            code = run(
                ["solve", "-p", str(instance_dir / "toy"), "-t", "3",
                 "-o", str(out), "--threads", "1", "--guide", "p",
                 "--growth", "1.5"]
            )
            assert code == 0
            outputs.append(out.read_text())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_missing_instance_fails(self, tmp_path, capsys):
        code = run(["solve", "-p", str(tmp_path / "nope"), "-t", "1"])
        assert code == 1

    def test_empty_batch_rejected(self, tmp_path, capsys):
        (tmp_path / "void_batch.csv").write_text("ITEM_ID;LENGTH;WIDTH;STACK;SEQUENCE\n")
        code = run(["solve", "-p", str(tmp_path / "void"), "-t", "1"])
        assert code == 1
        assert "NO_ITEMS" in capsys.readouterr().err

    def test_explicit_algorithms(self, instance_dir, capsys, tmp_path):
        for algo in ("mbastar", "astar", "ibs"):
            out = tmp_path / f"{algo}.csv"
            code = run(
                ["solve", "-p", str(instance_dir / "toy"), "-t", "3",
                 "-o", str(out), "--threads", "1", "--algorithm", algo]
            )
            assert code == 0, algo
        capsys.readouterr()

    def test_worker_processes_under_spawn(self, instance_dir, capsys):
        out = instance_dir / "spawn.csv"
        script = (
            "import multiprocessing, sys\n"
            "multiprocessing.set_start_method('spawn')\n"
            "from glasscut.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, "solve", "-p", str(instance_dir / "toy"),
             "-t", "20", "-o", str(out), "--threads", "2", "--algorithm", "mbastar"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(glasscut.__file__))},
        )
        assert done.returncode == 0, done.stderr
        assert run(["validate", "-p", str(instance_dir / "toy"), "-s", str(out)]) == 0

    def test_default_worker_count_follows_the_cpus(self):
        args = build_parser().parse_args(["solve", "-p", "x"])
        assert args.threads == min(4, os.cpu_count() or 1)


class TestValidateCommand:
    def test_corrupted_item_dimensions_rejected(self, instance_dir, capsys, tmp_path):
        out = tmp_path / "sol.csv"
        assert run(
            ["solve", "-p", str(instance_dir / "toy"), "-t", "5", "-o", str(out),
             "--threads", "1"]
        ) == 0
        capsys.readouterr()
        tree = read_solution(str(out))
        victim = next(n for n in tree.nodes if n.type >= 0)
        victim.width -= 1
        from glasscut.fileio import write_solution

        write_solution(tree, str(out))
        code = run(["validate", "-p", str(instance_dir / "toy"), "-s", str(out)])
        assert code == 1
        assert "wrong item dimensions" in capsys.readouterr().out

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate"])  # missing required flags
        assert exc.value.code == 2


class TestBench:
    def test_rows_appended(self, instance_dir, capsys, tmp_path):
        results = tmp_path / "results.csv"
        code = run(
            ["bench", "--dir", str(instance_dir), "-t", "2", "-o", str(results),
             "--algos", "mbastar", "--guides", "p"]
        )
        assert code == 0
        lines = results.read_text().splitlines()
        assert lines[0] == "instance,algorithm,guide,growth,waste,time_to_best"
        assert len(lines) == 2
        name, algo, guide, growth, waste, t_best = lines[1].split(",")
        assert (name, algo, guide, growth) == ("toy", "mbastar+sym", "p", "1.5")
        assert int(waste) > 0
        capsys.readouterr()

    def test_symmetry_both_doubles_rows(self, instance_dir, capsys, tmp_path):
        results = tmp_path / "results.csv"
        code = run(
            ["bench", "--dir", str(instance_dir), "-t", "1", "-o", str(results),
             "--algos", "ibs", "--guides", "w", "--symmetry", "both"]
        )
        assert code == 0
        lines = results.read_text().splitlines()
        assert len(lines) == 3
        assert {l.split(",")[1] for l in lines[1:]} == {"ibs+sym", "ibs+nosym"}
        capsys.readouterr()
