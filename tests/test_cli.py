"""End-to-end command line runs on generated instance files."""

import os
import random
import subprocess
import sys

import pytest

import glasscut
from glasscut import cli
from glasscut.branching import child_memo
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


# Two items in one chain, and the solution `solve -p two -t 5 --threads 1`
# writes for them
TWO_BATCH = """ITEM_ID;LENGTH;WIDTH;STACK;SEQUENCE
0;300;200;0;0
1;250;400;1;0
"""
TWO_SOLUTION = """PLATE_ID;NODE_ID;X;Y;WIDTH;HEIGHT;TYPE;CUT;PARENT
0;0;0;0;6000;3210;-2;0;
0;1;0;0;300;3210;-2;1;0
0;2;0;0;300;200;0;2;1
0;3;0;200;300;400;-2;2;1
0;4;0;200;250;400;1;3;3
0;5;250;200;50;400;-1;3;3
0;6;0;600;300;2610;-1;2;1
0;7;300;0;5700;3210;-3;1;0
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

    def test_challenge_compat_sleeps_out_a_huge_limit_in_slices(
            self, instance_dir, capsys, monkeypatch):
        slept = []

        class Woken(Exception):
            pass

        def sleep(seconds):
            if seconds > 1e9:  # as time.sleep past the platform's time_t
                raise OverflowError("timestamp out of range for platform time_t")
            slept.append(seconds)
            if len(slept) == 3:
                raise Woken

        monkeypatch.setattr(cli.time, "sleep", sleep)
        out = instance_dir / "compat.csv"
        with pytest.raises(Woken):
            run(["solve", "-p", str(instance_dir / "toy"), "-t", "1e308", "-o", str(out),
                 "--threads", "1", "--challenge-compat"])
        assert out.exists()
        assert slept == [cli._SLEEP_SLICE_S] * 3

    def test_missing_instance_fails(self, tmp_path, capsys):
        code = run(["solve", "-p", str(tmp_path / "nope"), "-t", "1"])
        assert code == 1

    def test_output_in_a_missing_directory_fails_before_the_search(
            self, instance_dir, capsys, monkeypatch):
        monkeypatch.setattr(cli, "portfolio_solve", lambda *a, **k: pytest.fail("searched"))
        out = instance_dir / "missing" / "toy_solution.csv"
        code = run(["solve", "-p", str(instance_dir / "toy"), "-t", "3600", "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: BAD_OUTPUT no such directory")
        assert not out.parent.exists()

    def test_output_that_is_a_directory_fails_before_the_search(
            self, instance_dir, capsys, monkeypatch):
        monkeypatch.setattr(cli, "portfolio_solve", lambda *a, **k: pytest.fail("searched"))
        code = run(["solve", "-p", str(instance_dir / "toy"), "-t", "3600", "-o",
                    str(instance_dir)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: BAD_OUTPUT is a directory")

    def test_empty_batch_rejected(self, tmp_path, capsys):
        (tmp_path / "void_batch.csv").write_text("ITEM_ID;LENGTH;WIDTH;STACK;SEQUENCE\n")
        code = run(["solve", "-p", str(tmp_path / "void"), "-t", "1"])
        assert code == 1
        assert "NO_ITEMS" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--algorithm", "mbastar", "--queue-size-init", "5000", "--node-cap", "1000"],
        ["--algorithm", "ibs", "--node-cap", "1"],
    ])
    def test_a_search_stopped_before_any_expansion_says_why(
            self, instance_dir, capsys, flags):
        """The first capacity or beam width is already over the cap, so no
        node could be expanded: the MBA* portfolio is refused before it
        starts, and IBS expands nothing and names the outcome."""
        out = instance_dir / "none.csv"
        code = run(["solve", "-p", str(instance_dir / "toy"), "-t", "5", "-o", str(out),
                    "--threads", "1"] + flags)
        assert code == 1
        err = capsys.readouterr().err
        if "mbastar" in flags:
            assert err.startswith("error: BAD_ARGS --queue-size-init 5000 is above --node-cap ")
        else:
            assert err.startswith("error: no feasible solution found: search outcome memory, "
                                  "0 nodes expanded; ")
        assert "--node-cap" in err
        assert not out.exists()

    @pytest.mark.parametrize("prefix, algorithm", [
        ("toy", "mbastar"), ("three_chains", "mbastar"), ("three_chains", "auto"),
        ("three_chains", "dpastar")])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_first_capacity_over_the_node_cap_fails_before_the_search(
            self, instance_dir, capsys, monkeypatch, prefix, algorithm, threads):
        """Where the MBA* portfolio runs, a --queue-size-init above
        --node-cap is refused before any worker starts: also under
        ``dpastar`` on three chains, which DPA* refuses and hands to MBA*."""
        (instance_dir / "three_chains_batch.csv").write_text(
            BATCH + "4;500;400;2;1\n")
        monkeypatch.setattr(cli, "portfolio_solve", lambda *a, **k: pytest.fail("searched"))
        out = instance_dir / "none.csv"
        code = run(["solve", "-p", str(instance_dir / prefix), "-t", "5", "-o", str(out),
                    "--threads", threads, "--algorithm", algorithm,
                    "--queue-size-init", "5000", "--node-cap", "1000"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: BAD_ARGS --queue-size-init 5000 is above --node-cap 1000: "
            "no MBA* worker could expand a node\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--algorithm", "auto"], ["--algorithm", "mbastar", "--queue-size-init", "1000"]])
    def test_a_first_capacity_within_the_node_cap_or_dpa_star_searches(
            self, instance_dir, capsys, flags):
        """``auto`` on two chains runs DPA*, which has no first capacity,
        and a first capacity equal to the cap is allowed."""
        out = instance_dir / "ok.csv"
        code = run(["solve", "-p", str(instance_dir / "toy"), "-t", "5", "-o", str(out),
                    "--threads", "1", "--queue-size-init", "5000", "--node-cap", "1000"] + flags)
        assert code == 0
        assert out.exists()
        capsys.readouterr()

    def test_explicit_algorithms(self, instance_dir, capsys, tmp_path):
        for algo in ("mbastar", "astar", "ibs", "dpastar"):
            out = tmp_path / f"{algo}.csv"
            code = run(
                ["solve", "-p", str(instance_dir / "toy"), "-t", "3",
                 "-o", str(out), "--threads", "1", "--algorithm", algo]
            )
            assert code == 0, algo
            code = run(["validate", "-p", str(instance_dir / "toy"), "-s", str(out)])
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

    @pytest.mark.parametrize("edits, violations", [
        ({5: "-5", 6: "-5"}, ["NODE_TYPE: TYPE -5 is not an item id, -1, -2 or -3 [nodes 5]",
                              "NODE_TYPE: TYPE -5 is not an item id, -1, -2 or -3 [nodes 6]"]),
        ({3: "-1"}, ["NODE_TYPE: a waste or residual piece cannot have children [nodes 3]"]),
    ], ids=["unknown-type", "waste-with-children"])
    def test_a_tree_whose_waste_sum_breaks_lists_its_violations(self, tmp_path, edits,
                                                               violations):
        """The solution ``solve -p two --threads 1`` writes for TWO_BATCH,
        with TYPEs changed (node id: TYPE) so that the objective's formula
        and its waste-leaf sum would disagree: exit 1, the violations, no
        traceback."""
        (tmp_path / "two_batch.csv").write_text(TWO_BATCH)
        rows = [line.split(";") for line in TWO_SOLUTION.splitlines()]
        for node_id, node_type in edits.items():
            rows[node_id + 1][6] = node_type
        solution = tmp_path / "sol.csv"
        solution.write_text("".join(";".join(row) + "\n" for row in rows))
        done = subprocess.run(
            [sys.executable, "-m", "glasscut.cli", "validate", "-p", str(tmp_path / "two"),
             "-s", str(solution)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(glasscut.__file__))},
        )
        assert done.returncode == 1
        assert done.stdout.splitlines() == violations
        assert done.stderr == ""

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate"])  # missing required flags
        assert exc.value.code == 2


class TestByteOrderMark:
    def test_files_that_start_with_the_mark_load(self, instance_dir, capsys):
        # a UTF-8 byte-order mark, as spreadsheet exports write, on all three files
        for name in ("toy_batch.csv", "toy_defects.csv"):
            path = instance_dir / name
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        out = instance_dir / "toy_solution.csv"
        prefix = str(instance_dir / "toy")
        assert run(["solve", "-p", prefix, "-t", "5", "-o", str(out), "--threads", "1"]) == 0
        waste = capsys.readouterr().out.strip().split(",")[1]
        out.write_bytes(b"\xef\xbb\xbf" + out.read_bytes())
        assert run(["validate", "-p", prefix, "-s", str(out)]) == 0
        assert capsys.readouterr().out == f"feasible, objective {waste}\n"


class TestBadInput:
    """Bad input ends with an exit code and a message, never a traceback."""

    @pytest.mark.parametrize("flags", [
        ["--growth", "1", "--threads", "2", "--algorithm", "mbastar"],
        ["--growth", "abc", "--threads", "1", "--algorithm", "mbastar"],
        ["--queue-size-init", "0", "--threads", "1", "--algorithm", "mbastar"],
        ["--threads", "0"],
        ["--threads", "-2"],
        ["--threads", "abc"],
        ["--node-cap", "0", "--threads", "1"],
        ["--node-cap", "-3", "--threads", "1"],
        ["-t", "0", "--threads", "1"],
        ["-t", "-1", "--threads", "1"],
        ["-t", "inf", "--threads", "1"],
        ["-t", "abc", "--threads", "1"],
    ])
    def test_solve_rejects_bad_search_settings(self, instance_dir, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "-p", str(instance_dir / "toy"), "-t", "1",
                 "-o", str(instance_dir / "out.csv")] + flags)
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_bench_rejects_a_bad_growth_factor(self, instance_dir, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["bench", "--dir", str(instance_dir), "-t", "1",
                 "-o", str(tmp_path / "r.csv"), "--growth", "abc"])
        assert exc.value.code == 2
        assert "--growth" in capsys.readouterr().err

    @pytest.mark.parametrize("limit", ["0", "-1", "inf"])
    def test_bench_rejects_a_time_limit_of_zero_or_less(self, instance_dir, capsys, tmp_path,
                                                        limit):
        results = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as exc:
            run(["bench", "--dir", str(instance_dir), "-t", limit, "-o", str(results)])
        assert exc.value.code == 2
        assert "-t/--time-limit" in capsys.readouterr().err
        assert not results.exists()

    def test_bench_reports_bad_plate_params(self, instance_dir, capsys, tmp_path):
        results = tmp_path / "r.csv"
        code = run(["bench", "--dir", str(instance_dir), "-t", "1", "-o", str(results),
                    "--min1", "0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: BAD_PARAMS ")
        assert not results.exists()

    @pytest.mark.parametrize("command", ["solve", "validate"])
    def test_non_finite_defect_is_a_parse_error(self, instance_dir, capsys, command):
        (instance_dir / "toy_defects.csv").write_text(DEFECTS.replace("2500.5", "nan"))
        code = run([command, "-p", str(instance_dir / "toy"),
                    "-o" if command == "solve" else "-s", str(instance_dir / "out.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: PARSE line 2: non-finite")

    @pytest.mark.parametrize("command, bad_file", [
        ("solve", "toy_batch.csv"),
        ("solve", "toy_defects.csv"),
        ("validate", "toy_batch.csv"),
        ("validate", "sol.csv"),
    ])
    def test_a_file_that_is_not_utf8_is_a_parse_error(self, instance_dir, command, bad_file):
        solution = instance_dir / "sol.csv"
        solution.write_text("PLATE_ID;NODE_ID;X;Y;WIDTH;HEIGHT;TYPE;CUT;PARENT\n")
        path = instance_dir / bad_file
        path.write_bytes(path.read_bytes() + b"\xff\xfe\n")
        argv = [command, "-p", str(instance_dir / "toy")]
        if command == "solve":
            argv += ["-o", str(instance_dir / "out.csv"), "-t", "1", "--threads", "1"]
        else:
            argv += ["-s", str(solution)]
        done = subprocess.run(
            [sys.executable, "-m", "glasscut.cli"] + argv,
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(glasscut.__file__))},
        )
        assert done.returncode == 1
        assert done.stderr == f"error: PARSE {path} is not UTF-8 text\n"
        assert "Traceback" not in done.stderr + done.stdout

    def test_bench_reports_a_malformed_instance(self, instance_dir, capsys, tmp_path):
        (instance_dir / "bad_batch.csv").write_text("ITEM_ID;LENGTH\n0;x\n")
        results = tmp_path / "r.csv"
        code = run(["bench", "--dir", str(instance_dir), "-t", "1", "-o", str(results)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: bad: ")
        assert not results.exists()  # stopped before the first run

    def test_bench_output_in_a_missing_directory_fails_before_any_run(
            self, instance_dir, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "portfolio_solve", lambda *a, **k: pytest.fail("searched"))
        results = tmp_path / "missing" / "results.csv"
        code = run(["bench", "--dir", str(instance_dir), "-t", "1", "-o", str(results)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: BAD_OUTPUT no such directory")
        assert not results.parent.exists()

    def test_bench_names_every_instance_it_cannot_find_before_any_run(
            self, tmp_path, capsys, monkeypatch):
        """A misspelt ``--instances`` name fails the command, although
        another name matches, before any search and before the output file
        is opened."""
        (tmp_path / "two_batch.csv").write_text(TWO_BATCH)
        monkeypatch.setattr(cli, "portfolio_solve", lambda *a, **k: pytest.fail("searched"))
        results = tmp_path / "results.csv"
        code = run(["bench", "--dir", str(tmp_path), "-t", "1", "-o", str(results),
                    "--instances", "two", "tow", "owt"])
        assert code == 1
        assert capsys.readouterr().err == f"error: BAD_ARGS no instance tow owt in {tmp_path}\n"
        assert not results.exists()

    def test_bench_on_a_directory_without_instances_says_so(self, tmp_path, capsys,
                                                            monkeypatch):
        (tmp_path / "notes_defects.csv").write_text("DEFECT_ID;PLATE_ID;X;Y;WIDTH;HEIGHT\n")
        monkeypatch.setattr(cli, "portfolio_solve", lambda *a, **k: pytest.fail("searched"))
        code = run(["bench", "--dir", str(tmp_path), "-t", "1", "-o", str(tmp_path / "r.csv")])
        assert code == 1
        assert capsys.readouterr().err == "error: no instances found\n"
        assert not (tmp_path / "r.csv").exists()

    def test_bench_reports_a_missing_directory(self, tmp_path, capsys):
        code = run(["bench", "--dir", str(tmp_path / "nope"), "-o", str(tmp_path / "r.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")


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

    def test_every_run_starts_without_cached_children(self, tmp_path, capsys, monkeypatch):
        """Each (algorithm, guide, symmetry) run searches an instance whose
        child memo is empty, although the runs before it filled the memo
        of the same loaded instance."""
        rng = random.Random(24)
        rows = ["ITEM_ID;LENGTH;WIDTH;STACK;SEQUENCE"]
        for item in range(24):
            rows.append(f"{item};{rng.randint(150, 1800)};{rng.randint(150, 1400)};"
                        f"{item % 8};{item // 8}")
        (tmp_path / "eight_batch.csv").write_text("\n".join(rows) + "\n")
        solve, memo_sizes = cli.portfolio_solve, []

        def recorded_solve(instance, *args, **kwargs):
            memo_sizes.append(len(child_memo(instance)))
            out = solve(instance, *args, **kwargs)
            memo_sizes.append(len(child_memo(instance)))
            return out

        monkeypatch.setattr(cli, "portfolio_solve", recorded_solve)
        code = run(["bench", "--dir", str(tmp_path), "-t", "0.5", "-o",
                    str(tmp_path / "results.csv"), "--guides", "p", "a", "--symmetry", "both"])
        assert code == 0
        at_start, at_end = memo_sizes[::2], memo_sizes[1::2]
        assert len(at_start) == 4 and at_start == [0, 0, 0, 0]
        assert all(size > 0 for size in at_end)
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
