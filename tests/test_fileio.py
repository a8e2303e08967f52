"""Challenge CSV formats: parsing, writing, round-trips."""

import io
import random

import pytest

from glasscut.fileio import (
    load_instance,
    parse_batch,
    parse_defects,
    read_solution,
    write_solution,
)
from glasscut.model import InstanceError, Params, ParseError, SolutionError
from glasscut.solution import (
    SolutionTree,
    TreeNode,
    TYPE_BRANCH,
    TYPE_RESIDUAL,
    TYPE_WASTE,
    build_solution_tree,
)

from conftest import dfs_best_leaf, random_small_instance


def batch_text(rows):
    return "ITEM_ID;LENGTH;WIDTH;STACK;SEQUENCE\n" + "".join(
        f"{r[0]};{r[1]};{r[2]};{r[3]};{r[4]}\n" for r in rows
    )


class TestParseBatch:
    def test_field_mapping(self):
        items = parse_batch(io.StringIO(batch_text([(0, 1500, 500, 0, 1)])))
        assert len(items) == 1
        it = items[0]
        assert (it.id, it.width, it.height, it.chain_id, it.chain_rank) == (
            0, 500, 1500, 0, 1,
        )

    def test_empty_body_gives_empty_list(self):
        assert parse_batch(io.StringIO(batch_text([]))) == []

    def test_crlf_accepted(self):
        text = batch_text([(0, 100, 100, 0, 1)]).replace("\n", "\r\n")
        assert len(parse_batch(io.StringIO(text))) == 1

    def test_missing_header(self):
        with pytest.raises(ParseError, match="PARSE"):
            parse_batch(io.StringIO("0;1;2;3;4\n"))

    def test_non_integer_field(self):
        with pytest.raises(ParseError, match="PARSE"):
            parse_batch(io.StringIO(batch_text([(0, "x", 500, 0, 1)])))

    def test_noncontiguous_ids(self):
        with pytest.raises(ParseError, match="NONCONTIGUOUS_IDS"):
            parse_batch(io.StringIO(batch_text([(0, 100, 100, 0, 1), (2, 100, 100, 0, 2)])))

    def test_a_leading_byte_order_mark_is_dropped(self):
        # spreadsheet exports start UTF-8 files with U+FEFF
        items = parse_batch(io.StringIO("\ufeff" + batch_text([(0, 1500, 500, 0, 1)])))
        assert [(it.id, it.width, it.height) for it in items] == [(0, 500, 1500)]

    def test_only_one_byte_order_mark_is_dropped(self):
        with pytest.raises(ParseError, match="wrong batch header"):
            parse_batch(io.StringIO("\ufeff\ufeff" + batch_text([(0, 1500, 500, 0, 1)])))

    def test_duplicate_sequence_in_stack(self, tmp_path):
        # the parser keeps both items; the instance rejects the repeated rank
        (tmp_path / "inst_batch.csv").write_text(
            batch_text([(0, 100, 100, 0, 1), (1, 100, 100, 0, 1)]))
        with pytest.raises(ParseError, match="DUPLICATE_SEQUENCE stack 0 repeats rank 1"):
            load_instance(tmp_path / "inst")


def defects_text(rows):
    return "DEFECT_ID;PLATE_ID;X;Y;WIDTH;HEIGHT\n" + "".join(
        ";".join(str(v) for v in r) + "\n" for r in rows
    )


class TestParseDefects:
    def test_fractional_rounds_to_enclosing_rectangle(self):
        per_plate = parse_defects(
            io.StringIO(defects_text([(0, 3, 100.5, 200.0, 2.0, 3.0)])), Params()
        )
        (d,) = per_plate[3]
        assert (d.x, d.y, d.width, d.height) == (100, 200, 3, 3)

    def test_missing_file_means_no_defects(self, tmp_path):
        batch = tmp_path / "inst_batch.csv"
        batch.write_text(batch_text([(0, 100, 100, 0, 1)]))
        inst = load_instance(tmp_path / "inst")
        assert inst.defects == {}

    def test_out_of_plate(self):
        with pytest.raises(ParseError, match="OUT_OF_PLATE"):
            parse_defects(
                io.StringIO(defects_text([(0, 0, 5995.0, 100.0, 10.0, 10.0)])), Params()
            )

    def test_negative_plate_id_is_out_of_plate(self):
        with pytest.raises(ParseError, match="OUT_OF_PLATE line 2: PLATE_ID -1 is negative"):
            parse_defects(io.StringIO(defects_text([(0, -1, 100.0, 100.0, 10.0, 10.0)])), Params())
        (d,) = parse_defects(
            io.StringIO(defects_text([(0, 0, 100.0, 100.0, 10.0, 10.0)])), Params())[0]
        assert d.plate_index == 0

    @pytest.mark.parametrize("geometry", [
        ("nan", 10, 5, 5), (10, "inf", 5, 5), (10, 10, "-inf", 5), (10, 10, 5, "1e309"),
        (1e308, 10, 1e308, 5),  # finite fields whose far edge is not
    ])
    def test_non_finite_geometry_rejected(self, geometry):
        with pytest.raises(ParseError, match="non-finite"):
            parse_defects(io.StringIO(defects_text([(0, 0) + geometry])), Params())

    def test_overlapping_defects_rejected(self, tmp_path):
        # the parser keeps both defects; the instance rejects the overlap
        rows = [(0, 0, 100.0, 100.0, 50.0, 50.0), (1, 0, 120.0, 120.0, 50.0, 50.0)]
        assert len(parse_defects(io.StringIO(defects_text(rows)), Params())[0]) == 2
        (tmp_path / "inst_batch.csv").write_text(batch_text([(0, 100, 100, 0, 1)]))
        (tmp_path / "inst_defects.csv").write_text(defects_text(rows))
        with pytest.raises(InstanceError, match="BAD_DEFECT overlapping defects on plate 0"):
            load_instance(tmp_path / "inst")


SOLUTION_HEADER = "PLATE_ID;NODE_ID;X;Y;WIDTH;HEIGHT;TYPE;CUT;PARENT\n"


class TestBadRows:
    """Each malformed row or header gives a ``ParseError`` that names it."""

    @pytest.mark.parametrize("parse, text, message", [
        (parse_batch, batch_text([(0, 100, 100, 0, 1)]) + "1;100;100;0\n",
         "PARSE line 3: expected 5 fields, got 4"),
        (parse_defects, "0;0;10;10;5;5\n", "PARSE missing or wrong defects header"),
        (parse_defects, defects_text([(0, 0, 10, 10, 5)]), "PARSE line 2: expected 6 fields, got 5"),
        (parse_defects, defects_text([(0, 0, 10, "x", 5, 5)]),
         "PARSE line 2: non-numeric defect geometry"),
        (read_solution, "0;0;0;0;6000;3210;-3;0;\n", "PARSE missing or wrong solution header"),
        (read_solution, SOLUTION_HEADER + "0;0;0;0;6000;3210;-2;0\n",
         "PARSE line 2: expected 9 fields, got 8"),
        (read_solution, SOLUTION_HEADER + "0;0;0;0;6000;3210;-2;0;\n0;2;0;0;3000;3210;-1;1;0\n"
         "0;1;3000;0;3000;3210;-3;1;0\n", "PARSE node ids must increase (node 1)"),
    ])
    def test_the_error_names_the_fault(self, parse, text, message):
        args = (Params(),) if parse is parse_defects else ()
        with pytest.raises(ParseError) as exc:
            parse(io.StringIO(text), *args)
        assert str(exc.value) == message

    @pytest.mark.parametrize("parse, text, message", [
        (parse_batch, "ITEM_ID;LENGTH;WIDTH;STACK;SEQUENCE\n\n0;100;100;0;1\n\n1;abc;100;0;2\n",
         "PARSE line 5: LENGTH 'abc' is not an integer"),
        (parse_defects, "DEFECT_ID;PLATE_ID;X;Y;WIDTH;HEIGHT\r\n\r\n  \r\n0;0;10;10;5\r\n",
         "PARSE line 4: expected 6 fields, got 5"),
        (read_solution, "\n" + SOLUTION_HEADER + "\n0;0;0;0;6000;3210;-2;0;\n0;1;0;0;6000;3210\n",
         "PARSE line 5: expected 9 fields, got 6"),
    ], ids=["batch", "defects", "solution"])
    def test_the_error_cites_the_line_of_the_file(self, parse, text, message):
        """Blank lines are skipped but still counted, so the line an error
        names is the one an editor shows."""
        args = (Params(),) if parse is parse_defects else ()
        with pytest.raises(ParseError) as exc:
            parse(io.StringIO(text), *args)
        assert str(exc.value) == message

    def test_a_defect_of_width_zero_is_an_empty_defect(self, tmp_path):
        (tmp_path / "inst_batch.csv").write_text(batch_text([(0, 100, 100, 0, 1)]))
        (tmp_path / "inst_defects.csv").write_text(defects_text([(0, 1, 10, 10, 0, 5)]))
        with pytest.raises(InstanceError, match="^BAD_DEFECT empty defect on plate 1$"):
            load_instance(tmp_path / "inst")


class TestSolutionRoundTrip:
    def test_single_plate_residual_only_rows(self):
        rows = [
            TreeNode(0, 0, 0, 0, 6000, 3210, TYPE_BRANCH, 0, None),
            TreeNode(1, 0, 0, 0, 6000, 3210, TYPE_RESIDUAL, 1, 0),
        ]
        buf = io.StringIO()
        write_solution(SolutionTree(rows), buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "PLATE_ID;NODE_ID;X;Y;WIDTH;HEIGHT;TYPE;CUT;PARENT"
        assert len(text.splitlines()) == 3
        back = read_solution(io.StringIO(text))
        assert [vars(n) for n in back.nodes] == [vars(n) for n in rows]

    def test_solver_tree_round_trips(self, rng):
        for _ in range(20):
            inst = random_small_instance(rng)
            leaf = dfs_best_leaf(inst)
            if leaf is None:
                continue
            tree = build_solution_tree(leaf, inst)
            buf = io.StringIO()
            write_solution(tree, buf)
            back = read_solution(io.StringIO(buf.getvalue()))
            assert [vars(n) for n in back.nodes] == [vars(n) for n in tree.nodes]
            again = io.StringIO()
            write_solution(back, again)
            assert again.getvalue() == buf.getvalue()

    def test_orphan_node(self):
        text = (
            "PLATE_ID;NODE_ID;X;Y;WIDTH;HEIGHT;TYPE;CUT;PARENT\n"
            "0;0;0;0;6000;3210;-2;0;\n"
            "0;1;0;0;6000;3210;-3;1;7\n"
        )
        with pytest.raises(SolutionError, match="ORPHAN_NODE"):
            read_solution(io.StringIO(text))

    def test_parent_after_child_is_parse_error(self):
        text = (
            "PLATE_ID;NODE_ID;X;Y;WIDTH;HEIGHT;TYPE;CUT;PARENT\n"
            "0;0;0;0;6000;3210;-3;1;1\n"
            "0;1;0;0;6000;3210;-2;0;\n"
        )
        with pytest.raises(ParseError, match="PARSE"):
            read_solution(io.StringIO(text))

    def test_duplicate_id(self):
        text = (
            "PLATE_ID;NODE_ID;X;Y;WIDTH;HEIGHT;TYPE;CUT;PARENT\n"
            "0;0;0;0;6000;3210;-2;0;\n"
            "0;0;0;0;6000;3210;-3;1;0\n"
        )
        with pytest.raises(SolutionError, match="DUPLICATE_ID"):
            read_solution(io.StringIO(text))


def random_format_tree(rngobj: random.Random) -> SolutionTree:
    """A structurally valid (not necessarily feasible) random cut tree."""
    W, H = 6000, 3210
    rows = [TreeNode(0, 0, 0, 0, W, H, TYPE_BRANCH, 0, None)]
    counter = [1]

    def split(node, level):
        if level >= 4 or rngobj.random() < 0.4 or node.width < 40 or node.height < 40:
            return
        vertical = level in (0, 2)
        span = node.width if vertical else node.height
        k = rngobj.randint(2, 3)
        cuts = sorted(rngobj.sample(range(20, span - 19), k - 1)) if span > 60 else []
        bounds = [0] + cuts + [span]
        node.type = TYPE_BRANCH
        for lo, hi in zip(bounds, bounds[1:]):
            if vertical:
                child = TreeNode(counter[0], node.plate_id, node.x + lo, node.y,
                                 hi - lo, node.height, TYPE_WASTE, level + 1,
                                 node.node_id)
            else:
                child = TreeNode(counter[0], node.plate_id, node.x, node.y + lo,
                                 node.width, hi - lo, TYPE_WASTE, level + 1,
                                 node.node_id)
            counter[0] += 1
            rows.append(child)
            split(child, level + 1)

    split(rows[0], 0)
    return SolutionTree(rows)


class TestRoundTripProperty:
    def test_many_random_trees(self):
        rngobj = random.Random(151)
        for _ in range(400):
            tree = random_format_tree(rngobj)
            buf = io.StringIO()
            write_solution(tree, buf)
            back = read_solution(io.StringIO(buf.getvalue()))
            assert [vars(n) for n in back.nodes] == [vars(n) for n in tree.nodes]
