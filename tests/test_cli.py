import contextlib
import io
import json
import random
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from minorkit import (
    Contract,
    EdgeDelete,
    Graph,
    VertexDelete,
    apply_edit,
    apply_edits,
    assemble_gain_matrix,
    build_tree_rep,
    flows,
    graph_from_json,
    graph_to_json,
    is_connected,
    rep_to_json,
    vector_to_json,
)
from minorkit import build as bld
from minorkit import boxes as bxs
from minorkit.boxes import grid_from_json, grid_to_json, verify_grid, witnesses_to_json
from minorkit.cli import _build_parser, _dumps, main
from minorkit.flow import GainMatrix, matrix_to_json
from minorkit.graph import edits_from_json, spanning_tree_edges
from minorkit.ratio import fmt_ratio

from helpers import (
    MALFORMED_REP_EDITS,
    boxes_json_fraction,
    coprime_boxes,
    count_fractions,
    matrix_rows_fraction,
    matrix_to_json_fraction,
    parse_targets_int,
    random_connected,
    random_cut_targets,
    random_tree,
    recover_states_fraction,
    root_trap_graph,
)


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def tree_file(tmp_path):
    g = Graph(5, [(1, 2), (1, 3), (2, 4), (2, 5)])
    return write(tmp_path / "tree.json", graph_to_json(g))


@pytest.fixture()
def flow_file(tmp_path):
    g = Graph(
        4,
        [(1, 2), (2, 3), (3, 4), (1, 4)],
        gains={5: F(1), 6: F(3, 2), 7: F(2), 8: F(1)},
    )
    return write(tmp_path / "flow.json", graph_to_json(g))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else {})


def respell(text, i):
    """Another spelling of the same rational, by position: "2/4", "-0", "5e-1" or "0.5" style."""
    v = F(text)
    num, den = v.numerator, v.denominator
    if v == 0:
        return "-0" if i % 2 else "0/3"
    if 10**6 % den == 0 and i % 3 == 1:
        return f"{num * 10**6 // den}e-6"
    if 10**6 % den == 0 and i % 3 == 2:
        return str(Decimal(num) / Decimal(den))
    return f"{2 * num}/{2 * den}"


def spellings(text):
    """The non-canonical kinds a respelled value shows."""
    kinds = set()
    if text == "-0":
        kinds.add("-0")
    if "/" in text and text != fmt_ratio(F(text)):
        kinds.add("unreduced")
    if "e" in text:
        kinds.add("exponent")
    if "." in text:
        kinds.add("decimal")
    return kinds


class TestBoxCommands:
    def test_build_then_verify(self, tmp_path, tree_file, capsys):
        rep_file = str(tmp_path / "rep.json")
        code, report = run(capsys, "box", "build", tree_file, "--strategy", "tree", "--out", rep_file)
        assert code == 0 and report["results"]["dim"] == 2
        code, report = run(capsys, "box", "verify", rep_file, tree_file)
        assert code == 0
        assert report["results"]["c1_ok"] and report["results"]["c2_ok"]

    def test_edits_pipeline_dimension(self, tmp_path, capsys):
        g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)])
        gf = write(tmp_path / "g.json", graph_to_json(g))
        trace_file = str(tmp_path / "trace.json")
        code, report = run(
            capsys, "box", "build", gf, "--strategy", "edits", "--trace-out", trace_file
        )
        # n=5, m=7 leaves r+1 = 2 deletions: dimension 2 + 2
        assert code == 0 and report["results"]["dim"] == 4
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert len(trace["steps"]) == 2

    def test_explicit_edit_list(self, tmp_path, capsys):
        g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        gf = write(tmp_path / "g.json", graph_to_json(g))
        ef = write(tmp_path / "edits.json", [{"kind": "edge_delete", "u": 1, "v": 4}])
        code, report = run(capsys, "box", "build", gf, "--strategy", "edits", "--edits", ef)
        assert code == 0 and report["results"]["dim"] == 3

    @staticmethod
    def edits_of_every_kind(g):
        """A vertex deletion that keeps g connected, a contraction, then the non-tree edges."""
        v = max(u for u in g.vertices() if is_connected(apply_edit(g, VertexDelete(u))))
        ops = [VertexDelete(v)]
        cur = apply_edit(g, ops[0])
        ops.append(Contract(*cur.edges[0]))
        cur = apply_edit(cur, ops[1])
        tree = spanning_tree_edges(cur)
        ops += [EdgeDelete(*e) for e in cur.edges if e not in tree]
        kinds = {VertexDelete: "vertex_delete", Contract: "contract", EdgeDelete: "edge_delete"}
        return [
            {"kind": kinds[type(op)], "v": op.v} if isinstance(op, VertexDelete)
            else {"kind": kinds[type(op)], "u": op.u, "v": op.v}
            for op in ops
        ]

    @pytest.mark.parametrize("source", ["tree-pipeline", "edit-list", "base-rep"])
    def test_box_path_builds_no_fractions_past_the_lifts(self, tmp_path, capsys, monkeypatch, source):
        """box build writes its last lift's grid, and box verify checks a file, on ints.

        With a witnessed --base-rep, the build reads, verifies, lifts and writes
        without a single Fraction.
        """
        g = random_connected(14, 20, random.Random(6))
        gf = write(tmp_path / "g.json", graph_to_json(g))
        rf, tf = str(tmp_path / "rep.json"), str(tmp_path / "trace.json")
        argv = ["box", "build", gf, "--strategy", "edits", "--out", rf, "--trace-out", tf]
        if source != "tree-pipeline":
            edits = self.edits_of_every_kind(g)
            argv += ["--edits", write(tmp_path / "e.json", edits)]
        if source == "base-rep":
            base = build_tree_rep(apply_edits(g, edits_from_json(edits)).base)
            argv += ["--base-rep", write(tmp_path / "base.json", rep_to_json(base))]
        made = count_fractions(monkeypatch)
        after_lift = []

        def recording(lift):
            def recorded(*args):
                out = lift(*args)
                after_lift.append(made[0])
                return out
            return recorded

        for name in ("_lift_vertex_add", "_lift_uncontract"):
            monkeypatch.setattr(bld, name, recording(getattr(bld, name)))
        code, report = run(capsys, *argv)
        assert code == 0 and report["results"]["steps"] == len(after_lift) >= 7
        assert made[0] == after_lift[-1]
        if source == "base-rep":
            assert made == [0]
        made[0] = 0
        code, report = run(capsys, "box", "verify", rf, gf)
        assert code == 0 and report["results"]["c1_ok"] and report["results"]["c2_ok"]
        assert made == [0]

    # a plane layout of the path 1-2-3-4, the base of C4 less the edge 1-4
    PATH_BOXES = {
        "1": [["0", "2/3"], ["0", "2/3"]],
        "2": [["1/3", "4/3"], ["1/3", "1"]],
        "3": [["1", "2"], ["0", "2/3"]],
        "4": [["5/3", "7/3"], ["1/3", "1"]],
    }
    PATH_WITNESSES = {
        "1": {"point": ["0", "0"], "radius": "1/4"},
        "2": {"point": ["2/3", "1"], "radius": "1/4"},
        "3": {"point": ["2", "0"], "radius": "1/4"},
        "4": {"point": ["7/3", "1"], "radius": "1/4"},
    }

    def build_on_base(self, tmp_path, capsys, base):
        """box build of C4 from the path base, by lifting the edge 1-4: (exit code, stderr, --out path)."""
        gf = write(tmp_path / "g.json", graph_to_json(Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])))
        ef = write(tmp_path / "e.json", [{"kind": "edge_delete", "u": 1, "v": 4}])
        out = tmp_path / "rep.json"
        code = main(["box", "build", gf, "--edits", ef, "--base-rep", write(tmp_path / "b.json", base),
                     "--out", str(out)])
        return code, capsys.readouterr().err, out

    @pytest.mark.parametrize("witnessed", [True, False], ids=["stored-witnesses", "swept-witnesses"])
    def test_base_rep_output(self, tmp_path, capsys, witnessed):
        base = {"dim": 2, "boxes": self.PATH_BOXES}
        if witnessed:
            base["witnesses"] = self.PATH_WITNESSES
            # the stored witnesses carry over; vertex 1's radius shrinks to 1/6 in the lifted boxes
            witnesses = {
                "1": {"point": ["0", "0", "2"], "radius": "1/6"},
                "2": {"point": ["2/3", "1", "0"], "radius": "1/4"},
                "3": {"point": ["2", "0", "2"], "radius": "1/4"},
                "4": {"point": ["2", "2", "6"], "radius": "1/4"},
            }
        else:
            # the facet sweep's cell centres, on the doubled grid of the base
            witnesses = {
                "1": {"point": ["0", "1/3", "2"], "radius": "1/6"},
                "2": {"point": ["1/3", "5/6", "0"], "radius": "1/4"},
                "3": {"point": ["1", "1/6", "2"], "radius": "1/12"},
                "4": {"point": ["2", "2", "6"], "radius": "1/4"},
            }
        code, err, out = self.build_on_base(tmp_path, capsys, base)
        assert code == 0 and err == ""
        expected = {
            "dim": 3,
            "boxes": {
                "1": [["0", "2/3"], ["0", "2/3"], ["2", "5"]],
                "2": [["1/3", "4/3"], ["1/3", "1"], ["0", "3"]],
                "3": [["1", "2"], ["0", "2/3"], ["2", "5"]],
                "4": [["0", "2"], ["0", "2"], ["4", "6"]],
            },
            "witnesses": witnesses,
        }
        assert out.read_text() == json.dumps(expected, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("boxes, message", [
        ({v: b for v, b in PATH_BOXES.items() if v != "4"}, "representation covers the wrong vertex set"),
        (PATH_BOXES | {"3": [["2/3", "2"], ["0", "2/3"]]}, "intersection pattern fails at ((1, 3, 'unexpected'),)"),
    ], ids=["wrong-vertex-set", "c1-fails"])
    def test_base_rep_rejected(self, tmp_path, capsys, boxes, message):
        code, err, out = self.build_on_base(tmp_path, capsys, {"dim": 2, "boxes": boxes})
        assert code == 1 and err == f"error: InvalidInput: pipeline base: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["tree", "threshold", "edits", "base-rep", "base-rep-no-edits"])
    def test_build_verifies_nothing_twice(self, tmp_path, capsys, monkeypatch, source):
        # every builder path certifies the grid it returns, so box build writes it with no
        # verify_grid and no C1 pass of its own: the only one is the check of a given base,
        # which is read, not built.  The file must be what box verify keeps: the verifier
        # passes it without a sweep and writes its witnesses back byte for byte
        g = random_connected(10, 14, random.Random(8))
        if source in ("tree", "base-rep-no-edits"):
            g = random_tree(10, random.Random(8))
        gf = write(tmp_path / "g.json", graph_to_json(g))
        rf = tmp_path / "rep.json"
        argv = ["box", "build", gf, "--strategy", source, "--out", str(rf)]
        if source == "threshold":
            argv = ["box", "build", "--strategy", "threshold", "--clique", "5", "--nested", "4,2",
                    "--out", str(rf), "--graph-out", gf]
        elif source == "edits":  # a contraction first: the last lift's grid is relabelled
            cur = apply_edit(g, Contract(*g.edges[0]))
            tree = spanning_tree_edges(cur)
            edits = [{"kind": "contract", "u": g.edges[0][0], "v": g.edges[0][1]}]
            edits += [{"kind": "edge_delete", "u": u, "v": v} for u, v in cur.edges if (u, v) not in tree]
            argv += ["--edits", write(tmp_path / "e.json", edits)]
        elif source != "tree":  # a base with no witnesses: they are swept when it is read
            edits = self.edits_of_every_kind(g) if source == "base-rep" else []
            base = rep_to_json(build_tree_rep(apply_edits(g, edits_from_json(edits)).base))
            del base["witnesses"]
            argv[4:5] = ["edits", "--edits", write(tmp_path / "e.json", edits),
                         "--base-rep", write(tmp_path / "b.json", base)]

        def refuse(*args):
            raise AssertionError("box build verified its certified grid again")

        c1_calls = []
        c1 = bxs._Tables.c1

        def counted(tables, edges):
            c1_calls.append(edges)
            return c1(tables, edges)

        monkeypatch.setattr("minorkit.cli.verify_grid", refuse)
        monkeypatch.setattr("minorkit.build.verify_grid", refuse)
        monkeypatch.setattr(bxs._Tables, "c1", counted)
        code, report = run(capsys, *argv)
        assert code == 0 and report["results"]["c1_ok"] and report["results"]["c2_ok"]
        monkeypatch.undo()
        assert len(c1_calls) == (1 if source.startswith("base-rep") else 0)
        written = rf.read_text()
        g = graph_from_json(json.loads(Path(gf).read_text()))
        c1, c2 = verify_grid(g, grid_from_json(json.loads(written)))
        assert c1.ok and c2.ok
        assert written == _dumps(grid_to_json(c2.rep)) + "\n"
        code, report = run(capsys, "box", "verify", str(rf), gf)
        assert code == 0 and report["results"]["witnesses"] == json.loads(written)["witnesses"]

    @pytest.mark.parametrize("strategy, extra", [
        ("edits", ["--base-rep", "nonexist.json"]),
        ("tree", ["--edits", "nonexist.json"]),
        ("tree", ["--base-rep", "nonexist.json"]),
        ("threshold", ["--edits", "nonexist.json"]),
        ("threshold", ["--base-rep", "nonexist.json"]),
        ("threshold", ["GRAPH"]),
        ("threshold", [""]),  # an empty graph path was read as none, and the build exited 0
    ], ids=["base-rep-without-edits", "tree-edits", "tree-base-rep", "threshold-edits",
            "threshold-base-rep", "threshold-graph", "threshold-empty-graph"])
    def test_build_rejects_an_input_it_would_not_read(self, tmp_path, tree_file, capsys, strategy, extra):
        out = tmp_path / "rep.json"
        argv = ["box", "build", "--strategy", strategy, "--out", str(out)]
        argv += ["--clique", "3"] if strategy == "threshold" else [tree_file]
        argv += [tree_file if x == "GRAPH" else x for x in extra]  # nonexist.json is never read
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("input error: ParseError: ")
        assert not out.exists()

    @pytest.mark.parametrize("strategy, extra", [
        ("tree", ["--clique", "3"]),
        ("edits", ["--clique", "0"]),
        ("tree", ["--nested", "2,1"]),
        ("edits", ["--nested", "1"]),
        ("tree", ["--trace-out", "TRACE"]),
        ("threshold", ["--trace-out", "TRACE"]),
    ], ids=["tree-clique", "edits-clique", "tree-nested", "edits-nested", "tree-trace-out",
            "threshold-trace-out"])
    def test_build_rejects_a_flag_outside_its_strategy(self, tmp_path, tree_file, capsys, strategy, extra):
        # a flag the strategy would ignore (or a trace it never writes) is an input error
        out, trace = tmp_path / "rep.json", tmp_path / "trace.json"
        argv = ["box", "build", "--strategy", strategy, "--out", str(out)]
        argv += ["--clique", "3"] if strategy == "threshold" else [tree_file]
        argv += [str(trace) if x == "TRACE" else x for x in extra]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("input error: ParseError: ")
        assert not out.exists() and not trace.exists()

    def test_build_accepts_an_empty_nested_with_any_strategy(self, tree_file, capsys):
        # --nested defaults to "", so an empty list is no flag outside the strategy
        code, report = run(capsys, "box", "build", tree_file, "--strategy", "tree", "--nested", "")
        assert code == 0 and report["results"]["dim"] == 2

    def test_threshold_fixture(self, tmp_path, capsys):
        rep_file = str(tmp_path / "th.json")
        graph_file = str(tmp_path / "thg.json")
        code, report = run(
            capsys, "box", "build", "--strategy", "threshold", "--clique", "4",
            "--nested", "3,2", "--out", rep_file, "--graph-out", graph_file,
        )
        assert code == 0 and report["results"]["dim"] == 2
        code, _ = run(capsys, "box", "verify", rep_file, graph_file)
        assert code == 0

    def test_verify_flags_buried_vertex(self, tmp_path, capsys):
        g = Graph(3, [(1, 2), (2, 3)])
        gf = write(tmp_path / "g.json", graph_to_json(g))
        rf = write(tmp_path / "rep.json", {
            "dim": 1,
            "boxes": {"1": [["0", "2"]], "2": [["1", "4"]], "3": [["9/4", "5"]]},
        })
        code, report = run(capsys, "box", "verify", rf, gf)
        assert code == 1
        assert report["results"]["c1_ok"] and not report["results"]["c2_ok"]
        assert report["results"]["c2_covered_vertices"] == [2]

    def test_oracle(self, tmp_path, capsys):
        g = Graph(3, [(1, 2), (2, 3)])
        gf = write(tmp_path / "g.json", graph_to_json(g))
        code, report = run(capsys, "box", "oracle", gf)
        assert code == 0 and report["results"]["dim"] == 2

    @pytest.mark.parametrize("g", [
        Graph(3, [(1, 2), (2, 3)]),
        Graph(3, [(1, 2), (2, 3), (1, 3)]),
        Graph(4, [(1, 2), (1, 3), (1, 4)]),
        Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    ], ids=["P3", "K3", "K13", "C4"])
    def test_oracle_out_is_written_from_its_grid(self, tmp_path, capsys, monkeypatch, g):
        # the file comes straight from the oracle's grid, with the bytes of the Fraction writer
        results = []
        search = bld.brute_force_strong_boxicity

        def kept(*args, **kwargs):
            results.append(search(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(bld, "brute_force_strong_boxicity", kept)
        gf, rf = write(tmp_path / "g.json", graph_to_json(g)), tmp_path / "rep.json"
        code, report = run(capsys, "box", "oracle", gf, "--out", str(rf))
        [res] = results
        assert code == 0 and report["results"]["rep_file"] == str(rf)
        assert "rep" not in vars(res)
        assert rf.read_text() == _dumps(rep_to_json(res.rep)) + "\n"

    def test_verify_builds_no_fraction_witness(self, tmp_path, capsys, monkeypatch):
        # one witness stored, the others found by the facet sweep: the report writes them from the ints
        tree = Graph(5, [(1, 2), (1, 3), (2, 4), (2, 5)])
        obj = rep_to_json(build_tree_rep(tree))
        obj["witnesses"] = {"3": obj["witnesses"]["3"]}
        gf, rf = write(tmp_path / "g.json", graph_to_json(tree)), write(tmp_path / "rep.json", obj)
        reports = []

        def kept(*args, **kwargs):
            reports.append(verify_grid(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr("minorkit.cli.verify_grid", kept)
        code, report = run(capsys, "box", "verify", rf, gf)
        [(c1, c2)] = reports
        assert code == 0 and c1.ok and c2.ok
        assert "witnesses" not in vars(c2)
        assert report["results"]["witnesses"] == witnesses_to_json(c2.rep)
        assert list(report["results"]["witnesses"]) == ["1", "2", "3", "4", "5"]

    def test_an_edit_walk_builds_only_the_graphs_it_keeps(self, tmp_path, capsys, monkeypatch):
        # a vertex deletion and a contraction that both swap labels, then the non-tree edges:
        # the walk runs on one adjacency, so the only Graphs are the input file's and the base
        g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 3), (1, 4)])
        intents = [VertexDelete(2), Contract(4, 3)]
        cur = apply_edits(g, intents).base
        intents += [EdgeDelete(*e) for e in cur.edges if e not in spanning_tree_edges(cur)]
        seq = apply_edits(g, intents)
        assert seq.ops[0].swap == (2, 6) and seq.ops[1].swap == (3, 5) and len(seq.ops) == 3
        gf = write(tmp_path / "g.json", graph_to_json(g))
        ef = write(tmp_path / "e.json", [
            {"kind": "vertex_delete", "v": 2},
            {"kind": "contract", "u": 4, "v": 3},
            *({"kind": "edge_delete", "u": op.u, "v": op.v} for op in seq.ops[2:]),
        ])
        built = []
        init = Graph.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counted)
        bld.build_from_edit_sequence(g, seq)
        assert built == []
        bld.tree_pipeline(g)
        assert built == [1]  # the base
        built.clear()
        code, report = run(capsys, "box", "build", gf, "--strategy", "edits", "--edits", ef)
        assert code == 0 and report["results"]["steps"] == 3
        assert built == [1, 1]  # the input file and the base

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = main(["box", "oracle", str(tmp_path / "nope.json")])
        capsys.readouterr()
        assert code == 2


class TestFlowCommands:
    def test_matrix(self, tmp_path, flow_file, capsys):
        out = str(tmp_path / "H.json")
        code, report = run(capsys, "flow", "matrix", flow_file, "--out", out)
        assert code == 0 and report["results"]["row_sums_zero"]
        blob = json.loads((tmp_path / "H.json").read_text())
        assert blob["t"] == 8 and len(blob["rows"]) == 8

    def test_matrix_builds_its_sparse_rows_once(self, tmp_path, monkeypatch, capsys):
        """The row-sum check and the export share one pass over the gains, and build no Fraction."""
        g = random_connected(40, 80, random.Random(8), gains=True)
        gobj = graph_to_json(g)
        texts = {e["gain"] for e in gobj["edges"]}
        assert len(texts) < len(g.edges)  # the gains repeat
        gf = write(tmp_path / "g.json", gobj)
        built = []
        cells = GainMatrix._cells
        build = cells.func

        def counted(h):
            built.append(h)
            return build(h)

        monkeypatch.setattr(cells, "func", counted)
        made = count_fractions(monkeypatch)
        out = tmp_path / "H.json"
        code, report = run(capsys, "flow", "matrix", gf, "--out", str(out))
        assert code == 0 and report["results"]["row_sums_zero"] is True
        assert len(built) == 1
        assert made == [len(texts)]  # one parsed gain per distinct text
        assert json.loads(out.read_text()) == matrix_to_json(assemble_gain_matrix(g))

    def test_matrix_row_sums_read_the_written_cells(self, tmp_path, flow_file, monkeypatch, capsys):
        """A cell off by one shows both in the file and in the row-sum verdict."""
        cells = GainMatrix._cells
        build = cells.func

        def bumped(h):
            rows = build(h)
            col, num, den = rows[-1][0]
            rows[-1][0] = (col, num + den, den)
            return rows

        monkeypatch.setattr(cells, "func", bumped)
        out = tmp_path / "H.json"
        code, report = run(capsys, "flow", "matrix", flow_file, "--out", str(out))
        assert code == 0 and report["results"]["row_sums_zero"] is False
        assert json.loads(out.read_text())["rows"][-1] == ["2", "0", "0", "-1"]  # edge (1,4), gain 1

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
    @pytest.mark.parametrize("before", [None, "old\n"])
    def test_matrix_past_the_digit_limit(self, tmp_path, capsys, before):
        """The hub's diagonal needs over 4300 digits: exit 2, and the target is left as it was."""
        big = 10**1499
        gains = {5: F(1, big + 1), 6: F(1, big + 3), 7: F(1, big + 7)}
        gf = write(tmp_path / "star.json", graph_to_json(Graph(4, [(1, 2), (1, 3), (1, 4)], gains=gains)))
        out = tmp_path / "H.json"
        if before is not None:
            out.write_text(before)
        code = main(["flow", "matrix", gf, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("input error: TooLarge:")
        assert (out.read_text() if out.exists() else None) == before
        assert not (tmp_path / "H.json.tmp").exists()

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
    def test_recover_past_the_digit_limit(self, tmp_path, capsys):
        """Unit gains and through flows 1/(10^1499 + k): the far end's state needs over 4300 digits."""
        g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)], gains={k: F(1) for k in range(6, 10)})
        gf = write(tmp_path / "path.json", graph_to_json(g))
        big = 10**1499
        zf = write(tmp_path / "z.json", {"values": ["0"] * 5 + [f"1/{big + k}" for k in (1, 3, 7, 9)]})
        code = main(["flow", "recover", gf, "--flows", zf])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("input error: TooLarge:")

    def test_out_onto_a_directory_leaves_no_tmp(self, tmp_path, flow_file, capsys):
        out = tmp_path / "H.json"
        out.mkdir()
        assert main(["flow", "matrix", flow_file, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("input error: ParseError: cannot write")
        assert out.is_dir() and not (tmp_path / "H.json.tmp").exists()

    def test_attack_bridge(self, tmp_path, capsys):
        g = Graph(3, [(1, 2), (2, 3)], gains={4: F(1), 5: F(2)})
        gf = write(tmp_path / "g.json", graph_to_json(g))
        code, report = run(capsys, "flow", "attack", gf, "--target", "1-2")
        assert code == 0
        res = report["results"]
        assert res["feasible"] and res["k"] == 2 and res["ratio"] == "1"
        assert res["support"] == res["expected_support"] == [1, 2, 4]  # the bridge 1-2 is flow 4

    def test_attack_infeasible_prints_witness(self, tmp_path, capsys):
        g = Graph(3, [(1, 2), (2, 3), (1, 3)], gains={4: F(1), 5: F(1), 6: F(1)})
        gf = write(tmp_path / "g.json", graph_to_json(g))
        code, report = run(capsys, "flow", "attack", gf, "--target", "1-2")
        assert code == 1
        assert not report["results"]["feasible"]
        assert len(report["results"]["witness_cycle_edges"]) == 3

    def test_attack_colored_schedule(self, tmp_path, flow_file, capsys):
        out = str(tmp_path / "atk.json")
        code, report = run(
            capsys, "flow", "attack", flow_file, "--target", "1-2,2-3,3-4,1-4",
            "--mode", "colored", "--schedule-gap", "1/100", "--out", out,
        )
        assert code == 0
        res = report["results"]
        assert res["chi"] == 2 and res["ratio"] == "1"

    def test_attack_robust_reports_formula_lambda(self, tmp_path, flow_file, capsys, monkeypatch):
        monkeypatch.setenv("MINORKIT_SEED", "7")
        code, report = run(
            capsys, "flow", "attack", flow_file, "--target", "1-2,2-3,3-4,1-4",
            "--mode", "robust", "--eps1", "1", "--eps2", "2", "--audit", "10",
        )
        assert code == 0
        res = report["results"]
        assert res["lambda_threshold"] == "17"  # 2*4*2/1 + 1
        assert res["seed"] == 7
        assert F(res["audit_min_boundary_entry"]) >= F(1, 2)

    def test_attack_robust_three_components(self, tmp_path, capsys):
        g = Graph(3, [(1, 2), (2, 3), (1, 3)], gains={4: F(1), 5: F(1), 6: F(1)})
        gf = write(tmp_path / "tri.json", graph_to_json(g))
        code, report = run(
            capsys, "flow", "attack", gf, "--target", "1-2,2-3,1-3",
            "--mode", "robust", "--eps1", "1", "--eps2", "2", "--audit", "5",
        )
        assert code == 0
        res = report["results"]
        assert res["k"] == 3 and res["lambda_threshold"] == "13" and res["lambda"] == "13"

    def test_recover_round_trip_and_replay(self, tmp_path, flow_file, capsys):
        g = Graph(
            4,
            [(1, 2), (2, 3), (3, 4), (1, 4)],
            gains={5: F(1), 6: F(3, 2), 7: F(2), 8: F(1)},
        )
        h = assemble_gain_matrix(g)
        x = (F(2), F(0), F(-1), F(5))
        zf = write(tmp_path / "z.json", vector_to_json(flows(h, x)))
        atk = str(tmp_path / "atk.json")
        code, _ = run(
            capsys, "flow", "attack", flow_file, "--target", "1-2,1-4", "--out", atk,
        )
        assert code == 0
        code, report = run(
            capsys, "flow", "recover", flow_file, "--flows", zf, "--ref", "2", "--attack", atk
        )
        assert code == 0
        res = report["results"]
        assert [F(v) for v in res["states"]] == list(x)
        assert res["deltas_nonzero_exactly_on_targets"]
        assert res["deltas_match_stealth_jumps"]

    def test_recover_detects_tampering(self, tmp_path, flow_file, capsys):
        g = Graph(
            4,
            [(1, 2), (2, 3), (3, 4), (1, 4)],
            gains={5: F(1), 6: F(3, 2), 7: F(2), 8: F(1)},
        )
        h = assemble_gain_matrix(g)
        z = list(flows(h, (F(1), F(1), F(2), F(0))))
        z[5] += F(1, 3)
        zf = write(tmp_path / "z.json", vector_to_json(tuple(z)))
        code = main(["flow", "recover", flow_file, "--flows", zf])
        capsys.readouterr()
        assert code == 1

    @staticmethod
    def two_recovery_replay(g, z, ref, bundle):
        """The replay report as computed before: recover z and z + a, then subtract."""
        h = assemble_gain_matrix(g)
        x = recover_states_fraction(h, z, g, ref)
        a = [F(v) for v in bundle["a"]]
        x_bad = recover_states_fraction(h, [zi + ai for zi, ai in zip(z, a)], g, ref)
        deltas = {
            (u, v): (x_bad[u - 1] - x_bad[v - 1]) - (x[u - 1] - x[v - 1]) for u, v in g.edges
        }
        targets = {tuple(sorted(e)) for e in bundle["targets"]}
        s = [F(v) for v in bundle["s"]]
        return {
            "states": [fmt_ratio(v) for v in x],
            "corrupted_states": [fmt_ratio(v) for v in x_bad],
            "edge_difference_deltas": {f"{u}-{v}": fmt_ratio(d) for (u, v), d in deltas.items()},
            "deltas_nonzero_exactly_on_targets": all(
                (d != 0) == (e in targets) for e, d in deltas.items()
            ),
            "deltas_match_stealth_jumps": all(
                d == s[u - 1] - s[v - 1] for (u, v), d in deltas.items()
            ),
        }

    def test_replay_equals_two_recoveries(self, tmp_path, capsys):
        rng = random.Random(31)
        for trial in range(6):
            g = random_connected(9, 14, rng, gains=True)
            h = assemble_gain_matrix(g)
            gf = write(tmp_path / f"g{trial}.json", graph_to_json(g))
            x = tuple(F(rng.randrange(-30, 31), rng.randrange(1, 9)) for _ in range(g.n))
            z = flows(h, x)
            zf = write(tmp_path / f"z{trial}.json", vector_to_json(z))
            atk = str(tmp_path / f"atk{trial}.json")
            target = ",".join(f"{u}-{v}" for u, v in random_cut_targets(g, rng))
            code, _ = run(capsys, "flow", "attack", gf, "--target", target, "--out", atk)
            assert code == 0
            stealth = json.loads((tmp_path / f"atk{trial}.json").read_text())
            # a consistent attack that is not stealthy: a = H*y for an arbitrary y
            y = [F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(g.n)]
            loud = {
                **stealth,
                "s": [fmt_ratio(v) for v in y],
                "a": [fmt_ratio(v) for v in flows(h, y)],
            }
            respelled = {
                **stealth,
                "s": [respell(v, i) for i, v in enumerate(stealth["s"])],
                "a": [respell(v, i) for i, v in enumerate(stealth["a"])],
            }
            kinds = {kind for v in respelled["s"] + respelled["a"] for kind in spellings(v)}
            assert kinds == {"unreduced", "-0", "exponent", "decimal"}
            bundles = (("stealth", stealth), ("loud", loud), ("respelled", respelled))
            reports = {}
            for name, bundle in bundles:
                bf = write(tmp_path / f"{name}{trial}.json", bundle)
                ref = "2/7"
                code, report = run(
                    capsys, "flow", "recover", gf, "--flows", zf, "--ref", ref, "--attack", bf
                )
                assert code == 0
                assert report["results"] == self.two_recovery_replay(g, z, F(ref), bundle)
                reports[name] = report["results"]
            assert reports["loud"]["deltas_nonzero_exactly_on_targets"] is False
            assert reports["respelled"] == reports["stealth"]

    def test_replay_builds_only_the_gains_as_fractions(self, tmp_path, capsys, monkeypatch):
        """flow recover --attack reads, recovers, checks and prints on int pairs."""
        rng = random.Random(5)
        g = random_connected(12, 20, rng, gains=True)
        h = assemble_gain_matrix(g)
        gobj = graph_to_json(g)
        texts = {e["gain"] for e in gobj["edges"]}
        assert len(texts) < len(g.edges)  # the gains repeat
        gf = write(tmp_path / "g.json", gobj)
        x = tuple(F(rng.randrange(-30, 31), rng.randrange(1, 9)) for _ in range(g.n))
        zf = write(tmp_path / "z.json", vector_to_json(flows(h, x)))
        atk = str(tmp_path / "atk.json")
        target = ",".join(f"{u}-{v}" for u, v in random_cut_targets(g, rng))
        code, _ = run(capsys, "flow", "attack", gf, "--target", target, "--out", atk)
        assert code == 0
        made = count_fractions(monkeypatch)
        code, report = run(capsys, "flow", "recover", gf, "--flows", zf, "--ref", "2/7", "--attack", atk)
        assert code == 0 and report["results"]["deltas_match_stealth_jumps"]
        assert made == [len(texts)]  # one parsed gain per distinct text

    def test_inconsistent_attack_names_the_first_bad_edge(self, tmp_path, capsys):
        g = Graph(3, [(1, 2), (2, 3), (1, 3)], gains={4: F(1), 5: F(2), 6: F(3)})
        h = assemble_gain_matrix(g)
        gf = write(tmp_path / "tri.json", graph_to_json(g))
        zf = write(tmp_path / "z.json", vector_to_json(flows(h, (F(1), F(4), F(-2)))))
        a = ["0"] * 6
        a[3] = "1"  # a through flow on (1,2) alone closes no cycle
        bf = write(tmp_path / "atk.json", {"targets": [[1, 2]], "a": a})
        code = main(["flow", "recover", gf, "--flows", zf, "--attack", bf])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: Inconsistent: edge (2,3) ")

    def test_theta(self, tmp_path, flow_file, capsys):
        code, report = run(capsys, "flow", "theta", flow_file, "--target", "1-2,2-3,3-4,1-4")
        assert code == 0
        res = report["results"]
        assert res["k"] == 4 and res["chi"] == 2
        assert F(res["oracle"]) <= F(res["bound_chi"]) + F(1, 20)
        assert res["support_policy"] == "full-attack-support"

    def test_theta_is_exact(self, tmp_path, capsys):
        # unit C5, every edge targeted: chi_c(C5) = 5/2, so theta = 3/2
        c5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], gains={i: F(1) for i in range(6, 11)})
        gf = write(tmp_path / "c5.json", graph_to_json(c5))
        target = "1-2,2-3,3-4,4-5,1-5"
        code, report = run(capsys, "flow", "theta", gf, "--target", target)
        assert code == 0 and report["results"]["oracle"] == "3/2"
        with pytest.raises(SystemExit) as exc:
            main(["flow", "theta", gf, "--target", target, "--grid", "6"])
        capsys.readouterr()
        assert exc.value.code == 2

    def test_theta_past_five_components(self, tmp_path, capsys):
        # unit C6, every edge targeted: six components, chi_c(C6) = 2, so theta = 1
        c6 = Graph(6, [(i, i + 1) for i in range(1, 6)] + [(1, 6)], gains={i: F(1) for i in range(7, 13)})
        gf = write(tmp_path / "c6.json", graph_to_json(c6))
        code, report = run(capsys, "flow", "theta", gf, "--target", "1-2,2-3,3-4,4-5,5-6,1-6")
        assert code == 0
        assert report["results"]["k"] == 6 and report["results"]["oracle"] == "1"

    def test_parser_reuse_keeps_no_state(self, tmp_path, flow_file, capsys):
        out = str(tmp_path / "atk.json")
        code, report = run(capsys, "flow", "attack", flow_file, "--target", "1-2,1-4", "--out", out)
        assert code == 0 and report["results"]["attack_file"] == out
        code, report = run(capsys, "flow", "attack", flow_file, "--target", "1-2,1-4")
        assert code == 0 and "attack_file" not in report["results"]

    def test_bad_target_spec(self, tmp_path, flow_file, capsys):
        code = main(["flow", "attack", flow_file, "--target", "1:2"])
        capsys.readouterr()
        assert code == 2


class TestInputContract:
    """Malformed input exits 2 with a one-line diagnosis, never a traceback."""

    @pytest.fixture()
    def recover_args(self, tmp_path, flow_file):
        zf = write(tmp_path / "z.json", {"values": ["0"] * 8})  # constant states
        return ["flow", "recover", flow_file, "--flows", zf]

    def assert_input_error(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and err.startswith("input error:")

    @pytest.mark.parametrize("content", [
        None,  # a directory: IsADirectoryError
        b'{"n":\x80}',  # no UTF-8, -16 or -32 decodes it: UnicodeDecodeError
        b"1" * 5000,  # an int past the 4300-digit limit: ValueError
        b"[" * 200_000,  # nested past the recursion limit: RecursionError
    ], ids=["directory", "not-utf", "long-int", "deep-nesting"])
    @pytest.mark.parametrize("read", ["box-verify-rep", "box-verify-graph", "box-build-edits", "flow-recover-flows"])
    def test_a_file_json_cannot_read(self, tmp_path, tree_file, flow_file, capsys, read, content):
        # each exited 1 with a traceback and nothing on stdout
        path = tmp_path / "hostile.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        tree = graph_from_json(json.loads(Path(tree_file).read_text()))
        rf = write(tmp_path / "rep.json", rep_to_json(build_tree_rep(tree)))  # read after the graph
        argv = {
            "box-verify-rep": ["box", "verify", str(path), tree_file],
            "box-verify-graph": ["box", "verify", rf, str(path)],
            "box-build-edits": ["box", "build", flow_file, "--strategy", "edits", "--edits", str(path)],
            "flow-recover-flows": ["flow", "recover", flow_file, "--flows", str(path)],
        }[read]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("input error: ParseError: ") and captured.err.count("\n") == 1

    def test_non_integer_bundle_target(self, tmp_path, recover_args, capsys):
        bundle = write(tmp_path / "atk.json", {"targets": [["1", "x"]], "a": ["0"] * 8})
        self.assert_input_error(capsys, [*recover_args, "--attack", bundle])

    @pytest.mark.parametrize("targets", [
        ["12", "14"],  # strings of digits: int() read each character as a vertex
        [["12", "14"]],
        [[1.9, 2], [True, 4]],
        [[1, 2, 4]],
        [[1]],
        [1, 2],
    ])
    def test_bundle_targets_are_integer_pairs(self, tmp_path, recover_args, capsys, targets):
        bundle = write(tmp_path / "atk.json", {"targets": targets, "a": ["0"] * 8})
        self.assert_input_error(capsys, [*recover_args, "--attack", bundle])

    @pytest.mark.parametrize("edit", [
        {"kind": "edge_delete", "u": 1.9, "v": 4},
        {"kind": "edge_delete", "u": True, "v": 4},
        {"kind": "edge_delete", "u": "1", "v": "4"},  # numeric strings: accepted before, now exit 2
        {"kind": "contract", "u": 1, "v": 4.0},
        {"kind": "vertex_delete", "v": "4"},
    ])
    def test_non_integer_edit_labels(self, tmp_path, flow_file, capsys, edit):
        ef = write(tmp_path / "edits.json", [edit])
        self.assert_input_error(capsys, ["box", "build", flow_file, "--strategy", "edits", "--edits", ef])

    def test_non_integer_nested_size(self, capsys):
        self.assert_input_error(
            capsys, ["box", "build", "--strategy", "threshold", "--clique", "3", "--nested", "2,x"]
        )

    @pytest.mark.parametrize("flags", [
        ["--clique", "0"],  # BadNesting: exited 1, like a failed verification
        ["--clique", "3", "--nested", "1,2"],
    ])
    def test_bad_threshold_flags(self, capsys, flags):
        self.assert_input_error(capsys, ["box", "build", "--strategy", "threshold", *flags])

    def test_robust_bounds_out_of_order(self, flow_file, capsys):
        # BadBounds: exited 1, like a failed verification
        self.assert_input_error(capsys, [
            "flow", "attack", flow_file, "--target", "1-2,1-4", "--mode", "robust",
            "--eps1", "2", "--eps2", "1",
        ])

    def test_negative_schedule_gap(self, flow_file, capsys):
        # no ratio comes within a negative gap: this walked all 20,000 ladder steps, then exit 1
        argv = ["flow", "attack", flow_file, "--target", "1-2,1-4"]
        self.assert_input_error(capsys, [*argv, "--schedule-gap=-1/100"])
        code, report = run(capsys, *argv, "--schedule-gap", "0")  # the limit, met exactly
        assert code == 0 and report["results"]["ratio"] == "1"

    @pytest.mark.parametrize("mode, extra", [
        ("robust", ["--out", "OUT"]),  # wrote no file and reported no attack_file
        ("robust", ["--lambda", "1/3"]),
        ("robust", ["--schedule-gap", "1/10"]),
        ("robust", ["--float-tolerance", "0.1"]),
        ("basic", ["--eps1", "1"]),
        ("basic", ["--eps2", "2"]),
        ("colored", ["--audit", "5"]),
        ("basic", ["--lambda", "1/3", "--schedule-gap", "1/10"]),  # the schedule reported lambda 1/2
        ("colored", ["--lambda", "1/3", "--schedule-gap", "1/10"]),
    ], ids=["robust-out", "robust-lambda", "robust-schedule-gap", "robust-float-tolerance",
            "basic-eps1", "basic-eps2", "colored-audit", "basic-lambda-and-gap", "colored-lambda-and-gap"])
    def test_attack_rejects_a_flag_outside_its_mode(self, tmp_path, flow_file, capsys, mode, extra):
        # each exited 0 with the flag ignored
        out = tmp_path / "atk.json"
        argv = ["flow", "attack", flow_file, "--target", "1-2,1-4", "--mode", mode]
        code = main(argv + [str(out) if x == "OUT" else x for x in extra])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("input error: ParseError: ")
        assert not out.exists()

    @pytest.mark.parametrize("extra", [["--mode", "basic"], ["--mode", "colored"], ["--mode", "robust"], "theta"])
    @pytest.mark.parametrize("spec", [",", "", " , "])
    def test_a_target_list_naming_no_edge(self, flow_file, capsys, extra, spec):
        # basic, colored and theta exited 1 with EmptyF; robust exited 0 with k=1
        argv = ["flow", "theta", flow_file] if extra == "theta" else ["flow", "attack", flow_file, *extra]
        code = main([*argv, f"--target={spec}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"input error: ParseError: target list {spec!r} names no edge\n"

    # each named the edge 1-4 through int(): a sign, an underscore, an Arabic-Indic four
    @pytest.mark.parametrize("cmd", [["attack"], ["attack", "--mode", "robust"], ["theta"]])
    @pytest.mark.parametrize("spec", ["1-2,1-+4", "1-2,1-0_4", "1-2,1-\u0664"])
    def test_a_target_label_is_ascii_digits(self, flow_file, capsys, cmd, spec):
        code = main(["flow", cmd[0], flow_file, "--target", spec, *cmd[1:]])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"input error: ParseError: bad target list {spec!r}")

    @pytest.mark.parametrize("cmd", ["attack", "theta"])
    def test_whitespace_around_a_label_is_allowed(self, flow_file, capsys, cmd):
        plain = run(capsys, "flow", cmd, flow_file, "--target", "1-2,1-4")
        spaced = run(capsys, "flow", cmd, flow_file, "--target", " 1 -\t2 ,, 4- 1 ")
        for _, report in (plain, spaced):
            report.pop("timing_ms")
        assert plain[0] == spaced[0] == 0 and plain[1]["results"] == spaced[1]["results"]

    @given(hst.text(alphabet="0124-, +_\t\x1c\u0664", max_size=14))
    @example("1-2,1-4")
    @example("1-+4")
    @example("1-0_4")
    @example("\x1c1-2")  # str.strip takes it around a part, int() not around a label
    @example("1\x1c-2")
    @settings(max_examples=300, deadline=None)
    def test_only_non_ascii_digit_labels_change_verdict(self, spec):
        from minorkit.cli import _parse_targets
        from minorkit.exceptions import ParseError

        g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        old = parse_targets_int(spec)
        if not (old and all(g.has_edge(u, v) for u, v in old)):
            old = None
        try:
            new = _parse_targets(spec, g)
        except ParseError:
            new = None
        if new != old:
            labels = [x.strip() for part in spec.split(",") for x in part.split("-")]
            # only a label that int() read but that is not ASCII digits inside its whitespace
            assert new is None and not all(x.isascii() and x.isdigit() for x in labels if x)

    def test_robust_defaults_keep_the_guarantee_text(self, flow_file, capsys):
        argv = ["flow", "attack", flow_file, "--target", "1-2,1-4", "--mode", "robust"]
        code, report = run(capsys, *argv)
        _, given = run(capsys, *argv, "--eps1", "1", "--eps2", "2", "--audit", "20")
        assert code == 0 and report["results"]["audit_samples"] == 20
        assert report["results"]["guarantee"] == "every boundary entry stays >= 1/2 for all gains in [1, 2]"
        assert report["results"] == given["results"]

    def test_negative_audit(self, flow_file, capsys):
        # exited 0 and reported "audit_samples": -3
        argv = ["flow", "attack", flow_file, "--target", "1-2,1-4", "--mode", "robust"]
        assert main([*argv, "--audit", "-3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "input error: ParseError: --audit must not be negative, got -3\n"
        code, report = run(capsys, *argv, "--audit", "0")  # no audit, as before
        assert code == 0 and report["results"]["audit_samples"] == 0
        assert "audit_min_boundary_entry" not in report["results"]

    @pytest.mark.parametrize("max_dim", [0, -1])
    def test_oracle_dimension_below_one(self, tmp_path, capsys, max_dim):
        # exited 1 and reported "dim": null, a domain verdict on a malformed flag
        gf = write(tmp_path / "p3.json", {"n": 3, "edges": [{"u": 1, "v": 2}, {"u": 2, "v": 3}]})
        assert main(["box", "oracle", gf, f"--max-dim={max_dim}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"input error: ParseError: --max-dim must be at least 1, got {max_dim}\n"
        code, report = run(capsys, "box", "oracle", gf, "--max-dim", "1")  # P3 has no 1-D representation
        assert code == 1 and report["results"]["dim"] is None

    def test_oracle_dimension_default_is_the_gate(self, tmp_path, capsys, monkeypatch):
        # --max-dim defaulted to a literal 2 beside build.ORACLE_MAX_DIM; lowering the gate lowers the default
        gf = write(tmp_path / "p3.json", {"n": 3, "edges": [{"u": 1, "v": 2}, {"u": 2, "v": 3}]})
        code, report = run(capsys, "box", "oracle", gf)
        assert code == 0 and report["results"] == {"dim": 2, "max_dim": bld.ORACLE_MAX_DIM}
        monkeypatch.setattr(bld, "ORACLE_MAX_DIM", 1)
        _build_parser.cache_clear()  # the parser is built once per process
        try:
            code, report = run(capsys, "box", "oracle", gf)  # P3 has no 1-D representation
        finally:
            _build_parser.cache_clear()  # rebuilt on the default gate once monkeypatch restores it
        assert code == 1 and report["results"] == {"dim": None, "max_dim": 1}

    def test_representation_past_the_grid_bound(self, tmp_path, capsys):
        # 240 distinct 20-bit prime denominators: the lcm passes GRID_MAX_BITS (verified on Fractions before)
        g, rep = coprime_boxes(40)
        gf = write(tmp_path / "g.json", graph_to_json(g))
        rf = write(tmp_path / "rep.json", boxes_json_fraction(rep))
        ef = write(tmp_path / "edits.json", [])
        out = tmp_path / "out.json"
        for argv in (
            ["box", "verify", rf, gf],
            ["box", "build", gf, "--edits", ef, "--base-rep", rf, "--out", str(out)],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "Traceback" not in captured.err
            assert captured.err.startswith("input error: TooLarge:")
        assert sorted(f.name for f in tmp_path.iterdir()) == ["edits.json", "g.json", "rep.json"]

    def test_short_attack_vector(self, tmp_path, recover_args, capsys):
        bundle = write(tmp_path / "atk.json", {"targets": [[1, 2], [1, 4]], "a": ["1"] * 7})
        self.assert_input_error(capsys, [*recover_args, "--attack", bundle])

    @pytest.mark.parametrize("length", [3, 9])
    def test_flow_vector_of_the_wrong_length(self, tmp_path, flow_file, capsys, length):
        # exited 1 with "error: DimensionMismatch"; t = 8 here
        zf = write(tmp_path / "z.json", {"values": ["0"] * length})
        assert main(["flow", "recover", flow_file, "--flows", zf]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: ParseError: flow vector has length {length}, expected 8\n"

    def test_short_stealth_vector(self, tmp_path, recover_args, capsys):
        bundle = write(tmp_path / "atk.json", {"targets": [[1, 2]], "a": ["0"] * 8, "s": ["1"] * 3})
        self.assert_input_error(capsys, [*recover_args, "--attack", bundle])

    @pytest.fixture()
    def path3_file(self, tmp_path):
        # t = 5, so a five-character string has the length of a flow vector
        g = Graph(3, [(1, 2), (2, 3)], gains={4: F(1), 5: F(2)})
        return write(tmp_path / "p3.json", graph_to_json(g))

    def test_string_flow_values(self, tmp_path, path3_file, capsys):
        zf = write(tmp_path / "z.json", {"values": "00000"})
        self.assert_input_error(capsys, ["flow", "recover", path3_file, "--flows", zf])

    def test_bool_flow_value(self, tmp_path, path3_file, capsys):
        zf = write(tmp_path / "z.json", {"values": [True, "0", "0", "0", "0"]})
        self.assert_input_error(capsys, ["flow", "recover", path3_file, "--flows", zf])

    @pytest.mark.parametrize("key", ["a", "s"])
    def test_string_bundle_vector(self, tmp_path, path3_file, capsys, key):
        zf = write(tmp_path / "z.json", {"values": ["0"] * 5})
        bundle = {"targets": [[1, 2]], "a": ["0"] * 5, "s": ["0"] * 3}
        bundle[key] = "0" * len(bundle[key])
        bf = write(tmp_path / "atk.json", bundle)
        argv = ["flow", "recover", path3_file, "--flows", zf, "--attack", bf]
        self.assert_input_error(capsys, argv)

    @pytest.mark.parametrize("graph", [
        {"n": 2.9, "edges": [{"u": 1, "v": 2, "gain": "1"}]},
        {"n": True, "edges": []},
        {"n": "2", "edges": [{"u": 1, "v": 2, "gain": "1"}]},
        {"n": 2, "edges": [{"u": 1.0, "v": 2, "gain": "1"}]},
        {"n": 2, "edges": [{"u": True, "v": 2, "gain": "1"}]},
        {"n": 2, "edges": [{"u": 1, "v": 2, "gain": True}]},
    ])
    def test_non_integer_graph_fields(self, tmp_path, capsys, graph):
        gf = write(tmp_path / "g.json", graph)
        self.assert_input_error(capsys, ["flow", "matrix", gf])

    def test_unwritable_out(self, tmp_path, flow_file, capsys):
        out = str(tmp_path / "missing" / "H.json")
        self.assert_input_error(capsys, ["flow", "matrix", flow_file, "--out", out])

    def test_non_integer_seed(self, flow_file, capsys, monkeypatch):
        monkeypatch.setenv("MINORKIT_SEED", "abc")
        self.assert_input_error(capsys, [
            "flow", "attack", flow_file, "--target", "1-2,1-4", "--mode", "robust", "--audit", "2",
        ])

    def test_huge_exponent_gain(self, tmp_path, capsys):
        gf = write(tmp_path / "g.json", {"n": 2, "edges": [{"u": 1, "v": 2, "gain": "1e5000"}]})
        out = str(tmp_path / "H.json")
        self.assert_input_error(capsys, ["flow", "matrix", gf, "--out", out])

    @pytest.fixture()
    def tree_rep(self, tree_file):
        g = graph_from_json(json.loads(Path(tree_file).read_text()))
        return rep_to_json(build_tree_rep(g))

    @pytest.mark.parametrize("edit", list(MALFORMED_REP_EDITS.values()), ids=list(MALFORMED_REP_EDITS))
    def test_malformed_representation(self, tmp_path, tree_file, tree_rep, capsys, edit):
        edit(tree_rep)
        rf = write(tmp_path / "rep.json", tree_rep)
        self.assert_input_error(capsys, ["box", "verify", rf, tree_file])

    def test_well_formed_representation_passes(self, tmp_path, tree_file, tree_rep, capsys):
        rf = write(tmp_path / "rep.json", tree_rep)
        code, _ = run(capsys, "box", "verify", rf, tree_file)
        assert code == 0

    @pytest.mark.parametrize("lam", ["3", "0", "1", "-1/2"])
    def test_lambda_outside_the_unit_interval(self, flow_file, capsys, lam):
        argv = ["flow", "attack", flow_file, "--target", "1-2,1-4", f"--lambda={lam}"]
        self.assert_input_error(capsys, argv)

    @pytest.mark.parametrize("argv, flag", [
        (["flow", "attack", "FLOW", "--target", "1-2,1-4"], "--lambda"),  # exited 0 with lambda 1/2
        (["flow", "attack", "FLOW", "--target", "1-2,1-4"], "--out"),  # exited 0 and wrote no file
        (["box", "build", "TREE"], "--out"),
        (["box", "oracle", "TREE"], "--out"),
        (["box", "build", "TREE"], "--trace-out"),
        (["box", "build", "--strategy", "threshold", "--clique", "3"], "--graph-out"),
        (["box", "build", "TREE"], "--edits"),
        (["box", "build", "TREE", "--edits", "EDITS"], "--base-rep"),
        (["flow", "matrix", "FLOW"], "--out"),
        (["flow", "recover", "FLOW", "--flows", "FLOWS"], "--attack"),
    ], ids=["attack-lambda", "attack-out", "build-out", "oracle-out", "build-trace-out",
            "build-graph-out", "build-edits", "build-base-rep", "matrix-out", "recover-attack"])
    def test_an_empty_flag_value(self, tmp_path, tree_file, flow_file, capsys, argv, flag):
        # an empty value read as no flag: each of these exited 0 and ignored it
        edits = write(tmp_path / "e.json", [])
        flows = write(tmp_path / "z.json", {"values": ["0"] * 8})
        files = {"FLOW": flow_file, "TREE": tree_file, "EDITS": edits, "FLOWS": flows}
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            main([files.get(x, x) for x in argv] + [f"{flag}="])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"{flag}: must not be empty" in captured.err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("cmd", ["attack", "theta"])
    @pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "x", "-1"])
    def test_non_finite_float_tolerance(self, flow_file, capsys, cmd, tol):
        with pytest.raises(SystemExit) as exc:
            main(["flow", cmd, flow_file, "--target", "1-2,1-4", f"--float-tolerance={tol}"])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "Traceback" not in err and "--float-tolerance" in err

    @pytest.mark.parametrize("extra", [
        ["--lambda", "1/" + "1" + "0" * 400],  # the ratio, about 10^400, passes the float range
        ["--float-tolerance", "1e-320"],  # ratio / tolerance overflows
    ])
    def test_float_display_stays_json(self, tmp_path, capsys, extra):
        triangle = write(tmp_path / "k3.json", graph_to_json(
            Graph(3, [(1, 2), (2, 3), (1, 3)], gains={4: F(1), 5: F(1), 6: F(1)})))
        code = main(["flow", "attack", triangle, "--target", "1-2,2-3,1-3", *extra])
        out, err = capsys.readouterr()
        assert code == 0 and "Traceback" not in err
        res = json.loads(out, parse_constant=_reject_constant)["results"]
        assert res["ratio_float"] is None or res["ratio_float"] > 0

    def test_root_trap_graph_attack(self, tmp_path, capsys):
        # hostile gains, not malformed ones: the first 21 lambda candidates are all roots
        g, targets, _ = root_trap_graph()
        gf = write(tmp_path / "trap.json", graph_to_json(g))
        target = ",".join(f"{u}-{v}" for u, v in targets)
        code = main(["flow", "attack", gf, "--target", target])
        out, err = capsys.readouterr()
        assert code == 0 and "Traceback" not in err
        res = json.loads(out)["results"]
        # the targets' flows and their end vertices
        expected = sorted({g.edge_index(u, v) for u, v in targets} | {x for e in targets for x in e})
        assert res["k"] == 3 and res["support"] == res["expected_support"] == expected


def test_every_report_and_file_is_compact_json(tmp_path, flow_file, capsys):
    """Each command's report and each file it writes is one line: compact JSON and a newline.

    The written paths end in "é", so each report's file names pin the ASCII escaping.
    """
    files = {name: str(tmp_path / f"{name}-é.json") for name in ("rep", "trace", "graph", "oracle", "H", "atk")}
    h = assemble_gain_matrix(graph_from_json(json.loads(Path(flow_file).read_text())))
    zf = write(tmp_path / "z.json", vector_to_json(flows(h, (F(2), F(0), F(-1, 3), F(5)))))
    jobs = [
        ["box", "build", flow_file, "--out", files["rep"], "--trace-out", files["trace"],
         "--graph-out", files["graph"]],
        ["box", "verify", files["rep"], flow_file],
        ["box", "oracle", flow_file, "--out", files["oracle"]],
        ["flow", "matrix", flow_file, "--out", files["H"]],
        ["flow", "attack", flow_file, "--target", "1-2,1-4", "--out", files["atk"]],
        ["flow", "recover", flow_file, "--flows", zf, "--attack", files["atk"]],
        ["flow", "theta", flow_file, "--target", "1-2,2-3,3-4,1-4"],
    ]
    texts = []
    for argv in jobs:
        assert main(argv) == 0
        texts.append(capsys.readouterr().out)
    texts += [Path(f).read_text() for f in files.values()]
    for text in texts:
        assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83)


@hst.composite
def _gain_graphs(draw):
    """(n, edges, gains): any simple graph on 1..9 vertices, isolated vertices and m = 0 included.

    Half the draws give every edge its own prime denominator, so each vertex
    row's diagonal sits on the product of its incident denominators.
    """
    n = draw(hst.integers(1, 9))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(hst.lists(hst.sampled_from(pairs), unique=True, max_size=len(_PRIMES))) if pairs else []
    nums = hst.integers(1, 40)
    if draw(hst.booleans()):
        dens = draw(hst.permutations(_PRIMES))[: len(edges)]
        gains = [F(draw(nums), d) for d in dens]
    else:
        gains = [F(draw(nums), draw(hst.integers(1, 6))) for _ in edges]
    return n, sorted(edges), gains


@given(_gain_graphs())
@example((2, [(1, 2)], [F(3, 7)]))
@example((5, [(2, 4)], [F(1, 2)]))  # vertices 1, 3 and 5 are isolated: a lone "0" diagonal
@example((4, [(1, 4), (1, 2), (3, 4)], [F(1, 2), F(1, 3), F(1, 5)]))  # -b in columns 1 and n
@example((3, [], []))
@settings(max_examples=150, deadline=None)
def test_streamed_matrix_matches_the_fraction_reference(case):
    """`flow matrix --out` writes the text of the Fraction rows, and its int row sums are theirs."""
    n, edges, gains = case
    g = Graph(n, edges, gains={n + 1 + i: b for i, b in enumerate(gains)})
    h = assemble_gain_matrix(g)
    rows = [tuple(row) for row in matrix_rows_fraction(h)]
    assert list(h.rows) == rows
    assert h.row_sums() == tuple(sum(row) for row in h.rows)
    want = _dumps(matrix_to_json_fraction(h)) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "H.json"
        gf = write(Path(tmp) / "g.json", graph_to_json(g))
        with contextlib.redirect_stdout(io.StringIO()) as report:
            assert main(["flow", "matrix", gf, "--out", str(out)]) == 0
        assert json.loads(report.getvalue())["results"]["row_sums_zero"] is True
        assert out.read_text() == want
