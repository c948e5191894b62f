import json
from fractions import Fraction as F

import pytest

from minorkit import Graph, assemble_gain_matrix, flows, graph_to_json, vector_to_json
from minorkit.cli import main


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


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else {})


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

    def test_attack_bridge(self, tmp_path, capsys):
        g = Graph(3, [(1, 2), (2, 3)], gains={4: F(1), 5: F(2)})
        gf = write(tmp_path / "g.json", graph_to_json(g))
        code, report = run(capsys, "flow", "attack", gf, "--target", "1-2")
        assert code == 0
        res = report["results"]
        assert res["feasible"] and res["k"] == 2 and res["ratio"] == "1"
        assert res["support"] == res["expected_support"]

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

    def test_theta(self, tmp_path, flow_file, capsys):
        code, report = run(capsys, "flow", "theta", flow_file, "--target", "1-2,2-3,3-4,1-4")
        assert code == 0
        res = report["results"]
        assert res["k"] == 4 and res["chi"] == 2
        assert F(res["oracle"]) <= F(res["bound_chi"]) + F(1, 20)
        assert res["support_policy"] == "full-attack-support"

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

    def test_non_integer_bundle_target(self, tmp_path, recover_args, capsys):
        bundle = write(tmp_path / "atk.json", {"targets": [["1", "x"]], "a": ["0"] * 8})
        self.assert_input_error(capsys, [*recover_args, "--attack", bundle])

    def test_short_attack_vector(self, tmp_path, recover_args, capsys):
        bundle = write(tmp_path / "atk.json", {"targets": [[1, 2], [1, 4]], "a": ["1"] * 7})
        self.assert_input_error(capsys, [*recover_args, "--attack", bundle])

    def test_short_stealth_vector(self, tmp_path, recover_args, capsys):
        bundle = write(tmp_path / "atk.json", {"targets": [[1, 2]], "a": ["0"] * 8, "s": ["1"] * 3})
        self.assert_input_error(capsys, [*recover_args, "--attack", bundle])

    def test_unwritable_out(self, tmp_path, flow_file, capsys):
        out = str(tmp_path / "missing" / "H.json")
        self.assert_input_error(capsys, ["flow", "matrix", flow_file, "--out", out])

    def test_non_integer_seed(self, flow_file, capsys, monkeypatch):
        monkeypatch.setenv("MINORKIT_SEED", "abc")
        self.assert_input_error(capsys, [
            "flow", "attack", flow_file, "--target", "1-2,1-4", "--mode", "robust", "--audit", "2",
        ])
