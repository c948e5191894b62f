"""Fuzz the CLI contract: any input exits 0, 1 or 2 without a traceback, and
whatever it prints on stdout is strict JSON.

Inputs are small valid files and flag values with a few parts replaced,
dropped, renamed or duplicated.  Sizes stay tiny: no generated count or label
exceeds 10, and `box oracle` (exponential search) and huge `--clique` values
are never run.
"""

import contextlib
import io
import json
import tempfile
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from minorkit import Graph, assemble_gain_matrix, build_tree_rep, flows, graph_to_json, rep_to_json
from minorkit import tree_pipeline, vector_to_json
from minorkit.cli import main

CYCLE = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], gains={5: F(1), 6: F(3, 2), 7: F(2), 8: F(1)})
TRIANGLE = Graph(3, [(1, 2), (2, 3), (1, 3)], gains={4: F(1), 5: F(1), 6: F(1)})
TREE = Graph(5, [(1, 2), (1, 3), (2, 4), (2, 5)])
PATH = Graph(3, [(1, 2), (2, 3)])
CHORDED = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)])



def _respelled(rep: dict) -> dict:
    """The same representation with its values spelled "2p/2q", "ke-6", "0.5", "-0" or as ints, in turn."""
    spellings = [
        lambda x: f"{2 * x.numerator}/{2 * x.denominator}",
        lambda x: f"{x.numerator * 10**6 // x.denominator}e-6" if 10**6 % x.denominator == 0 else str(x),
        lambda x: "-0" if x == 0 else format(Decimal(x.numerator) / x.denominator, "f")
        if 10**6 % x.denominator == 0 else str(x),
        lambda x: x.numerator if x.denominator == 1 else str(x),
    ]
    turn = iter(range(10**6))
    spell = lambda text: spellings[next(turn) % 4](F(text))  # noqa: E731
    out = {"dim": rep["dim"], "boxes": {k: [[spell(a), spell(b)] for a, b in ivs] for k, ivs in rep["boxes"].items()}}
    out["witnesses"] = {
        k: {"point": [spell(x) for x in w["point"]], "radius": spell(w["radius"])} for k, w in rep["witnesses"].items()
    }
    return out


LIFTED = rep_to_json(tree_pipeline(CHORDED)[1].final)  # dim 4: two non-tree edges
# (graph, representation) pairs that verify, and graphs the other commands accept
TREE_REPS = [(graph_to_json(t), rep_to_json(build_tree_rep(t))) for t in (TREE, PATH)] + [
    (graph_to_json(CHORDED), LIFTED),
    (graph_to_json(CHORDED), _respelled(LIFTED)),
]
BOX_GRAPHS = [graph_to_json(g) for g in (TREE, CHORDED, CYCLE)]
EDITS = [
    [{"kind": "edge_delete", "u": 1, "v": 5}, {"kind": "edge_delete", "u": 2, "v": 5}],
    [{"kind": "vertex_delete", "v": 3}, {"kind": "contract", "u": 1, "v": 2}],
]
# an edgeless graph needs no gains; the last one spells the gain 2 three ways and repeats one
REPEATED = {"n": 4, "edges": [{"u": 1, "v": 2, "gain": "2"}, {"u": 2, "v": 3, "gain": "4/2"},
                              {"u": 3, "v": 4, "gain": "2/1"}, {"u": 1, "v": 4, "gain": "2"}]}
GAIN_GRAPHS = [graph_to_json(g) for g in (CYCLE, TRIANGLE, Graph(3))] + [REPEATED]
# a feasible target set of each gain graph; the edgeless graph has no edge to target
TARGETS = ["1-2,1-4", "1-2,2-3,1-3", "1-2", "1-2,3-4"]
FLOWS = [vector_to_json(flows(assemble_gain_matrix(CYCLE), (F(2), F(0), F(-1), F(5))))]
BUNDLES = [{"targets": [[1, 2], [1, 4]], "lambda": "1/2", "s": ["1", "1", "1", "0"],
            "a": ["0"] * 4 + ["1", "0", "0", "-1"]}]
NOT_JSON = ["", "{not json", "null", "[]", "7", '"x"']

_ODD = st.sampled_from([
    None, True, False, 0, 1, -1, 2, 3, 10, 1.5, 2.0, "", "x", "1", " 1", "01", "1/0", "1/2",
    "-1", "0", "1e3", "nan", "12", [], {}, [1, 2], ["1", "2"], [[1, 2]], {"1": 1},
])
_KEYS = st.sampled_from(["", " 1", "01", "1", "2", "9", "x", "n", "u", "v", "dim", "boxes", "point"])
_RATIOS = st.sampled_from(["1/2", "2/3", "0", "1", "3", "-1/2", "x", "1/0", "1e-3", "nan", "inf",
                           "1/1" + "0" * 40])
_FLOATS = st.sampled_from(["0.1", "0", "-1", "1e-320", "1e308", "inf", "-inf", "nan", "x"])
_SMALL_INTS = st.sampled_from(["0", "1", "2", "3", "-1", "x"])
_TARGETS = st.sampled_from(["1-2", "1-3", "2-1", "1:2", "", "x", "1-9", "1-2,1-2"])


def _mutate(draw, value):
    """value with one part replaced, dropped, renamed or duplicated (a new copy)."""
    if isinstance(value, (dict, list)) and value and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(sorted(value) if isinstance(value, dict) else range(len(value))))
        out = dict(value) if isinstance(value, dict) else list(value)
        how = draw(st.sampled_from(["descend", "descend", "drop", "rename"]))
        if how == "descend":
            out[key] = _mutate(draw, value[key])
        elif how == "drop":
            del out[key]
        elif isinstance(out, dict):
            out[draw(_KEYS)] = out.pop(key)
        else:
            out.append(out[key])
        return out
    return draw(_ODD)


@st.composite
def _file_text(draw, valid):
    """One of the valid values as JSON text: as is, mutated up to three times, or not JSON."""
    how = draw(st.sampled_from(["as is", "as is", "mutated", "not json"]))
    if how == "not json":
        return draw(st.sampled_from(NOT_JSON))
    value = draw(st.sampled_from(valid))
    if how == "mutated":
        for _ in range(draw(st.integers(1, 3))):
            value = _mutate(draw, value)
    return json.dumps(value)


@st.composite
def _flags(draw, pools):
    """Each optional flag, present about a third of the time, with a value from its pool."""
    return [f"--{flag}={draw(pool)}" for flag, pool in pools.items() if not draw(st.integers(0, 2))]


@st.composite
def invocations(draw):
    """(argv, {file name: text}) for one CLI call; file names are relative to a temp dir."""
    cmd = draw(st.sampled_from([
        "box verify", "box build", "box threshold", "flow matrix", "flow attack",
        "flow recover", "flow theta",
    ]))
    files = {"g.json": draw(_file_text(BOX_GRAPHS))}
    pick = draw(st.integers(0, len(GAIN_GRAPHS) - 1))
    if cmd in ("flow attack", "flow theta"):
        files["g.json"] = draw(_file_text(GAIN_GRAPHS[pick:pick + 1]))
        target = TARGETS[pick] if draw(st.integers(0, 3)) else draw(_TARGETS)
    if cmd == "box verify":
        graph, rep = draw(st.sampled_from(TREE_REPS))
        files = {"g.json": draw(_file_text([graph])), "r.json": draw(_file_text([rep]))}
        argv = ["box", "verify", "r.json", "g.json"]
    elif cmd == "box build":
        strategy = draw(st.sampled_from(["tree", "edits"]))
        argv = ["box", "build", "g.json", "--out", "out.json", "--strategy", strategy]
        if strategy == "edits":  # only an edits build writes a trace
            argv += ["--trace-out", "trace.json"]
        if draw(st.booleans()):
            files["e.json"] = draw(_file_text(EDITS))
            argv += ["--edits", "e.json"]
            if draw(st.booleans()):
                files["b.json"] = draw(_file_text([rep for _, rep in TREE_REPS]))
                argv += ["--base-rep", "b.json"]
    elif cmd == "box threshold":
        argv = ["box", "build", "--strategy", "threshold", f"--clique={draw(_SMALL_INTS)}",
                f"--nested={draw(st.sampled_from(['', '1', '2,1', '3,3', '1,2', 'x', '0', '2,']))}",
                "--out", "out.json", "--graph-out", "gout.json"]
    elif cmd == "flow matrix":
        files["g.json"] = draw(_file_text(GAIN_GRAPHS))
        argv = ["flow", "matrix", "g.json", "--out", draw(st.sampled_from(["h.json", "no/h.json"]))]
    elif cmd == "flow attack":
        argv = ["flow", "attack", "g.json", f"--target={target}", "--out", "atk.json"]
        argv += draw(_flags({
            "mode": st.sampled_from(["basic", "colored", "robust"]),
            "lambda": _RATIOS, "eps1": _RATIOS, "eps2": _RATIOS, "schedule-gap": _RATIOS,
            "audit": _SMALL_INTS, "float-tolerance": _FLOATS,
        }))
    elif cmd == "flow recover":
        files["g.json"] = draw(_file_text(GAIN_GRAPHS[:1]))
        files["z.json"] = draw(_file_text(FLOWS))
        argv = ["flow", "recover", "g.json", "--flows", "z.json"] + draw(_flags({"ref": _RATIOS}))
        if draw(st.booleans()):
            files["a.json"] = draw(_file_text(BUNDLES))
            argv += ["--attack", "a.json"]
    else:
        argv = ["flow", "theta", "g.json", f"--target={target}"]
        argv += draw(_flags({"float-tolerance": _FLOATS}))
    return argv, files


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_cli(argv, files):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text)
        argv = [str(Path(tmp) / a) if a in files or a.endswith(".json") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a flag
                code = exc.code
    return code, out.getvalue(), err.getvalue()


@given(invocations())
@settings(max_examples=400, deadline=None)
def test_cli_contract_holds_on_malformed_input(case):
    argv, files = case
    code, out, err = run_cli(argv, files)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    # exit 0 always reports; a domain error (exit 1) may report or only diagnose on stderr
    if code == 0 or (code == 1 and out.strip()):
        json.loads(out, parse_constant=_reject_constant)
