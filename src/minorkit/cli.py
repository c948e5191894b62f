"""Command-line surface.

Subcommands:
    box verify | box build | box oracle
    flow matrix | flow attack | flow recover | flow theta

All numeric I/O is exact ("p/q" strings); floats appear only as display copies
in reports.  Exit codes: 0 success, 1 domain verdict failure, 2 input error.
The MINORKIT_SEED environment variable seeds sampling audits; the seed used is
printed in the report.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import sys
import time
from collections.abc import Iterable, Iterator
from fractions import Fraction

from . import build as bld
from . import stealth as st
from .boxes import (
    grid_from_json,
    grid_to_json,
    verify_grid,
    witnesses_to_json,
)
from .exceptions import BadBounds, BadNesting, MinorkitError, ParseError, TooLarge
from .flow import (
    _cell_sum,
    _recover,
    _tree,
    assemble_gain_matrix,
    pairs_from_json,
)
from .graph import Graph, _json_int, apply_edits, edits_from_json, graph_from_json, graph_to_json
from .ratio import fmt_pair, fmt_ratio, parse_pair, parse_ratio

OK, FAIL, BAD_INPUT = 0, 1, 2


def _dumps(obj) -> str:
    """The one text format of every report and file: compact JSON, ASCII-escaped."""
    return json.dumps(obj, separators=(",", ":"))


def _write_json(path: str, obj: dict) -> None:
    _write_text(path, (_dumps(obj), "\n"))


def _write_text(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks to `path`.tmp, then move that file onto `path`.

    On any failure, a chunk that raises included, the tmp file is removed and
    `path` is left as it was; an OSError is reported as ParseError.
    """
    tmp = path + ".tmp"
    try:
        try:
            with open(tmp, "w") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _seed() -> int:
    raw = os.environ.get("MINORKIT_SEED", "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise ParseError(f"MINORKIT_SEED must be an integer, got {raw!r}") from exc


def _finite_float(text: str) -> float:
    """argparse type for display tolerances: a finite float ("inf" would print NaN), not negative."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text!r}")
    return value


def _nonempty(text: str) -> str:
    """argparse type for file and value flags: an empty value ("--out=") is an input error, not no flag."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _display(value: Fraction, tolerance: float | None) -> float | None:
    """A float copy of an exact value, for reading only; None past the float range."""
    try:
        f = float(value)
    except OverflowError:
        return None
    if tolerance:
        steps = f / tolerance
        if math.isfinite(steps):  # a subnormal tolerance can overflow the quotient
            f = round(steps) * tolerance
    return f


class _Report:
    def __init__(self, command: str):
        self.t0 = time.monotonic()
        self.data: dict = {"command": command, "inputs": {}, "results": {}}

    def read(self, name: str, path: str):
        """The JSON in `path`, recorded under `name` in the inputs with the file's digest."""
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
            obj = json.loads(raw)
        except OSError as exc:  # a missing file, a directory, no permission
            raise ParseError(f"cannot read {path}: {exc}") from exc
        # bad JSON, bytes no UTF decodes, an int past the digit limit, nesting past the recursion limit
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{path} is not valid JSON: {exc}") from exc
        self.data["inputs"][name] = {"path": path, "sha256": hashlib.sha256(raw).hexdigest()[:16]}
        return obj

    def emit(self, code: int) -> int:
        self.data["timing_ms"] = int((time.monotonic() - self.t0) * 1000)
        self.data["exit_code"] = code
        print(_dumps(self.data))
        return code


# -- box commands -----------------------------------------------------------------


def cmd_box_verify(args) -> int:
    rep = _Report("box verify")
    gobj, robj = rep.read("graph", args.graph), rep.read("rep", args.rep)
    g = graph_from_json(gobj)
    r = grid_from_json(robj)
    c1, c2 = verify_grid(g, r)
    rep.data["results"] = {
        "c1_ok": c1.ok,
        "c1_violations": [[i, j, kind] for i, j, kind in c1.violations],
        "c2_ok": c2.ok,
        "c2_covered_vertices": list(c2.covered),
        "witnesses": witnesses_to_json(c2.rep),
        "dim": r.dim,
    }
    return rep.emit(OK if (c1.ok and c2.ok) else FAIL)


def cmd_box_build(args) -> int:
    if args.strategy != "edits" and (args.edits is not None or args.base_rep is not None):
        raise ParseError(f"--edits and --base-rep are read only by --strategy edits, not {args.strategy}")
    if args.base_rep is not None and args.edits is None:
        raise ParseError("--base-rep needs --edits: it represents the edit list's base")
    if args.strategy != "threshold" and (args.clique is not None or args.nested):
        raise ParseError(f"--clique and --nested are read only by --strategy threshold, not {args.strategy}")
    if args.strategy != "edits" and args.trace_out is not None:
        raise ParseError(f"--trace-out is written only by --strategy edits, not {args.strategy}")
    if (args.graph is not None) == (args.strategy == "threshold"):
        raise ParseError("--strategy tree and edits read a graph file; threshold builds its own graph")
    rep = _Report("box build")
    trace = None
    if args.strategy == "threshold":
        if args.clique is None:
            raise ParseError("--strategy threshold needs --clique (and optional --nested)")
        try:
            sizes = [int(x) for x in args.nested.split(",") if x]
        except ValueError as exc:
            raise ParseError(f"--nested wants a comma list of integers, got {args.nested!r}") from exc
        g = bld.threshold_graph(args.clique, sizes)
        r = bld._threshold_grid(args.clique, sizes)
    else:
        g = graph_from_json(rep.read("graph", args.graph))
        if args.strategy == "tree":
            r = bld._tree_grid(g)
        else:  # edits
            if args.edits is not None:
                seq = apply_edits(g, edits_from_json(rep.read("edits", args.edits)))
                base = None  # the pipeline builds and certifies a tree base
                if args.base_rep is not None:
                    base = grid_from_json(rep.read("base_rep", args.base_rep))
                trace = bld.build_from_edit_sequence(g, seq, base)
            else:
                _, trace = bld.tree_pipeline(g)
            r = trace.grid
    rep.data["results"] = {
        "dim": r.dim,
        "vertices": g.n,
        "edges": len(g.edges),
        "c1_ok": True,
        "c2_ok": True,
    }
    if trace is not None:
        rep.data["results"]["steps"] = len(trace.steps)
        rep.data["results"]["base_dim"] = trace.base_dim
        if args.trace_out is not None:
            _write_json(args.trace_out, bld.trace_to_json(trace))
            rep.data["results"]["trace_file"] = args.trace_out
    if args.out is not None:
        _write_json(args.out, grid_to_json(r))
        rep.data["results"]["rep_file"] = args.out
    if args.graph_out is not None:
        _write_json(args.graph_out, graph_to_json(g))
        rep.data["results"]["graph_file"] = args.graph_out
    return rep.emit(OK)


def cmd_box_oracle(args) -> int:
    if args.max_dim < 1:
        raise ParseError(f"--max-dim must be at least 1, got {args.max_dim}")
    rep = _Report("box oracle")
    g = graph_from_json(rep.read("graph", args.graph))
    res = bld.brute_force_strong_boxicity(g, max_dim=args.max_dim)
    rep.data["results"] = {"dim": res.dim, "max_dim": args.max_dim}
    if res.grid is not None and args.out is not None:
        _write_json(args.out, grid_to_json(res.grid))
        rep.data["results"]["rep_file"] = args.out
    return rep.emit(OK if res.dim is not None else FAIL)


# -- flow commands -----------------------------------------------------------------


# besides whitespace a target list holds only these: int() alone would also read
# a sign, an underscore or another script's digits in a label
_TARGET_CHARS = dict.fromkeys(map(ord, "0123456789-,"))


def _parse_targets(spec: str, g: Graph) -> list[tuple[int, int]]:
    """The edges of g that "u-v,..." names, each pair as written.

    A label is ASCII digits, with whitespace around it allowed; a sign, an
    underscore or a digit of another script makes the list an input error.
    Empty parts are skipped, but the list must name an edge.
    """
    out = []
    try:
        if spec.translate(_TARGET_CHARS).strip():
            raise ValueError("a label is not ASCII digits")
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            u, v = part.split("-")
            out.append((int(u), int(v)))
    except ValueError as exc:
        raise ParseError(f"bad target list {spec!r}; expected like '1-2,2-3'") from exc
    if not out:
        raise ParseError(f"target list {spec!r} names no edge")
    for u, v in out:
        if not g.has_edge(u, v):
            raise ParseError(f"target ({u},{v}) is not an edge")
    return out


def _matrix_text(h) -> Iterator[str]:
    """The text of _dumps(matrix_to_json(h)) + "\n", one row at a time.

    Each row is the all-zero row's text with its few nonzero cells spliced in
    over their "0"s: cell j's "0" sits at offset 2 + 4j, so a row costs one
    slice and one ``fmt_pair`` per nonzero cell, not n cells of work.
    """
    head = _dumps({"n": h.n, "t": h.t, "edges": [[u, v] for u, v in h.edges]})
    yield head[:-1] + ',"rows":['  # head ends with "}"
    zeros = "[" + ",".join(['"0"'] * h.n) + "]"
    sep = ""
    for cells in h._cells:
        pieces, end = [sep], 0
        for col, num, den in cells:
            at = 2 + 4 * col
            pieces += (zeros[end:at], fmt_pair(num, den))
            end = at + 1
        pieces.append(zeros[end:])
        yield "".join(pieces)
        sep = ","
    yield "]}\n"


def cmd_flow_matrix(args) -> int:
    rep = _Report("flow matrix")
    g = graph_from_json(rep.read("graph", args.graph))
    h = assemble_gain_matrix(g)
    rep.data["results"] = {
        "n": h.n,
        "t": h.t,
        # summed on ints from the cells the file is written from
        "row_sums_zero": all(_cell_sum(cells)[0] == 0 for cells in h._cells),
    }
    if args.out is not None:
        _write_text(args.out, _matrix_text(h))
        rep.data["results"]["matrix_file"] = args.out
    return rep.emit(OK)


def _attack_text(av: st.AttackVector) -> list[str]:
    """The attack's t entries as text, written from its int pairs: "0" off its support."""
    attack = ["0"] * av.t
    for i, (num, den) in av.entries.items():
        attack[i - 1] = fmt_pair(num, den)
    return attack


def cmd_flow_attack(args) -> int:
    robust = args.mode == "robust"
    if robust and any(x is not None for x in (args.out, args.lam, args.schedule_gap, args.float_tolerance)):
        raise ParseError("--out, --lambda, --schedule-gap and --float-tolerance are read only by "
                         "--mode basic and colored, not robust")
    if not robust and any(x is not None for x in (args.eps1, args.eps2, args.audit)):
        raise ParseError(f"--eps1, --eps2 and --audit are read only by --mode robust, not {args.mode}")
    if args.lam is not None and args.schedule_gap is not None:
        raise ParseError("--lambda and --schedule-gap exclude each other: the schedule chooses lambda")
    rep = _Report("flow attack")
    g = graph_from_json(rep.read("graph", args.graph))
    targets = _parse_targets(args.target, g)
    outcome = st.feasibility(g, targets)
    if isinstance(outcome, st.Infeasibility):
        rep.data["results"] = {
            "feasible": False,
            "witness_cycle_vertices": list(outcome.cycle_vertices),
            "witness_cycle_edges": sorted(map(list, outcome.cycle_edges)),
            "violating_edge": list(outcome.edge),
        }
        return rep.emit(FAIL)
    spec = outcome
    results: dict = {
        "feasible": True,
        "k": spec.k,
        "components": [list(c) for c in spec.comps],
        "mode": args.mode,
    }
    tol = args.float_tolerance

    if robust:
        text1 = "1" if args.eps1 is None else args.eps1
        text2 = "2" if args.eps2 is None else args.eps2
        audit = 20 if args.audit is None else args.audit
        if audit < 0:
            raise ParseError(f"--audit must not be negative, got {audit}")
        eps1, eps2 = parse_ratio(text1), parse_ratio(text2)
        sv, threshold = st.build_robust_stealth(spec, g, eps1, eps2)
        seed = _seed()
        worst = st.robust_attack_audit(
            spec, sv, eps1, eps2, samples=audit, seed=seed
        ) if audit > 0 else None
        results.update({
            "lambda_threshold": fmt_ratio(threshold),
            "lambda": fmt_ratio(sv.lam),
            "stealth": [fmt_ratio(v) for v in sv.values],
            "guarantee": f"every boundary entry stays >= {fmt_ratio(eps1 / 2)} "
                         f"for all gains in [{text1}, {text2}]",
            "audit_samples": audit,
            "seed": seed,
        })
        if worst is not None:
            results["audit_min_boundary_entry"] = fmt_ratio(worst)
        rep.data["results"] = results
        return rep.emit(OK)

    h = assemble_gain_matrix(g)
    colors = None
    if args.mode == "colored":
        gc = st.component_graph(spec)
        colors, chi, exact = st.color_assignment(gc)
        results["chi"] = chi
        results["chi_exact"] = exact
        results["colors"] = {str(i): c for i, c in colors.items()}

    if args.schedule_gap is not None:
        gap = parse_ratio(args.schedule_gap)
        if gap < 0:  # no ratio comes within a negative gap: the ladder would run to its end
            raise ParseError(f"--schedule-gap must not be negative, got {args.schedule_gap}")
        sv, av, ratio = st._schedule(spec, h, gap, colors)
    else:
        hint = parse_ratio(args.lam) if args.lam is not None else Fraction(1, 2)
        if not 0 < hint < 1:
            raise ParseError(f"--lambda must lie strictly between 0 and 1, got {args.lam}")
        sv, av, ratio = st._stealth_attack(spec, h, colors, hint)

    c = len(set(sv.exponents.values()))
    # formatted once: the report and the --out bundle share these lists
    lam = fmt_ratio(sv.lam)
    comp_text = {i: fmt_ratio(sv.values[comp[0] - 1]) for i, comp in enumerate(spec.comps, start=1)}
    stealth = [comp_text[spec.comp_of[v]] for v in g.vertices()]
    attack = _attack_text(av)
    support = sorted(av.support)  # the expected support too: the build asserts they are equal
    results.update({
        "lambda": lam,
        "stealth": stealth,
        "attack": attack,
        "support": support,
        "expected_support": support,
        "ratio": fmt_ratio(ratio),
        "ratio_float": _display(ratio, tol),
        "distinct_exponents": c,
        "ratio_bound_at_lambda": fmt_ratio(st.ratio_bound(c, sv.lam)),
        "bound_k_minus_1": spec.k - 1,
    })
    rep.data["results"] = results
    if args.out is not None:
        _write_json(args.out, {
            "targets": sorted(map(list, spec.targets)),
            "lambda": lam,
            "s": stealth,
            "a": attack,
        })
        rep.data["results"]["attack_file"] = args.out
    return rep.emit(OK)


def cmd_flow_recover(args) -> int:
    """Recover the states from the flows and, with --attack, replay the attack on them.

    The replay recovers y from the attack vector a alone, with reference 0,
    and reports x + y as the corrupted states.  That equals recovering z + a
    with x's reference: the walk is linear in the flows and the reference, and
    the breadth-first tree depends only on the graph, so both recoveries walk
    one tree.  Once x and y each pass the per-edge check, x_u - x_v =
    z_e / b_e and y_u - y_v = a_e / b_e, so each edge's delta is exactly the
    difference a_e / b_e that y's check compared.  Given that z passed, z + a is
    consistent exactly when a is, and the two checks fail first on the same
    edge because they walk the edges in the same order; so the Inconsistent
    verdict and the edge it names are unchanged.

    Every value stays a (num, den > 0) int pair from the input text to the
    output text: sums and comparisons cross-multiply, and ``fmt_pair`` prints.
    """
    rep = _Report("flow recover")
    gobj, zobj = rep.read("graph", args.graph), rep.read("flows", args.flows)
    g = graph_from_json(gobj)
    h = assemble_gain_matrix(g)
    z = pairs_from_json(zobj)
    tree = _tree(g)  # the walk depends only on g: the replay takes it too
    x, _ = _recover(h, z, g, parse_pair(args.ref), tree)
    results: dict = {"states": [fmt_pair(n, d) for n, d in x]}
    if args.attack is not None:
        aobj = rep.read("attack", args.attack)
        try:
            a = pairs_from_json(aobj, "a")
            ends = [(_json_int(u, "target"), _json_int(v, "target")) for u, v in aobj["targets"]]
            targets = {(min(e), max(e)) for e in ends}
            s = pairs_from_json(aobj, "s") if "s" in aobj else None
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad attack bundle: {exc}") from exc
        if len(a) != len(z):
            raise ParseError(f"attack vector has length {len(a)}, expected {len(z)}")
        if s is not None and len(s) != g.n:
            raise ParseError(f"stealth vector has length {len(s)}, expected {g.n}")
        # delta_e = a_e / b_e, the difference the replay checked; a zero a_e keeps its own (0, den)
        y, deltas = _recover(h, a, g, (0, 1), tree)
        results["corrupted_states"] = [
            fmt_pair(xn * yd + yn * xd, xd * yd) for (xn, xd), (yn, yd) in zip(x, y)
        ]
        results["edge_difference_deltas"] = {
            f"{u}-{v}": fmt_pair(dn, dd) for (u, v), (dn, dd) in deltas.items()
        }
        results["deltas_nonzero_exactly_on_targets"] = all(
            (dn != 0) == (e in targets) for e, (dn, _) in deltas.items()
        )
        if s is not None:
            # dn / dd == s_u - s_v, cross-multiplied
            results["deltas_match_stealth_jumps"] = all(
                dn * ud * vd == (un * vd - vn * ud) * dd
                for (u, v), (dn, dd) in deltas.items()
                for (un, ud), (vn, vd) in [(s[u - 1], s[v - 1])]
            )
    rep.data["results"] = results
    return rep.emit(OK)


def cmd_flow_theta(args) -> int:
    rep = _Report("flow theta")
    g = graph_from_json(rep.read("graph", args.graph))
    targets = _parse_targets(args.target, g)
    outcome = st.feasibility(g, targets)
    if isinstance(outcome, st.Infeasibility):
        rep.data["results"] = {
            "feasible": False,
            "witness_cycle_vertices": list(outcome.cycle_vertices),
        }
        return rep.emit(FAIL)
    h = assemble_gain_matrix(g)
    bounds = st.theta_bounds(outcome, h)
    tol = args.float_tolerance
    rep.data["results"] = {
        "feasible": True,
        "k": bounds["k"],
        "chi": bounds["chi"],
        "chi_exact": bounds["chi_exact"],
        "lower": fmt_ratio(bounds["lower"]),
        "constructive_basic": fmt_ratio(bounds["constructive_basic"]),
        "constructive_colored": fmt_ratio(bounds["constructive_colored"]),
        "oracle": fmt_ratio(bounds["oracle"]),
        "oracle_float": _display(bounds["oracle"], tol),
        "bound_k": fmt_ratio(bounds["bound_k"]),
        "bound_chi": fmt_ratio(bounds["bound_chi"]),
        "oracle_within_colored_bound": bounds["oracle_within_colored_bound"],
        "support_policy": bounds["support_policy"],
    }
    return rep.emit(OK)


# -- entry point -------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one."""
    p = argparse.ArgumentParser(prog="minorkit")
    sub = p.add_subparsers(dest="group", required=True)

    box = sub.add_parser("box", help="strong box representations")
    boxsub = box.add_subparsers(dest="cmd", required=True)

    bv = boxsub.add_parser("verify", help="check a representation against a graph")
    bv.add_argument("rep")
    bv.add_argument("graph")
    bv.set_defaults(func=cmd_box_verify)

    bb = boxsub.add_parser("build", help="construct a verified representation")
    bb.add_argument("graph", nargs="?")
    bb.add_argument("--strategy", choices=["tree", "threshold", "edits"], default="edits")
    bb.add_argument("--edits", type=_nonempty, help="JSON list of edit operations")
    bb.add_argument("--base-rep", dest="base_rep", type=_nonempty, help="representation of the edit base")
    bb.add_argument("--clique", type=int, help="threshold: clique size")
    bb.add_argument("--nested", default="", help="threshold: comma list of neighbourhood sizes")
    bb.add_argument("--out", type=_nonempty, help="write the representation JSON here")
    bb.add_argument("--trace-out", dest="trace_out", type=_nonempty, help="write the construction trace here")
    bb.add_argument("--graph-out", dest="graph_out", type=_nonempty, help="write the (generated) graph here")
    bb.set_defaults(func=cmd_box_build)

    bo = boxsub.add_parser("oracle", help="tiny-instance exact smallest dimension")
    bo.add_argument("graph")
    bo.add_argument("--max-dim", dest="max_dim", type=int, default=2)
    bo.add_argument("--out", type=_nonempty)
    bo.set_defaults(func=cmd_box_oracle)

    flow = sub.add_parser("flow", help="flow graphs and stealthy attacks")
    flowsub = flow.add_subparsers(dest="cmd", required=True)

    fm = flowsub.add_parser("matrix", help="assemble and export the gain matrix")
    fm.add_argument("graph")
    fm.add_argument("--out", type=_nonempty)
    fm.set_defaults(func=cmd_flow_matrix)

    fa = flowsub.add_parser("attack", help="feasibility and stealth-vector construction")
    fa.add_argument("graph")
    fa.add_argument("--target", required=True, help="edges like '1-2,2-3'")
    fa.add_argument("--mode", choices=["basic", "colored", "robust"], default="basic")
    fa.add_argument("--lambda", dest="lam", type=_nonempty, help="basic and colored: rational hint in (0,1)")
    fa.add_argument("--eps1", help="robust: gain lower bound (default 1)")
    fa.add_argument("--eps2", help="robust: gain upper bound (default 2)")
    fa.add_argument("--schedule-gap", dest="schedule_gap",
                    help="basic and colored: push lambda towards 1 until the ratio is this close to its limit")
    fa.add_argument("--audit", type=int, help="robust: sampled gain matrices (default 20)")
    fa.add_argument("--float-tolerance", dest="float_tolerance", type=_finite_float, default=None,
                    help="display rounding only; never feeds the exact core")
    fa.add_argument("--out", type=_nonempty, help="basic and colored: write the attack bundle here")
    fa.set_defaults(func=cmd_flow_attack)

    fr = flowsub.add_parser("recover", help="differential state recovery")
    fr.add_argument("graph")
    fr.add_argument("--flows", required=True)
    fr.add_argument("--ref", default="0", help="reference state of vertex 1")
    fr.add_argument("--attack", type=_nonempty, help="attack bundle to replay on top of the flows")
    fr.set_defaults(func=cmd_flow_recover)

    ft = flowsub.add_parser("theta", help="edge variation factor bracket")
    ft.add_argument("graph")
    ft.add_argument("--target", required=True)
    ft.add_argument("--float-tolerance", dest="float_tolerance", type=_finite_float, default=None)
    ft.set_defaults(func=cmd_flow_theta)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # BadNesting and BadBounds reject flag values (--clique, --nested, --eps1/--eps2)
    except (ParseError, TooLarge, BadNesting, BadBounds) as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return BAD_INPUT
    except MinorkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
