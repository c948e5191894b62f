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
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import build as bld
from . import stealth as st
from .boxes import Representation, rep_from_json, rep_to_json, verify_c1, verify_c2
from .exceptions import MinorkitError, ParseError, TooLarge
from .flow import (
    assemble_gain_matrix,
    matrix_to_json,
    recover_states,
    vector_from_json,
)
from .graph import Graph, edits_from_json, graph_from_json, graph_to_json, apply_edits
from .ratio import fmt_ratio, parse_ratio

OK, FAIL, BAD_INPUT = 0, 1, 2


def _read_json(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return json.loads(raw), hashlib.sha256(raw).hexdigest()[:16]
    except FileNotFoundError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _write_json(path: str, obj: dict) -> None:
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _seed() -> int:
    raw = os.environ.get("MINORKIT_SEED", "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise ParseError(f"MINORKIT_SEED must be an integer, got {raw!r}") from exc


def _display(value: Fraction, tolerance: float | None) -> float:
    f = float(value)
    if tolerance and tolerance > 0:
        f = round(f / tolerance) * tolerance
    return f


class _Report:
    def __init__(self, command: str):
        self.t0 = time.monotonic()
        self.data: dict = {"command": command, "inputs": {}, "results": {}}

    def input(self, name: str, path: str, digest: str) -> None:
        self.data["inputs"][name] = {"path": path, "sha256": digest}

    def emit(self, code: int) -> int:
        self.data["timing_ms"] = int((time.monotonic() - self.t0) * 1000)
        self.data["exit_code"] = code
        print(json.dumps(self.data, indent=2))
        return code


# -- box commands -----------------------------------------------------------------


def cmd_box_verify(args) -> int:
    rep = _Report("box verify")
    gobj, gdig = _read_json(args.graph)
    robj, rdig = _read_json(args.rep)
    rep.input("graph", args.graph, gdig)
    rep.input("rep", args.rep, rdig)
    g = graph_from_json(gobj)
    r = rep_from_json(robj)
    c1 = verify_c1(g, r)
    c2 = verify_c2(g, r)
    rep.data["results"] = {
        "c1_ok": c1.ok,
        "c1_violations": [[i, j, kind] for i, j, kind in c1.violations],
        "c2_ok": c2.ok,
        "c2_covered_vertices": list(c2.covered),
        "witnesses": {
            str(v): {"point": [fmt_ratio(x) for x in w.point], "radius": fmt_ratio(w.radius)}
            for v, w in c2.witnesses.items()
        },
        "dim": r.dim,
    }
    return rep.emit(OK if (c1.ok and c2.ok) else FAIL)


def cmd_box_build(args) -> int:
    rep = _Report("box build")
    if args.strategy == "threshold":
        if args.clique is None:
            raise ParseError("--strategy threshold needs --clique (and optional --nested)")
        sizes = [int(x) for x in args.nested.split(",") if x] if args.nested else []
        g = bld.threshold_graph(args.clique, sizes)
        r = bld.build_threshold_rep(args.clique, sizes)
        trace = None
    else:
        if not args.graph:
            raise ParseError("graph file required")
        gobj, gdig = _read_json(args.graph)
        rep.input("graph", args.graph, gdig)
        g = graph_from_json(gobj)
        if args.strategy == "tree":
            r = bld.build_tree_rep(g)
            trace = None
        else:  # edits
            if args.edits:
                eobj, edig = _read_json(args.edits)
                rep.input("edits", args.edits, edig)
                seq = apply_edits(g, edits_from_json(eobj))
                if args.base_rep:
                    bobj, bdig = _read_json(args.base_rep)
                    rep.input("base_rep", args.base_rep, bdig)
                    base = rep_from_json(bobj)
                else:
                    base = bld.build_tree_rep(seq.base)
                trace = bld.build_from_edit_sequence(g, seq, base)
            else:
                _, trace = bld.tree_pipeline(g)
            r = trace.final
    # builders self-verify, but reports carry freshly recomputed verdicts
    c1 = verify_c1(g, r)
    c2 = verify_c2(g, r)
    if not (c1.ok and c2.ok):
        rep.data["results"] = {"error": "built representation failed verification"}
        return rep.emit(FAIL)
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
        if args.trace_out:
            _write_json(args.trace_out, bld.trace_to_json(trace))
            rep.data["results"]["trace_file"] = args.trace_out
    if args.out:
        _write_json(args.out, rep_to_json(Representation(r.boxes, c2.witnesses)))
        rep.data["results"]["rep_file"] = args.out
    if args.graph_out:
        _write_json(args.graph_out, graph_to_json(g))
        rep.data["results"]["graph_file"] = args.graph_out
    return rep.emit(OK)


def cmd_box_oracle(args) -> int:
    rep = _Report("box oracle")
    gobj, gdig = _read_json(args.graph)
    rep.input("graph", args.graph, gdig)
    g = graph_from_json(gobj)
    res = bld.brute_force_strong_boxicity(g, max_dim=args.max_dim)
    rep.data["results"] = {"dim": res.dim, "max_dim": args.max_dim}
    if res.rep is not None and args.out:
        _write_json(args.out, rep_to_json(res.rep))
        rep.data["results"]["rep_file"] = args.out
    return rep.emit(OK if res.dim is not None else FAIL)


# -- flow commands -----------------------------------------------------------------


def _parse_targets(spec: str, g: Graph) -> list[tuple[int, int]]:
    out = []
    try:
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            u, v = part.split("-")
            out.append((int(u), int(v)))
    except ValueError as exc:
        raise ParseError(f"bad target list {spec!r}; expected like '1-2,2-3'") from exc
    for u, v in out:
        if not g.has_edge(u, v):
            raise ParseError(f"target ({u},{v}) is not an edge")
    return out


def cmd_flow_matrix(args) -> int:
    rep = _Report("flow matrix")
    gobj, gdig = _read_json(args.graph)
    rep.input("graph", args.graph, gdig)
    g = graph_from_json(gobj)
    h = assemble_gain_matrix(g)
    sums = h.row_sums()
    rep.data["results"] = {
        "n": h.n,
        "t": h.t,
        "row_sums_zero": all(s == 0 for s in sums),
    }
    if args.out:
        _write_json(args.out, matrix_to_json(h))
        rep.data["results"]["matrix_file"] = args.out
    return rep.emit(OK)


def cmd_flow_attack(args) -> int:
    rep = _Report("flow attack")
    gobj, gdig = _read_json(args.graph)
    rep.input("graph", args.graph, gdig)
    g = graph_from_json(gobj)
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

    if args.mode == "robust":
        sv, threshold = st.build_robust_stealth(spec, g, parse_ratio(args.eps1), parse_ratio(args.eps2))
        seed = _seed()
        worst = st.robust_attack_audit(
            spec, sv, parse_ratio(args.eps1), parse_ratio(args.eps2), samples=args.audit, seed=seed
        ) if args.audit > 0 else None
        results.update({
            "lambda_threshold": fmt_ratio(threshold),
            "lambda": fmt_ratio(sv.lam),
            "stealth": [fmt_ratio(v) for v in sv.values],
            "guarantee": f"every boundary entry stays >= {fmt_ratio(parse_ratio(args.eps1)/2)} "
                         f"for all gains in [{args.eps1}, {args.eps2}]",
            "audit_samples": args.audit,
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
        sv, ratio = st.variation_limit_schedule(
            spec, h, parse_ratio(args.schedule_gap), colors=colors
        )
        av_values = h.multiply(sv.values)
        support = sorted(i + 1 for i, val in enumerate(av_values) if val != 0)
        av = st.AttackVector(values=av_values, support=frozenset(support))
    else:
        hint = parse_ratio(args.lam) if args.lam else Fraction(1, 2)
        if colors is not None:
            sv, av = st.build_stealth_colored(spec, h, colors, hint)
        else:
            sv, av = st.build_stealth(spec, h, hint)
        ratio = st.variation_ratio(sv)

    c = len(set(sv.exponents.values()))
    results.update({
        "lambda": fmt_ratio(sv.lam),
        "stealth": [fmt_ratio(v) for v in sv.values],
        "attack": [fmt_ratio(v) for v in av.values],
        "support": sorted(av.support),
        "expected_support": sorted(spec.expected_support()),
        "ratio": fmt_ratio(ratio),
        "ratio_float": _display(ratio, tol),
        "distinct_exponents": c,
        "ratio_bound_at_lambda": fmt_ratio(st.ratio_bound(c, sv.lam)),
        "bound_k_minus_1": spec.k - 1,
    })
    rep.data["results"] = results
    if args.out:
        _write_json(args.out, {
            "targets": sorted(map(list, spec.targets)),
            "lambda": fmt_ratio(sv.lam),
            "s": [fmt_ratio(v) for v in sv.values],
            "a": [fmt_ratio(v) for v in av.values],
        })
        rep.data["results"]["attack_file"] = args.out
    return rep.emit(OK)


def cmd_flow_recover(args) -> int:
    rep = _Report("flow recover")
    gobj, gdig = _read_json(args.graph)
    zobj, zdig = _read_json(args.flows)
    rep.input("graph", args.graph, gdig)
    rep.input("flows", args.flows, zdig)
    g = graph_from_json(gobj)
    h = assemble_gain_matrix(g)
    z = vector_from_json(zobj)
    x = recover_states(h, z, g, parse_ratio(args.ref))
    results: dict = {"states": [fmt_ratio(v) for v in x]}
    if args.attack:
        aobj, adig = _read_json(args.attack)
        rep.input("attack", args.attack, adig)
        try:
            a = tuple(parse_ratio(v) for v in aobj["a"])
            targets = {tuple(sorted(map(int, e))) for e in aobj["targets"]}
            s = [parse_ratio(v) for v in aobj["s"]] if "s" in aobj else None
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad attack bundle: {exc}") from exc
        if len(a) != len(z):
            raise ParseError(f"attack vector has length {len(a)}, expected {len(z)}")
        if s is not None and len(s) != g.n:
            raise ParseError(f"stealth vector has length {len(s)}, expected {g.n}")
        corrupted = tuple(zi + ai for zi, ai in zip(z, a))
        x_bad = recover_states(h, corrupted, g, parse_ratio(args.ref))
        deltas = {
            (u, v): (x_bad[u - 1] - x_bad[v - 1]) - (x[u - 1] - x[v - 1]) for u, v in g.edges
        }
        results["corrupted_states"] = [fmt_ratio(v) for v in x_bad]
        results["edge_difference_deltas"] = {
            f"{u}-{v}": fmt_ratio(d) for (u, v), d in deltas.items()
        }
        results["deltas_nonzero_exactly_on_targets"] = all(
            (d != 0) == (e in targets) for e, d in deltas.items()
        )
        if s is not None:
            results["deltas_match_stealth_jumps"] = all(
                d == s[u - 1] - s[v - 1] for (u, v), d in deltas.items()
            )
    rep.data["results"] = results
    return rep.emit(OK)


def cmd_flow_theta(args) -> int:
    rep = _Report("flow theta")
    gobj, gdig = _read_json(args.graph)
    rep.input("graph", args.graph, gdig)
    g = graph_from_json(gobj)
    targets = _parse_targets(args.target, g)
    outcome = st.feasibility(g, targets)
    if isinstance(outcome, st.Infeasibility):
        rep.data["results"] = {
            "feasible": False,
            "witness_cycle_vertices": list(outcome.cycle_vertices),
        }
        return rep.emit(FAIL)
    h = assemble_gain_matrix(g)
    bounds = st.theta_bounds(outcome, h, grid=args.grid)
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


def _build_parser() -> argparse.ArgumentParser:
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
    bb.add_argument("--edits", help="JSON list of edit operations")
    bb.add_argument("--base-rep", dest="base_rep", help="representation of the edit base")
    bb.add_argument("--clique", type=int, help="threshold: clique size")
    bb.add_argument("--nested", default="", help="threshold: comma list of neighbourhood sizes")
    bb.add_argument("--out", help="write the representation JSON here")
    bb.add_argument("--trace-out", dest="trace_out", help="write the construction trace here")
    bb.add_argument("--graph-out", dest="graph_out", help="write the (generated) graph here")
    bb.set_defaults(func=cmd_box_build)

    bo = boxsub.add_parser("oracle", help="tiny-instance exact smallest dimension")
    bo.add_argument("graph")
    bo.add_argument("--max-dim", dest="max_dim", type=int, default=2)
    bo.add_argument("--out")
    bo.set_defaults(func=cmd_box_oracle)

    flow = sub.add_parser("flow", help="flow graphs and stealthy attacks")
    flowsub = flow.add_subparsers(dest="cmd", required=True)

    fm = flowsub.add_parser("matrix", help="assemble and export the gain matrix")
    fm.add_argument("graph")
    fm.add_argument("--out")
    fm.set_defaults(func=cmd_flow_matrix)

    fa = flowsub.add_parser("attack", help="feasibility and stealth-vector construction")
    fa.add_argument("graph")
    fa.add_argument("--target", required=True, help="edges like '1-2,2-3'")
    fa.add_argument("--mode", choices=["basic", "colored", "robust"], default="basic")
    fa.add_argument("--lambda", dest="lam", help="rational hint in (0,1)")
    fa.add_argument("--eps1", default="1", help="robust: gain lower bound")
    fa.add_argument("--eps2", default="2", help="robust: gain upper bound")
    fa.add_argument("--schedule-gap", dest="schedule_gap",
                    help="push lambda towards 1 until the ratio is this close to its limit")
    fa.add_argument("--audit", type=int, default=20, help="robust: sampled gain matrices")
    fa.add_argument("--float-tolerance", dest="float_tolerance", type=float, default=None,
                    help="display rounding only; never feeds the exact core")
    fa.add_argument("--out", help="write the attack bundle here")
    fa.set_defaults(func=cmd_flow_attack)

    fr = flowsub.add_parser("recover", help="differential state recovery")
    fr.add_argument("graph")
    fr.add_argument("--flows", required=True)
    fr.add_argument("--ref", default="0", help="reference state of vertex 1")
    fr.add_argument("--attack", help="attack bundle to replay on top of the flows")
    fr.set_defaults(func=cmd_flow_recover)

    ft = flowsub.add_parser("theta", help="edge variation factor bracket")
    ft.add_argument("graph")
    ft.add_argument("--target", required=True)
    ft.add_argument("--grid", type=int, default=12)
    ft.add_argument("--float-tolerance", dest="float_tolerance", type=float, default=None)
    ft.set_defaults(func=cmd_flow_theta)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, TooLarge) as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return BAD_INPUT
    except MinorkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
