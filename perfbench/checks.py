"""Independent output checks.

Standard library only, and no minorkit function is called: every verdict the
CLI prints is recomputed here from the generated inputs and the files the
CLI wrote.  Each check returns a list of problems; an empty list means the
job's output is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import ceil, lcm

Edge = tuple[int, int]


def load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


# -- box representations ------------------------------------------------------------


def parse_rep(obj: dict, witnesses: dict | None = None) -> tuple[dict[int, list[tuple[int, int]]], dict[int, tuple]]:
    """Boxes and witnesses with every coordinate scaled to an integer by one common factor.

    Scaling by the least common denominator keeps every comparison exact while
    avoiding Fraction arithmetic on deep trees' 400-bit coordinates.
    """
    wobj = obj.get("witnesses", {}) if witnesses is None else witnesses
    boxes = {int(v): [(Fraction(lo), Fraction(hi)) for lo, hi in ivs] for v, ivs in obj["boxes"].items()}
    wits = {int(v): ([Fraction(x) for x in w["point"]], Fraction(w["radius"])) for v, w in wobj.items()}
    dens = {x.denominator for b in boxes.values() for iv in b for x in iv}
    dens |= {x.denominator for p, r in wits.values() for x in (*p, r)}
    scale = lcm(*dens)

    def up(x: Fraction) -> int:
        return x.numerator * (scale // x.denominator)

    return (
        {v: [(up(lo), up(hi)) for lo, hi in b] for v, b in boxes.items()},
        {v: (tuple(up(x) for x in p), up(r)) for v, (p, r) in wits.items()},
    )


def _meet(a, b) -> bool:
    return all(max(alo, blo) <= min(ahi, bhi) for (alo, ahi), (blo, bhi) in zip(a, b))


def witness_problems(boxes: dict, v: int, point: tuple, radius: int) -> list[str]:
    """The point lies on v's boundary and the cube of half-side `radius` misses every other box."""
    box = boxes[v]
    if radius <= 0 or len(point) != len(box):
        return [f"witness of {v} has a bad radius or dimension"]
    inside = all(lo <= x <= hi for (lo, hi), x in zip(box, point))
    on_face = any(x == lo or x == hi for (lo, hi), x in zip(box, point))
    if not (inside and on_face):
        return [f"witness of {v} is not on its boundary"]
    cube = [(x - radius, x + radius) for x in point]
    for u, b in boxes.items():
        if u != v and _meet(cube, b):
            return [f"witness cube of {v} touches box {u}"]
    return []


def rep_problems(obj: dict, n: int, edges: list[Edge], dim: int | None) -> list[str]:
    """Pairwise overlap equals edge presence, and every vertex has a valid witness."""
    boxes, wits = parse_rep(obj)
    probs: list[str] = []
    if sorted(boxes) != list(range(1, n + 1)):
        return ["representation covers the wrong vertex set"]
    if dim is not None and obj["dim"] != dim:
        probs.append(f"dimension {obj['dim']}, expected {dim}")
    present = set(edges)
    for i in range(1, n + 1):
        bi = boxes[i]
        for j in range(i + 1, n + 1):
            if _meet(bi, boxes[j]) != ((i, j) in present):
                probs.append(f"boxes {i},{j} overlap does not match the graph")
                return probs
    if sorted(wits) != list(range(1, n + 1)):
        probs.append("some vertex has no stored witness")
    for v, (p, r) in wits.items():
        probs += witness_problems(boxes, v, p, r)
    return probs


def build_problems(rep: dict, ctx: dict) -> list[str]:
    res = rep["results"]
    probs = []
    if not (res.get("c1_ok") and res.get("c2_ok")):
        probs.append("build did not report both conditions")
    if res.get("dim") != ctx["dim"]:
        probs.append(f"dim {res.get('dim')}, expected {ctx['dim']}")
    if "steps" in ctx and res.get("steps") != ctx["steps"]:
        probs.append(f"{res.get('steps')} steps, expected {ctx['steps']}")
    if res.get("vertices") != ctx["n"] or res.get("edges") != len(ctx["edges"]):
        probs.append("vertex or edge count differs from the input")
    if "graph_out" in ctx:
        g = load(ctx["graph_out"])
        got = sorted(_norm(e["u"], e["v"]) for e in g["edges"])
        if g["n"] != ctx["n"] or got != ctx["edges"]:
            probs.append("written graph differs from the threshold graph")
    return probs + rep_problems(load(ctx["rep_out"]), ctx["n"], ctx["edges"], ctx["dim"])


def verify_ok_problems(rep: dict, ctx: dict) -> list[str]:
    """A valid representation: both conditions hold and every returned witness checks out."""
    res = rep["results"]
    if not (res["c1_ok"] and res["c2_ok"]) or res["c1_violations"] or res["c2_covered_vertices"]:
        return ["valid representation was rejected"]
    boxes, wits = parse_rep(load(ctx["rep"]), res["witnesses"])
    if sorted(wits) != sorted(boxes):
        return ["verify did not return a witness per vertex"]
    probs = []
    for v, (p, r) in wits.items():
        probs += witness_problems(boxes, v, p, r)
    return probs


def verify_overlap_problems(rep: dict, ctx: dict) -> list[str]:
    res = rep["results"]
    i, j = ctx["pair"]
    if res["c1_ok"] or [i, j, "unexpected"] not in res["c1_violations"]:
        return [f"planted overlap {i},{j} was not reported"]
    return []


def verify_buried_problems(rep: dict, ctx: dict) -> list[str]:
    res = rep["results"]
    if not res["c1_ok"] or res["c2_ok"] or res["c2_covered_vertices"] != [ctx["buried"]]:
        return [f"buried box {ctx['buried']} was not the only covered vertex"]
    return []


# -- flow attacks -------------------------------------------------------------------------


def _components(ctx: dict) -> tuple[dict[int, int], int]:
    """Vertex -> 1-based component index, components ordered by smallest vertex."""
    order = sorted(ctx["blocks"], key=min)
    return {v: i for i, vs in enumerate(order, start=1) for v in vs}, len(order)


def attack_vector(ctx: dict, s: list[Fraction]) -> list[Fraction]:
    """H s from per-edge gains."""
    n = ctx["n"]
    a = [Fraction(0)] * (n + len(ctx["edges"]))
    for pos, ((u, v), b) in enumerate(zip(ctx["edges"], ctx["gains"])):
        f = b * (s[u - 1] - s[v - 1])
        a[u - 1] += f
        a[v - 1] -= f
        a[n + pos] = f
    return a


def expected_support(ctx: dict) -> list[int]:
    index = {e: ctx["n"] + 1 + pos for pos, e in enumerate(ctx["edges"])}
    return sorted({index[e] for e in ctx["targets"]} | {v for e in ctx["targets"] for v in e})


def _stealth_problems(res: dict, ctx: dict) -> list[str]:
    comp_of, k = _components(ctx)
    if not res.get("feasible") or res.get("k") != k:
        return [f"expected a feasible target set with {k} components"]
    s = [Fraction(x) for x in res["stealth"]]
    level: dict[int, Fraction] = {}
    for v, sv in enumerate(s, start=1):
        if level.setdefault(comp_of[v], sv) != sv:
            return ["stealth vector is not constant on a component"]
    return []


def attack_problems(rep: dict, ctx: dict) -> list[str]:
    """Support equals target indices plus boundary vertices, and a equals H s."""
    res = rep["results"]
    probs = _stealth_problems(res, ctx)
    if probs:
        return probs
    s = [Fraction(x) for x in res["stealth"]]
    a = attack_vector(ctx, s)
    if [Fraction(x) for x in res["attack"]] != a:
        probs.append("attack vector differs from H s")
    support = sorted(i for i, x in enumerate(a, start=1) if x != 0)
    want = expected_support(ctx)
    if support != want or res["support"] != want or res["expected_support"] != want:
        probs.append("attack support differs from targets plus boundary vertices")
    if "colors" in res:
        comp_of, _ = _components(ctx)
        colors = res["colors"]
        for u, v in ctx["targets"]:
            if colors[str(comp_of[u])] == colors[str(comp_of[v])]:
                probs.append("colouring is not proper on the component graph")
                break
    if "gap" in ctx:
        c = res["distinct_exponents"]
        if abs(Fraction(res["ratio"]) - max(c - 1, 1)) > ctx["gap"]:
            probs.append("scheduled ratio is not within the gap of its limit")
    if "bundle" in ctx:
        b = load(ctx["bundle"])
        if b["s"] != res["stealth"] or b["a"] != res["attack"]:
            probs.append("attack bundle differs from the report")
        if sorted(map(tuple, b["targets"])) != sorted(ctx["targets"]):
            probs.append("attack bundle lists other targets")
    return probs


def robust_problems(rep: dict, ctx: dict) -> list[str]:
    """Threshold formula, doubling ladder, and an exact interval certificate over [eps1, eps2]."""
    res = rep["results"]
    probs = _stealth_problems(res, ctx)
    if probs:
        return probs
    comp_of, k = _components(ctx)
    eps1, eps2 = Fraction(1), Fraction(2)
    threshold = ceil(2 * k * eps2 / eps1) + 1
    lam = Fraction(res["lambda"])
    ratio = lam / threshold
    if Fraction(res["lambda_threshold"]) != threshold or ratio.denominator != 1 or ratio.numerator & (ratio.numerator - 1):
        return ["lambda is not the threshold times a power of two"]
    s = [Fraction(x) for x in res["stealth"]]
    if any(s[v - 1] != lam ** (comp_of[v] - 1) for v in comp_of):
        return ["stealth values are not lambda powers by component"]
    adj: dict[int, list[int]] = {v: [] for v in comp_of}
    for u, v in ctx["edges"]:
        adj[u].append(v)
        adj[v].append(u)
    for l in sorted({v for e in ctx["targets"] for v in e}):
        lo = hi = Fraction(0)
        for q in adj[l]:
            c = s[l - 1] - s[q - 1]
            lo += c * (eps1 if c > 0 else eps2)
            hi += c * (eps2 if c > 0 else eps1)
        if max(lo, -hi) < eps1 / 2:
            return [f"boundary vertex {l} is not certified"]
    if Fraction(res["audit_min_boundary_entry"]) < eps1 / 2:
        probs.append("audit found an entry below eps1/2")
    return probs


def infeasible_problems(rep: dict, ctx: dict) -> list[str]:
    """The witness cycle is a cycle of the graph meeting the targets in exactly one edge."""
    res = rep["results"]
    if res.get("feasible") is not False:
        return ["infeasible target set reported feasible"]
    path = res["witness_cycle_vertices"]
    present = set(ctx["edges"])
    cyc = {_norm(path[i], path[i + 1]) for i in range(len(path) - 1)} | {_norm(path[0], path[-1])}
    if len(path) < 3 or not cyc <= present or len(set(path)) != len(path):
        return ["witness is not a cycle of the graph"]
    if cyc & set(ctx["targets"]) != {tuple(res["violating_edge"])}:
        return ["witness cycle does not meet the targets in exactly one edge"]
    if sorted(map(tuple, res["witness_cycle_edges"])) != sorted(cyc):
        return ["witness cycle edges do not match its vertices"]
    return []


def recover_problems(rep: dict, ctx: dict) -> list[str]:
    """States equal the generated ones; replay deltas are nonzero exactly on the targets."""
    res = rep["results"]
    if [Fraction(x) for x in res["states"]] != ctx["x"]:
        return ["recovered states differ from the generated states"]
    bundle = load(ctx["bundle"])
    s = [Fraction(x) for x in bundle["s"]]
    targets = set(ctx["targets"])
    deltas = res["edge_difference_deltas"]
    for u, v in ctx["edges"]:
        d = Fraction(deltas[f"{u}-{v}"])
        if d != s[u - 1] - s[v - 1] or (d != 0) != ((u, v) in targets):
            return [f"replay delta on edge {u}-{v} is wrong"]
    if not (res["deltas_nonzero_exactly_on_targets"] and res["deltas_match_stealth_jumps"]):
        return ["replay verdicts are not both true"]
    return []


def matrix_problems(rep: dict, ctx: dict) -> list[str]:
    """The written matrix equals the one assembled from per-edge gains."""
    res = rep["results"]
    n, edges, gains = ctx["n"], ctx["edges"], ctx["gains"]
    if res["n"] != n or res["t"] != n + len(edges) or res["row_sums_zero"] is not True:
        return ["matrix summary is wrong"]
    h = load(ctx["matrix"])
    vrows = [["0"] * n for _ in range(n)]
    total = [Fraction(0)] * n
    erows = []
    for (u, v), b in zip(edges, gains):
        vrows[u - 1][v - 1] = str(-b)
        vrows[v - 1][u - 1] = str(-b)
        total[u - 1] += b
        total[v - 1] += b
        row = ["0"] * n
        row[u - 1], row[v - 1] = str(b), str(-b)
        erows.append(row)
    for i in range(n):
        vrows[i][i] = str(total[i])
    if h["rows"] != vrows + erows or [tuple(e) for e in h["edges"]] != edges:
        return ["written matrix differs from the gains"]
    return []


def _chromatic(k: int, pairs: set[tuple[int, int]]) -> int:
    for c in range(1, k + 1):
        for cols in product(range(c), repeat=k):
            if all(cols[a - 1] != cols[b - 1] for a, b in pairs):
                return c
    return k


def theta_problems(rep: dict, ctx: dict) -> list[str]:
    res = rep["results"]
    comp_of, k = _components(ctx)
    pairs = {tuple(sorted((comp_of[u], comp_of[v]))) for u, v in ctx["targets"]}
    chi = _chromatic(k, pairs)
    if not res.get("feasible") or res["k"] != k or res["chi"] != chi or res["chi_exact"] is not True:
        return ["component count or chromatic number is wrong"]
    vals = {key: Fraction(res[key]) for key in ("lower", "constructive_basic", "constructive_colored", "oracle")}
    if vals["lower"] != 1 or min(vals.values()) < 1:
        return ["a ratio lies below 1"]
    if Fraction(res["bound_k"]) != max(k - 1, 1) or Fraction(res["bound_chi"]) != max(chi - 1, 1):
        return ["closed-form bounds are wrong"]
    if res["oracle_within_colored_bound"] != (vals["oracle"] <= max(chi - 1, 1)):
        return ["oracle bound verdict is wrong"]
    return []


def no_problems(rep: dict | None, ctx: dict) -> list[str]:
    return []
