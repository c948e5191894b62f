"""Shared generators and independent oracles for the test suite.

The sampling oracle here deliberately reimplements boundary coverage by dense
point probing, so it shares no code path with the exact facet sweep it checks.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, product

from minorkit import Box, C1Report, Graph, Representation, Witness, components, witness_radius
from minorkit.boxes import (
    DEFAULT_MAX_SWEEP_BOXES,
    DEFAULT_MAX_SWEEP_DIM,
    GridRep,
    _Tables,
    _gap,
    _grid,
    _json_object,
    _label,
    _meet,
    _on_boundary,
    _radius,
    certify_grid,
)
from minorkit.exceptions import (
    BadBounds,
    DimensionMismatch,
    EmptyF,
    Inconsistent,
    InvalidEdit,
    ParseError,
    SequenceMismatch,
    TooLarge,
    VertexMismatch,
)
from minorkit.flow import GainMatrix
from minorkit.graph import Contract, EdgeDelete, VertexDelete, _json_int, norm_edge
from minorkit.ratio import fmt_ratio, parse_ratio

F = Fraction


# -- random structures ------------------------------------------------------------


def random_tree(n: int, rng: random.Random) -> Graph:
    edges = [(rng.randrange(1, v), v) for v in range(2, n + 1)]
    return Graph(n, edges)


def random_connected(n: int, m: int, rng: random.Random, gains: bool = False) -> Graph:
    """Connected graph with exactly m >= n-1 edges (requires enough room)."""
    assert n - 1 <= m <= n * (n - 1) // 2
    edges = {(rng.randrange(1, v), v) for v in range(2, n + 1)}
    pool = [
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in edges
    ]
    rng.shuffle(pool)
    edges |= set(pool[: m - len(edges)])
    edge_list = sorted(edges)
    g = Graph(n, edge_list)
    if not gains:
        return g
    gain_map = {g.n + 1 + i: random_gain(rng) for i in range(len(edge_list))}
    return Graph(n, edge_list, gains=gain_map)


def random_gain(rng: random.Random) -> Fraction:
    return F(rng.randrange(1, 13), rng.randrange(1, 7))


def random_cut_targets(g: Graph, rng: random.Random) -> list[tuple[int, int]]:
    """Edges crossing a random proper vertex split: always stealth-feasible."""
    while True:
        side = {v for v in g.vertices() if rng.random() < 0.5}
        if 0 < len(side) < g.n:
            cut = [(u, v) for u, v in g.edges if (u in side) != (v in side)]
            if cut:
                return cut


def random_rep(rng: random.Random, dim: int, count: int, span: int = 6) -> Representation:
    boxes = {}
    for v in range(1, count + 1):
        ivs = []
        for _ in range(dim):
            a = rng.randrange(-span, span)
            b = rng.randrange(-span, span)
            while a == b:
                b = rng.randrange(-span, span)
            ivs.append((F(min(a, b)), F(max(a, b))))
        boxes[v] = Box(tuple(ivs))
    return Representation(boxes)


def coprime_boxes(k: int) -> tuple[Graph, Representation]:
    """k boxes in 3-D; each endpoint is 2v or 2v + 1 plus 1/p for its own 20-bit prime p.

    So the lcm of the denominators is the product of 6k distinct primes of
    about 20 bits each.  The graph joins each odd v to v + 1; their boxes do not meet.
    """
    primes = (p for p in count(10**6) if all(p % d for d in range(2, 1100)))
    boxes = {
        v: Box(tuple((2 * v + F(1, next(primes)), 2 * v + 1 + F(1, next(primes))) for _ in range(3)))
        for v in range(1, k + 1)
    }
    return Graph(k, [(v, v + 1) for v in range(1, k, 2)]), Representation(boxes)


def boxes_json_fraction(rep: Representation) -> dict:
    """rep's boxes as a representation's JSON, each value written from its Fraction."""
    return {
        "dim": rep.dim,
        "boxes": {str(v): [[str(lo), str(hi)] for lo, hi in b.intervals] for v, b in rep.boxes.items()},
    }


# Malformed representation files, as edits of a well-formed one's JSON, by id.
MALFORMED_REP_EDITS = {
    "boxes-list": lambda r: r.update(boxes=list(r["boxes"].values())),
    "witnesses-list": lambda r: r.update(witnesses=[]),
    "witness-list": lambda r: r["witnesses"].update({"1": ["0", "0"]}),
    "dim-true": lambda r: r.update(dim=True),
    "dim-float": lambda r: r.update(dim=1.9),
    "dim-string": lambda r: r.update(dim="2"),
    # labels must be canonical decimals: accepted before, now exit 2
    "key-space": lambda r: r["boxes"].update({" 1": r["boxes"].pop("1")}),
    "key-zero": lambda r: r["boxes"].update({"01": r["boxes"].pop("1")}),
    "key-plus": lambda r: r["witnesses"].update({"+1": r["witnesses"].pop("1")}),
    # strings of digits: read as one coordinate per character before
    "interval-string": lambda r: r["boxes"].update({"1": ["01", "01"]}),
    "point-string": lambda r: r["witnesses"]["1"].update(point="00"),
}


def root_trap_graph() -> tuple[Graph, list[tuple[int, int]], list[Fraction]]:
    """Gains that make the first 21 root-avoidance candidates all fail.

    The candidates start at the default hint 1/2 and shrink by 1 - 1/p over the
    primes 2..71.  Removing the targets leaves the components {1}, the path
    2..22 and {23}.  Path vertex l joins 1 and 23 by target edges with
    gain(1, l) / gain(l, 23) equal to the (l-1)-th candidate, so l's boundary
    polynomial (b*lam - a)(lam - 1) has that candidate as its root.
    Returns the graph, the target edges and the 21 candidates.
    """
    candidates = [F(1, 2)]
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71):
        candidates.append(candidates[-1] * (1 - F(1, p)))
    path = [(l, l + 1) for l in range(2, 22)]
    targets = [(1, l) for l in range(2, 23)] + [(l, 23) for l in range(2, 23)]
    gains = [F(1)] * len(path) + candidates + [F(1)] * 21
    edges = path + targets
    return Graph(23, edges, gains={24 + i: b for i, b in enumerate(gains)}), targets, candidates


# -- independent sampling oracle for boundary coverage ---------------------------------


def sampled_uncovered_point(rep: Representation, v: int, density: int = 3):
    """A facet sample point of v's box lying in no other box, or None.

    Samples a (density+2)-point grid per free axis on every facet, endpoints
    included, so corners and touching configurations are probed.
    """
    box = rep.boxes[v]
    others = [b for u, b in rep.boxes.items() if u != v]
    for axis in range(box.dim):
        for side in (0, 1):
            c = box.intervals[axis][side]
            grids = []
            for j, (lo, hi) in enumerate(box.intervals):
                if j == axis:
                    continue
                grids.append([lo + (hi - lo) * F(t, density + 1) for t in range(density + 2)])
            for combo in product(*grids):
                p = combo[:axis] + (c,) + combo[axis:]
                if not any(b.contains(p) for b in others):
                    return p
    return None


# -- reference implementations the package no longer carries ---------------------------


def translate(rep: Representation, vec) -> Representation:
    """Shift every box and witness by vec."""
    vec = tuple(F(x) for x in vec)
    boxes = {
        v: Box(tuple((lo + d, hi + d) for (lo, hi), d in zip(b.intervals, vec)))
        for v, b in rep.boxes.items()
    }
    ws = {
        v: Witness(tuple(x + d for x, d in zip(w.point, vec)), w.radius)
        for v, w in rep.witnesses.items()
    }
    return Representation(boxes, ws)


def permute(rep: Representation, order) -> Representation:
    """Reorder the axes of every box and witness."""
    order = tuple(order)
    boxes = {v: Box(tuple(b.intervals[i] for i in order)) for v, b in rep.boxes.items()}
    ws = {v: Witness(tuple(w.point[i] for i in order), w.radius) for v, w in rep.witnesses.items()}
    return Representation(boxes, ws)


def cross(box: Box, *pairs) -> Box:
    """Product with extra trailing intervals."""
    return Box(box.intervals + tuple((F(a), F(b)) for a, b in pairs))


def is_bridge(g: Graph, e) -> bool:
    """Quadratic bridge test by component counting (ValueError if e is no edge)."""
    return len(components(g, [e])) > len(components(g))


def count_fractions(monkeypatch):
    """A one-item list that counts every Fraction built from now on, however it is built."""
    made = [0]
    new = F.__new__

    def counted_new(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counted_new))
    if hasattr(F, "_from_coprime_ints"):  # 3.12 arithmetic bypasses __new__
        coprime = F._from_coprime_ints

        def counted_coprime(cls, *args):
            made[0] += 1
            return coprime.__func__(cls, *args)

        monkeypatch.setattr(F, "_from_coprime_ints", classmethod(counted_coprime))
    return made


def dense_entries(spec, rows, values) -> dict[int, Fraction]:
    """Boundary attack entries row_l . s in Fractions, s constant per component: the
    reference for the int root tests."""
    s = [values[spec.comp_of[v]] for v in spec.graph.vertices()]
    return {l: sum(c * x for c, x in zip(rows[l - 1], s)) for l in spec.boundary_vertices()}


def dense_product(rows, x) -> dict[int, Fraction]:
    """The nonzero entries of H*x, by 1-based flow index, as row . x sums over the dense
    rows: the reference for the int product kernel."""
    sums = (sum(c * xi for c, xi in zip(row, x)) for row in rows)
    return {i: a for i, a in enumerate(sums, start=1) if a}


def component_levels(spec, value) -> list:
    """value[c] on every vertex of component c, in vertex order: the kernel's per-vertex levels."""
    return [value[spec.comp_of[v]] for v in spec.graph.vertices()]


def attack_fraction(spec, exponents, lam: Fraction, entries) -> tuple[tuple[Fraction, ...], frozenset[int], list[str]]:
    """The attack as ``stealth._build`` made it from lambda's entries before it kept int pairs.

    The entries carry the factor S = q**top, so each nonzero one became the
    Fraction num / (den * S), all t values at once, and the CLI wrote each
    support entry with ``fmt_ratio``.  Returns (values, support, text).
    """
    support = frozenset(entries)
    scale = lam.denominator ** max(exponents.values(), default=0)
    a = [F(0)] * spec.graph.t
    for i, (num, den) in entries.items():
        a[i - 1] = F(num, den * scale)
    text = ["0"] * spec.graph.t
    for i in support:
        text[i - 1] = fmt_ratio(a[i - 1])
    return tuple(a), support, text


def components_reference(g: Graph, removed=()) -> list[tuple[int, ...]]:
    """The breadth-first ``components`` that tested a normalised pair against the
    removed set on every neighbour visit."""
    removed_set = {norm_edge(u, v) for u, v in removed}
    for e in removed_set:
        if not g.has_edge(*e):
            raise ValueError(f"removed edge {e} is not in the graph")
    parent: dict[int, int | None] = {}
    comps = []
    for start in g.vertices():
        if start in parent:
            continue
        parent[start] = None
        order = [start]
        for v in order:
            for w in g.neighbors(v):
                if w in parent or norm_edge(v, w) in removed_set:
                    continue
                parent[w] = v
                order.append(w)
        comps.append(tuple(sorted(order)))
    return comps


def parse_targets_int(spec: str) -> list[tuple[int, int]] | None:
    """A --target list read the way it was before its labels had to be ASCII digits:
    each endpoint by int(), which also takes a sign, underscores and the digits of
    other scripts.  None where that reading failed."""
    out = []
    try:
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            u, v = part.split("-")
            out.append((int(u), int(v)))
    except ValueError:
        return None
    return out


def recover_states_fraction(h, z, g: Graph, x1_ref=0) -> tuple[Fraction, ...]:
    """The Fraction walk that ``recover_states`` replaced, without its input checks.

    Differences z_e / b_e propagate from vertex 1 in breadth-first order, and
    every edge is re-checked in edge order.
    """
    z = tuple(F(v) for v in z)
    diffs = {e: zf / gain for e, gain, zf in zip(h.edges, h.gains, z[g.n :])}
    x = {1: F(x1_ref)}
    queue = deque([1])
    while queue:
        a = queue.popleft()
        for b in g.neighbors(a):
            if b in x:
                continue
            x[b] = x[a] - diffs[(a, b)] if a < b else x[a] + diffs[(b, a)]
            queue.append(b)
    for (u, v), d in diffs.items():
        if x[u] - x[v] != d:
            raise Inconsistent(f"edge ({u},{v}) implies a conflicting state difference")
    return tuple(x[v] for v in g.vertices())


def matrix_rows_fraction(h) -> list[list[Fraction]]:
    """The t-by-n gain matrix cell by cell in Fractions, from the edge list and gains alone.

    The reference for the int cells: vertex rows sum their incident gains on
    the diagonal and carry -b at each neighbour; edge rows carry +b and -b.
    """
    rows = [[F(0)] * h.n for _ in range(h.t)]
    for pos, ((u, v), b) in enumerate(zip(h.edges, h.gains)):
        for a, c in ((u - 1, v - 1), (v - 1, u - 1)):
            rows[a][a] += b
            rows[a][c] = -b
        rows[h.n + pos][u - 1], rows[h.n + pos][v - 1] = b, -b
    return rows


def matrix_to_json_fraction(h) -> dict:
    """``matrix_to_json`` as it was written from Fraction rows: the reference for the streamed text."""
    rows = [[str(c) for c in row] for row in matrix_rows_fraction(h)]
    return {"n": h.n, "t": h.t, "edges": [[u, v] for u, v in h.edges], "rows": rows}


def robust_attack_audit_fraction(spec, sv, eps1, eps2, samples: int, seed: int) -> Fraction:
    """The sampled audit as it ran in Fractions: one GainMatrix and one H*s per sample.

    Same draws as ``robust_attack_audit``, the same required-zero message and
    the same smallest boundary magnitude.
    """
    rng = random.Random(seed)
    eps1, eps2 = F(eps1), F(eps2)
    if not (0 < eps1 <= eps2):
        raise BadBounds(f"need 0 < eps1 <= eps2, got {eps1}, {eps2}")
    g = spec.graph
    expected = spec.expected_support()
    worst = None
    for _ in range(samples):
        gains = tuple(eps1 + (eps2 - eps1) * F(rng.randrange(0, 65), 64) for _ in g.edges)
        h = GainMatrix(n=g.n, t=g.t, gains=gains, edges=g.edges)
        a = h.multiply(sv.values)
        for i, val in enumerate(a, start=1):
            if i not in expected and val != 0:
                raise AssertionError(f"required-zero entry {i} is {val}")
        for l in spec.boundary_vertices():
            mag = abs(a[l - 1])
            worst = mag if worst is None else min(worst, mag)
    if worst is None:
        raise EmptyF("audit needs at least one sample and one boundary vertex")
    return worst


def certified_fraction(spec, lam: Fraction, eps1: Fraction, eps2: Fraction) -> bool:
    """The robust interval certificate as it ran in Fractions, one neighbour at a time.

    Each coefficient lam**(own-1) - lam**(c-1) widens [lo, hi] by its product
    with the bound that makes the entry smallest and with the one that makes
    it largest; the check is |a_l| >= eps1/2 on the whole interval.
    """
    g = spec.graph
    floor = eps1 / 2
    for l in spec.boundary_vertices():
        own = spec.comp_of[l]
        lo = F(0)
        hi = F(0)
        for q in g.neighbors(l):
            coeff = lam ** (own - 1) - lam ** (spec.comp_of[q] - 1)
            if coeff > 0:
                lo += coeff * eps1
                hi += coeff * eps2
            elif coeff < 0:
                lo += coeff * eps2
                hi += coeff * eps1
        magnitude = lo if lo > 0 else (-hi if hi < 0 else F(0))
        if magnitude < floor:
            return False
    return True


# -- the certificate certify_grid carries, by brute force ------------------------------


def full_certificate(rep) -> tuple[dict, dict]:
    """(meets, near) of a GridRep from every pair of vertices on every axis.

    meets[v] holds the vertices whose boxes meet v's box; near[v] maps each
    vertex whose box is less than rep.scale from v's witness point to that
    L-infinity gap (0 when the point is inside).
    """
    meets = {
        v: {u for u, b in rep.boxes.items() if u != v
            and all(max(a_lo, b_lo) <= min(a_hi, b_hi) for (a_lo, a_hi), (b_lo, b_hi) in zip(box, b))}
        for v, box in rep.boxes.items()
    }
    near = {}
    for v, p in rep.points.items():
        gaps = {
            u: max([0] + [max(lo - x, x - hi) for (lo, hi), x in zip(b, p)])
            for u, b in rep.boxes.items() if u != v
        }
        near[v] = {u: gap for u, gap in gaps.items() if gap < rep.scale}
    return meets, near


def full_radii(rep) -> dict:
    """Each witness's radius pair, in vertex order, from full_certificate's near gaps.

    With nearest the least gap to another box (rep.scale when none is nearer),
    it is None at 0, (1, 4) once nearest / (2 * scale) reaches 1/4, and
    (nearest, 2 * scale) below that.
    """
    _, near = full_certificate(rep)
    radii = {}
    for v in sorted(near):
        nearest = min(near[v].values(), default=rep.scale)
        radii[v] = None if nearest == 0 else (1, 4) if 2 * nearest >= rep.scale else (nearest, 2 * rep.scale)
    return radii


def attached_certificate(rep) -> dict | None:
    """The certificate a certified rep carries: full_certificate's meets when every radius
    (full_radii) is 1/4, and None otherwise."""
    meets, _ = full_certificate(rep)
    return meets if all(r == (1, 4) for r in full_radii(rep).values()) else None


def certify_grid_all_pairs(adj: dict, scale: int, grid: dict, scaled: dict, what: str) -> GridRep:
    """certify_grid's full check (no prev) by brute force: every pair of boxes.

    Each unordered pair of boxes gets one _meet and each ordered pair the _gap
    from the first's point to the second's box, in vertex order.  The checks
    and their order (coverage, degenerate boxes, C1, then each point's boundary
    and radius in vertex order) and every AssertionError message are certify_grid's,
    and so is the certificate: the meets when every radius is 1/4, else None.
    """
    if grid.keys() != adj.keys() or scaled.keys() != grid.keys():
        raise AssertionError(f"{what}: boxes and witness points must cover 1..{len(adj)}")
    for v, box in grid.items():
        if any(lo >= hi for lo, hi in box):
            raise AssertionError(f"{what}: box for vertex {v} is degenerate")
    verts = list(grid)
    meets = {v: set() for v in verts}
    near = {v: {} for v in verts}
    for i, v in enumerate(verts):
        box, p = grid[v], scaled[v]
        for j, u in enumerate(verts):
            if j == i:
                continue
            if j > i and _meet(box, grid[u]):
                meets[v].add(u)
                meets[u].add(v)
            gap = _gap(grid[u], p, scale)
            if gap < scale:
                near[v][u] = gap
    for v, m in meets.items():
        if m != set(adj[v]):
            bad = _Tables(grid).c1((i, j) for i, ns in adj.items() for j in ns if i < j)
            raise AssertionError(f"{what}: intersection pattern fails at {bad[:3]}")
    radii = {v: _radius(near[v], scale) for v in sorted(near)}
    for v, p in scaled.items():
        if not _on_boundary(grid[v], p):
            raise AssertionError(f"{what}: witness point for {v} is not on its boundary")
        if radii[v] is None:
            raise AssertionError(f"{what}: witness point for {v} lies in another box")
    cert = meets if all(r == (1, 4) for r in radii.values()) else None
    return GridRep(scale, grid, scaled, radii, cert)


def joined(prev: GridRep, tails: dict, changed: dict) -> tuple[dict, dict]:
    """The (grid, scaled) of certify_lift's arguments: prev's box and point with the appended
    part for each kept vertex, in the order of tails, then each changed vertex's own."""
    grid = {v: prev.boxes[v] + box for v, (box, _) in tails.items()}
    scaled = {v: prev.points[v] + p for v, (_, p) in tails.items()}
    for v, (box, p) in changed.items():
        grid[v], scaled[v] = box, p
    return grid, scaled


def span_without(rep: GridRep, v: int) -> tuple[int, int]:
    """The least lo and the greatest hi on any axis of every box of rep but v's, by a scan of them all."""
    ivs = [iv for u, b in rep.boxes.items() if u != v for iv in b]
    return min(lo for lo, _ in ivs), max(hi for _, hi in ivs)


# -- the Fraction certifier the integer base builders replaced ------------------------------


def certified_grid(g: Graph, boxes, points, what: str) -> GridRep:
    """Fraction boxes with a witness at each points[v], put on their grid and proved by certify_grid."""
    return certify_grid(g._adj, *_grid(boxes, points), what)


def certify(g: Graph, boxes, points, what: str) -> Representation:
    """certified_grid's verdict on Fraction boxes, as a Representation of the given rationals.

    The base builders certified their Fraction layouts this way before they
    laid their boxes out on ints, and the Fraction lift bodies below still do.
    """
    radii = certified_grid(g, boxes, points, what).radii
    return Representation(boxes, {v: Witness(points[v], Fraction(*r)) for v, r in radii.items()})


# -- the Fraction lift bodies the grid-form lifts replaced --------------------------------
# Each takes a valid, fully witnessed Representation and certifies its output,
# exactly as the package did before its lifts ran on the integer grid.


def lift_vertex_add_fraction(rep: Representation, g: Graph, v: int) -> Representation:
    nbr_set = set(g.neighbors(v))
    boxes, points = {}, {}
    for u in g.vertices():
        if u == v:
            continue
        level = (F(2), F(5)) if u in nbr_set else (F(0), F(3))
        boxes[u] = cross(rep.boxes[u], level)
        points[u] = rep.witnesses[u].point + (level[0],)
    ends = [x for u, b in rep.boxes.items() if u != v for iv in b.intervals for x in iv]
    lo, hi = min(ends), max(ends)
    boxes[v] = Box(((lo, hi),) * rep.dim + ((F(4), F(6)),))
    points[v] = (hi,) * rep.dim + (F(6),)
    return certify(g, boxes, points, "vertex lift")


def drop_edge_fraction(rep: Representation, g: Graph, u: int, v: int) -> Representation:
    boxes, points = {}, {}
    for i in g.vertices():
        if i == u:
            level = (F(1), F(2))
        elif i == v:
            level = (F(3), F(5))
        else:
            level = (F(0), F(4))
        boxes[i] = cross(rep.boxes[i], level)
        points[i] = rep.witnesses[i].point + (level[0],)
    h = Graph(g.n, [ed for ed in g.edges if ed != (u, v)])
    return certify(h, boxes, points, "edge drop")


def lift_uncontract_fraction(rep: Representation, g: Graph, u: int, n_restored: int) -> Representation:
    set_u, set_n = set(g.neighbors(u)), set(g.neighbors(n_restored))
    only_u = set_u - set_n - {n_restored}
    only_n = set_n - set_u - {u}
    s_u = rep.boxes[u]
    x_u = rep.witnesses[u].point
    boxes, points = {}, {}
    for i in g.vertices():
        if i == u:
            boxes[i] = cross(s_u, (0, 6), (3, 7))
            points[i] = x_u + (F(0), F(3))
        elif i == n_restored:
            boxes[i] = cross(s_u, (4, 10), (6, 10))
            points[i] = x_u + (F(10), F(6))
        elif i in only_u:
            boxes[i] = cross(rep.boxes[i], (0, 10), (0, 5))
            points[i] = rep.witnesses[i].point + (F(0), F(0))
        elif i in only_n:
            boxes[i] = cross(rep.boxes[i], (8, 10), (0, 10))
            points[i] = rep.witnesses[i].point + (F(8), F(0))
        else:
            boxes[i] = cross(rep.boxes[i], (0, 10), (0, 10))
            points[i] = rep.witnesses[i].point + (F(0), F(0))
    return certify(g, boxes, points, "uncontract lift")


# -- the box oracle's segment-cover exposure test the facet sweep replaced ---------------------


def segment_covered(lo: int, hi: int, segs: list[tuple[int, int]]) -> bool:
    """Do the closed segments cover the closed segment [lo, hi]?"""
    cur = lo
    for s_lo, s_hi in sorted(segs):
        if s_lo > cur:
            return False
        cur = max(cur, s_hi)
        if cur >= hi:
            return True
    return cur >= hi


def oracle_exposed(v: int, assign: dict, d: int) -> bool:
    """Does v's box keep a boundary point outside every other box of assign (d <= 2)?

    On the line an endpoint must avoid every other interval; in the plane some
    edge of the rectangle must not be covered by the other boxes' closed
    slices through it.
    """
    box = assign[v]
    others = [assign[u] for u in assign if u != v]
    if d == 1:
        (lo, hi), = box
        return any(all(not (o[0][0] <= x <= o[0][1]) for o in others) for x in (lo, hi))
    for axis in range(2):
        keep = 1 - axis
        for side in (0, 1):
            c = box[axis][side]
            lo, hi = box[keep]
            segs = [
                (max(o[keep][0], lo), min(o[keep][1], hi))
                for o in others
                if o[axis][0] <= c <= o[axis][1]
            ]
            if not segment_covered(lo, hi, [s for s in segs if s[0] <= s[1]]):
                return True
    return False


def pairwise_feasible(candidates: list, assign: dict, nbrs) -> list:
    """The oracle's C1 filter before its meet masks: the candidates, in order, that _meet
    exactly the placed boxes of assign's vertices in nbrs, one pair test per placed box."""
    return [c for c in candidates if all(_meet(b, c) == (u in nbrs) for u, b in assign.items())]


# -- the Fraction facet sweep the grid sweep replaced ---------------------------------------


def _clip_fulldim_fraction(box, region):
    out = []
    for (lo, hi), (rlo, rhi) in zip(box, region):
        a, b = max(lo, rlo), min(hi, rhi)
        if a >= b:
            return None
        out.append((a, b))
    return tuple(out)


def _search_uncovered_fraction(region, boxes):
    """Centre of an arrangement cell of region not covered by any box, else None."""
    for b in boxes:
        if all(blo <= rlo and rhi <= bhi for (blo, bhi), (rlo, rhi) in zip(b, region)):
            return None
    if not boxes:
        return tuple((lo + hi) / 2 for lo, hi in region)
    for b in boxes:
        for ax, (blo, bhi) in enumerate(b):
            rlo, rhi = region[ax]
            for val in (blo, bhi):
                if rlo < val < rhi:
                    for piece in ((rlo, val), (val, rhi)):
                        sub = region[:ax] + (piece,) + region[ax + 1:]
                        sub_boxes = [c for c in (_clip_fulldim_fraction(x, sub) for x in boxes) if c]
                        hit = _search_uncovered_fraction(sub, sub_boxes)
                        if hit is not None:
                            return hit
                    return None
    raise AssertionError("unreachable: no covering box and no split point")


def _facet_uncovered_fraction(v: int, axis: int, side: int, rep: Representation):
    box = rep.boxes[v]
    c = box.intervals[axis][side]
    others = [
        b for u, b in rep.boxes.items()
        if u != v and b.intervals[axis][0] <= c <= b.intervals[axis][1]
    ]
    if rep.dim == 1:
        return None if others else (c,)
    region = box.intervals[:axis] + box.intervals[axis + 1:]
    cands = []
    for b in others:
        reduced = b.intervals[:axis] + b.intervals[axis + 1:]
        clipped = _clip_fulldim_fraction(reduced, region)
        if clipped:
            cands.append(clipped)
    hit = _search_uncovered_fraction(region, cands)
    if hit is None:
        return None
    return hit[:axis] + (c,) + hit[axis:]


def exposed_point_fraction(v: int, rep: Representation, max_dim: int, max_boxes: int):
    """The first uncovered facet cell centre of v's box, as Fractions, or None if covered."""
    if v not in rep.boxes:
        raise VertexMismatch(f"vertex {v} has no box")
    if rep.dim > max_dim:
        raise TooLarge(
            f"exact facet sweep gated at dimension {max_dim}; "
            "store witnesses to verify higher-dimensional representations"
        )
    if len(rep.boxes) > max_boxes:
        raise TooLarge(f"exact facet sweep gated at {max_boxes} boxes")
    for axis in range(rep.dim):
        for side in (0, 1):
            p = _facet_uncovered_fraction(v, axis, side, rep)
            if p is not None:
                return p
    return None


def exposed_witness_fraction(
    v: int, rep: Representation, *, max_dim=DEFAULT_MAX_SWEEP_DIM, max_boxes=DEFAULT_MAX_SWEEP_BOXES
) -> Witness | None:
    """exposed_witness as it swept the facets in Fraction arithmetic."""
    p = exposed_point_fraction(v, rep, max_dim, max_boxes)
    if p is None:
        return None
    r = witness_radius(p, rep, v)
    if r is None:
        raise AssertionError("uncovered facet point lies in another box")
    return Witness(p, r)


# -- the per-edge graph reader the one-pass reader replaced ------------------------------


def graph_state(g: Graph) -> tuple:
    """Everything a Graph holds, for comparing two readers."""
    return g.n, g.t, g.edges, g._index, g._adj, g.gains


def graph_from_json_reference(obj) -> tuple:
    """The per-edge graph reader and Graph constructor as they were: ``graph_state`` of the graph.

    Each entry's endpoints are read with ``_json_int`` in order, then each edge
    is checked (self-loop, range, duplicate) in order, then each gain is parsed
    into its own Fraction and checked positive in order, so the first fault in
    that order is the one named.  The reference for ``graph_from_json``.
    """
    try:
        n = _json_int(obj["n"], "n")
        edges = []
        raw = {}
        for pos, entry in enumerate(obj.get("edges", [])):
            u, v = _json_int(entry["u"], "u"), _json_int(entry["v"], "v")
            edges.append((u, v))
            if "gain" in entry:
                raw[n + 1 + pos] = entry["gain"]
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        seen: set = set()
        norm = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of vertex range 1..{n}")
            e = (u, v) if u <= v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        t = n + len(norm)
        adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
        index = {}
        for pos, (u, v) in enumerate(norm):
            adj[u].append(v)
            adj[v].append(u)
            index[(u, v)] = n + 1 + pos
        gains = None
        if raw:
            gains = {}
            for key, val in raw.items():
                g = parse_ratio(val)
                if g.numerator <= 0:
                    raise ValueError(f"gain for edge index {key} must be positive")
                gains[key] = g
        return n, t, tuple(norm), index, {v: tuple(sorted(ws)) for v, ws in adj.items()}, gains
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad graph object: {exc}") from exc


# -- the Fraction reader and verifier the grid path replaced ------------------------------


def rep_from_json_fraction(obj) -> Representation:
    """rep_from_json as it read every value with parse_ratio into a Box and a Witness."""
    try:
        obj = _json_object(obj, "a representation")
        dim = _json_int(obj["dim"], "dim")
        boxes = {}
        for key, ivs in _json_object(obj["boxes"], "boxes").items():
            if not isinstance(ivs, list) or not all(isinstance(iv, list) for iv in ivs):
                raise ParseError(f"box {key} must be a JSON list of [lo, hi] lists")
            b = Box.make(*ivs)
            if b.dim != dim:
                raise ParseError(f"box for vertex {key} has dim {b.dim}, expected {dim}")
            boxes[_label(key)] = b
        witnesses = {}
        for key, w in _json_object(obj.get("witnesses", {}), "witnesses").items():
            if not isinstance(w, dict) or not isinstance(w.get("point"), list):
                raise ParseError(f"witness {key} must be a JSON object with a list point")
            witnesses[_label(key)] = Witness(
                tuple(parse_ratio(x) for x in w["point"]), parse_ratio(w["radius"])
            )
        return Representation(boxes, witnesses)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, DimensionMismatch, VertexMismatch) as exc:
        raise ParseError(f"bad representation object: {exc}") from exc


def _check_cover_fraction(g: Graph, rep: Representation) -> None:
    if set(rep.boxes) != set(g.vertices()):
        raise VertexMismatch(f"representation covers {sorted(rep.boxes)} but the graph has 1..{g.n}")


def verify_c1_fraction(g: Graph, rep: Representation) -> C1Report:
    """verify_c1 by Box.intersects on the Fractions: every pair, in vertex order."""
    _check_cover_fraction(g, rep)
    edges = set(g.edges)
    bad = []
    verts = rep.vertices()
    for pos, i in enumerate(verts):
        for j in verts[pos + 1:]:
            meet = rep.boxes[i].intersects(rep.boxes[j])
            if meet and (i, j) not in edges:
                bad.append((i, j, "unexpected"))
            elif (i, j) in edges and not meet:
                bad.append((i, j, "missing"))
    return C1Report(ok=not bad, violations=tuple(bad))


@dataclass(frozen=True)
class C2Fraction:
    """verify_c2_fraction's verdict, with its witnesses as a plain Fraction dict."""

    ok: bool
    witnesses: dict[int, Witness]
    covered: tuple[int, ...]


def verify_c2_fraction(
    g: Graph, rep: Representation, *, max_dim=DEFAULT_MAX_SWEEP_DIM, max_boxes=DEFAULT_MAX_SWEEP_BOXES
) -> C2Fraction:
    """verify_c2 on the Fractions: a stored witness passes when its point lies on v's
    boundary and every other box is farther than radius / 2 from it; every other
    vertex gets exposed_witness_fraction's facet sweep, one vertex at a time."""
    _check_cover_fraction(g, rep)
    found, covered = {}, []
    for v in rep.vertices():
        w = rep.witnesses.get(v)
        if w is not None and w.radius > 0 and rep.boxes[v].on_boundary(w.point) and all(
            b.linf_distance(w.point) > w.radius / 2 for u, b in rep.boxes.items() if u != v
        ):
            found[v] = w
            continue
        got = exposed_witness_fraction(v, rep, max_dim=max_dim, max_boxes=max_boxes)
        if got is None:
            covered.append(v)
        else:
            found[v] = got
    return C2Fraction(ok=not covered, witnesses=found, covered=tuple(covered))


# -- the Graph-per-edit chain the one-adjacency edit walk replaced ---------------------------


def snapshot(adj) -> dict:
    """A frozen copy of a neighbour map that its owner goes on mutating."""
    return {v: frozenset(ns) for v, ns in adj.items()}


def edges_of(adj) -> list:
    """The edges of a neighbour map as normalised pairs."""
    return [(v, w) for v, ns in adj.items() for w in ns if v < w]


def graph_of(adj) -> Graph:
    """The Graph of a neighbour map on 1..n."""
    return Graph(len(adj), sorted(edges_of(adj)))


def swap_labels(g: Graph, a: int, b: int) -> Graph:
    """Graph with labels a and b exchanged (gains dropped)."""
    if a == b:
        return Graph(g.n, g.edges)

    def m(x: int) -> int:
        return b if x == a else a if x == b else x

    return Graph(g.n, [norm_edge(m(u), m(v)) for u, v in g.edges])


def record_edit(g: Graph, op):
    """One edit as a fresh Graph: (minor, op completed with snapshots).  The reference for apply_edits."""
    if isinstance(op, EdgeDelete):
        u, v = norm_edge(op.u, op.v)
        if not g.has_edge(u, v):
            raise InvalidEdit(f"({u},{v}) is not an edge")
        edges = [e for e in g.edges if e != (u, v)]
        return Graph(g.n, edges), EdgeDelete(u, v)

    if isinstance(op, VertexDelete):
        v = op.v
        if not (1 <= v <= g.n):
            raise InvalidEdit(f"vertex {v} is not present")
        nbrs = g.neighbors(v)
        swap = None if v == g.n else (v, g.n)

        def m(x: int) -> int:
            return v if x == g.n else x

        edges = [norm_edge(m(a), m(b)) for a, b in g.edges if v not in (a, b)]
        h = Graph(g.n - 1, edges)
        return h, VertexDelete(v, neighbors=nbrs, swap=swap)

    if isinstance(op, Contract):
        u, v = op.u, op.v
        if not g.has_edge(u, v):
            raise InvalidEdit(f"({u},{v}) is not an edge")
        m_label = g.n
        swap = None if v == m_label else (v, m_label)
        gsw = g if swap is None else swap_labels(g, v, m_label)
        u_post = u if swap is None or u not in swap else (v if u == m_label else u)
        nbrs_kept = gsw.neighbors(u_post)
        nbrs_merged = gsw.neighbors(m_label)
        edges = [e for e in gsw.edges if m_label not in e]
        present = set(edges)
        for w in nbrs_merged:
            if w == u_post:
                continue
            e = norm_edge(u_post, w)
            if e not in present:
                edges.append(e)
                present.add(e)
        h = Graph(m_label - 1, edges)
        return h, Contract(
            u, v, swap=swap, u_post=u_post, merged=m_label,
            nbrs_kept=nbrs_kept, nbrs_merged=nbrs_merged,
        )

    raise TypeError(f"unknown edit op {op!r}")


def invert_edit_reference(h: Graph, op) -> Graph:
    """The graph an applied edit came from, rebuilt from its snapshots as one fresh Graph."""
    if isinstance(op, EdgeDelete):
        return Graph(h.n, list(h.edges) + [norm_edge(op.u, op.v)])

    if isinstance(op, VertexDelete):
        if op.neighbors is None:
            raise SequenceMismatch("vertex deletion lacks its neighbourhood snapshot")
        n_new = h.n + 1

        def m(x: int) -> int:
            return n_new if x == op.v else x

        edges = [norm_edge(m(a), m(b)) for a, b in h.edges] if op.swap else list(h.edges)
        edges += [norm_edge(op.v, w) for w in op.neighbors]
        return Graph(n_new, edges)

    if isinstance(op, Contract):
        if op.nbrs_kept is None or op.nbrs_merged is None or op.u_post is None:
            raise SequenceMismatch("contraction lacks its neighbourhood snapshots")
        n_new = h.n + 1
        edges = [e for e in h.edges if op.u_post not in e]
        edges += [norm_edge(op.u_post, w) for w in op.nbrs_kept if w != op.merged]
        edges += [norm_edge(op.merged, w) for w in op.nbrs_merged]
        g = Graph(n_new, edges)
        if op.swap is not None:
            g = swap_labels(g, *op.swap)
        return g

    raise TypeError(f"unknown edit op {op!r}")


def reference_chain(g: Graph, intents) -> list:
    """(before, op, after) for each intent, one fresh Graph per edit, as replay_edits returned them."""
    steps, cur = [], g
    for intent in intents:
        after, op = record_edit(cur, intent)
        steps.append((cur, op, after))
        cur = after
    return steps
