"""Constructive strong-representation builders.

Base constructions put trees and threshold graphs in the plane.  Lift
constructions invert one edit operation at a time: re-adding a vertex or an
edge costs one extra dimension, splitting a contracted vertex pair costs two.
A pipeline replays a recorded edit sequence backwards, lifting a verified base
representation up to the original graph, and a tiny brute-force oracle pins
exact answers for hand-checkable instances.

Every builder returns a representation with stored witnesses and re-verifies
its own output before handing it back.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .boxes import (
    Box,
    Representation,
    Witness,
    rep_to_json,
    verify_c1,
    verify_c2,
    witness_radius,
)
from .exceptions import (
    BadNesting,
    BadSnapshot,
    InvalidInput,
    NotATree,
    SequenceMismatch,
    TooLarge,
    TooSmall,
)
from .graph import (
    Contract,
    Edge,
    EdgeDelete,
    EditOp,
    EditSequence,
    Graph,
    VertexDelete,
    is_tree,
    norm_edge,
    reduce_to_spanning_tree,
    replay_edits,
    swap_labels,
)

F = Fraction
Point = tuple[Fraction, ...]


# -- helpers -----------------------------------------------------------------------


def _attach_witnesses(boxes: dict[int, Box], points: dict[int, Point]) -> Representation:
    """Wrap boxes with witnesses at the given exclusive boundary points."""
    rep = Representation(boxes)
    ws: dict[int, Witness] = {}
    for v, p in points.items():
        if not boxes[v].on_boundary(p):
            raise AssertionError(f"builder picked a non-boundary witness point for {v}")
        r = witness_radius(p, rep, v)
        if r is None:
            raise AssertionError(f"builder picked a non-exclusive witness point for {v}")
        ws[v] = Witness(p, r)
    return Representation(boxes, ws)


def _compacted(vertices: Iterable[int], edges: Iterable[Edge], rep: Representation):
    """Relabel an arbitrary vertex set to 1..k so the verifier can run on it."""
    order = sorted(vertices)
    idx = {v: i + 1 for i, v in enumerate(order)}
    g = Graph(len(order), [norm_edge(idx[u], idx[v]) for u, v in edges])
    rep2 = rep.rename(idx)
    return g, rep2, idx


def _require_valid(vertices: Iterable[int], edges: Iterable[Edge], rep: Representation, what: str) -> Representation:
    """Verify a representation against a vertex/edge set; return it with full witnesses."""
    vertices = sorted(vertices)
    if set(rep.boxes) != set(vertices):
        raise InvalidInput(f"{what}: representation covers the wrong vertex set")
    g, rep2, idx = _compacted(vertices, edges, rep)
    c1 = verify_c1(g, rep2)
    if not c1.ok:
        raise InvalidInput(f"{what}: intersection pattern fails at {c1.violations[:3]}")
    c2 = verify_c2(g, rep2)
    if not c2.ok:
        raise InvalidInput(f"{what}: vertices {c2.covered} have no exclusive boundary point")
    back = {i: v for v, i in idx.items()}
    witnesses = {back[i]: w for i, w in c2.witnesses.items()}
    return Representation(dict(rep.boxes), witnesses)


def _self_check(g: Graph, rep: Representation, what: str) -> Representation:
    c1 = verify_c1(g, rep)
    c2 = verify_c2(g, rep)
    if not (c1.ok and c2.ok):
        raise AssertionError(f"{what} produced an invalid representation")
    return Representation(dict(rep.boxes), dict(c2.witnesses))


# -- base constructions ---------------------------------------------------------------


def build_tree_rep(t: Graph) -> Representation:
    """Planar strong representation of a tree.

    The root gets the unit square.  Each vertex reserves equal slots on its top
    facet: one attachment square per child straddling the facet, plus a free
    slot that keeps the vertex's own exclusive boundary point.  Children are
    shallow enough to stay clear of grandparents, and sibling subtrees stay in
    disjoint vertical corridors, so only parent/child boxes meet.
    """
    if not is_tree(t):
        raise NotATree("input graph is not a tree")
    if t.n < 3:
        raise TooSmall("tree builder needs at least three vertices")

    root = 1
    parent: dict[int, int | None] = {root: None}
    order = [root]
    children: dict[int, list[int]] = {v: [] for v in t.vertices()}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in t.neighbors(v):
            if w not in parent:
                parent[w] = v
                children[v].append(w)
                order.append(w)
                queue.append(w)

    boxes: dict[int, Box] = {root: Box.make((0, 1), (0, 1))}
    points: dict[int, Point] = {}
    for v in order:
        (x0, x1), (y0, y1) = boxes[v].intervals
        kids = children[v]
        m = len(kids)
        width = (x1 - x0) / (m + 1)
        for i, c in enumerate(kids):
            slot = x0 + i * width
            half = min(width / 4, (y1 - y0) / 4)
            boxes[c] = Box(((slot + width / 4, slot + width - width / 4), (y1 - half, y1 + half)))
        # the spare slot keeps this vertex's own boundary exposed
        points[v] = (x0 + m * width + width / 2, y1)

    rep = _attach_witnesses(boxes, points)
    return _self_check(t, rep, "tree builder")


def threshold_graph(n_clique: int, nested_sizes: Sequence[int]) -> Graph:
    """Clique 1..n plus stable vertices n+i adjacent to 1..l_i (nested neighbourhoods)."""
    sizes = _checked_sizes(n_clique, nested_sizes)
    n = n_clique + len(sizes)
    edges = [(i, j) for i, j in combinations(range(1, n_clique + 1), 2)]
    for i, l in enumerate(sizes, start=1):
        edges.extend((j, n_clique + i) for j in range(1, l + 1))
    return Graph(n, edges)


def _checked_sizes(n_clique: int, nested_sizes: Sequence[int]) -> tuple[int, ...]:
    if n_clique < 1:
        raise BadNesting("clique size must be at least 1")
    sizes = tuple(int(l) for l in nested_sizes)
    for prev, cur in zip(sizes, sizes[1:]):
        if cur > prev:
            raise BadNesting(f"sizes must be non-increasing, got {sizes}")
    for l in sizes:
        if not (1 <= l <= n_clique):
            raise BadNesting(f"size {l} outside 1..{n_clique}")
    return sizes


def build_threshold_rep(n_clique: int, nested_sizes: Sequence[int]) -> Representation:
    """Planar strong representation of a threshold graph.

    Clique vertex i gets the 1/i-by-i rectangle centred at the origin, so the
    clique boxes form nested crosses sharing the origin and each keeps a free
    top-right corner.  Stable vertex n+i becomes a thin bar whose left edge sits
    strictly between the widths of clique boxes l_i and l_i+1 and whose right
    end sticks out past every clique box; distinct y-slices keep the bars
    pairwise disjoint.
    """
    sizes = _checked_sizes(n_clique, nested_sizes)
    g = threshold_graph(n_clique, sizes)
    boxes: dict[int, Box] = {}
    points: dict[int, Point] = {}
    for i in range(1, n_clique + 1):
        w = F(1, 2 * i)
        h = F(i, 2)
        boxes[i] = Box(((-w, w), (-h, h)))
        points[i] = (w, h)  # top-right corner clears taller and thinner clique boxes
    r = len(sizes)
    height = F(1, 4 * (r + 1))
    for i, l in enumerate(sizes, start=1):
        left = (F(1, 2 * (l + 1)) + F(1, 2 * l)) / 2
        y0 = F(2 * i - 1, 4 * (r + 1))
        boxes[n_clique + i] = Box(((left, F(3, 4)), (y0, y0 + height)))
        points[n_clique + i] = (F(3, 4), y0 + height / 2)  # exposed right edge

    rep = _attach_witnesses(boxes, points)
    return _self_check(g, rep, "threshold builder")


# -- lifts -----------------------------------------------------------------------------


def _positive_shift(rep: Representation) -> Representation:
    """Translate so every coordinate is >= 1.

    The tall corner box used when re-adding a vertex spans [min, 3*max] in each
    old axis, which only covers everything when coordinates are positive;
    verification outcomes are translation-invariant, so normalising is free.
    """
    lo = min(lo for b in rep.boxes.values() for lo, _ in b.intervals)
    shift = 1 - lo
    return rep.translate([shift] * rep.dim) if shift != 0 else rep


def _coord_max(rep: Representation) -> Fraction:
    return max(hi for b in rep.boxes.values() for _, hi in b.intervals)


def lift_vertex_add(rep_f: Representation, g: Graph, v: int, nbrs: Iterable[int] | None = None) -> Representation:
    """Invert a vertex deletion: one extra dimension.

    Old boxes ride at level [0,3], v's neighbours at [2,5], and v becomes a huge
    box over [4,6], wide enough in the old axes to meet every neighbour but
    separated from non-neighbours by the level gap.  Old witnesses slide to the
    bottom of their level; v's witness is the far top corner.
    """
    if not (1 <= v <= g.n):
        raise InvalidInput(f"vertex {v} is not in the target graph")
    nbrs = tuple(sorted(nbrs)) if nbrs is not None else g.neighbors(v)
    if nbrs != g.neighbors(v):
        raise InvalidInput(f"neighbour snapshot {nbrs} does not match the graph")
    rest = [u for u in g.vertices() if u != v]
    sub_edges = [e for e in g.edges if v not in e]
    rep_f = _require_valid(rest, sub_edges, rep_f, "vertex lift input")
    rep0 = _positive_shift(rep_f)
    k = rep0.dim
    top = 3 * _coord_max(rep0)

    boxes: dict[int, Box] = {}
    points: dict[int, Point] = {}
    nbr_set = set(nbrs)
    for u in rest:
        level = (F(2), F(5)) if u in nbr_set else (F(0), F(3))
        boxes[u] = rep0.boxes[u].cross(level)
        points[u] = rep0.witnesses[u].point + (level[0],)
    boxes[v] = Box(tuple((F(1), top) for _ in range(k)) + ((F(4), F(6)),))
    points[v] = tuple(top for _ in range(k)) + (F(6),)

    rep = _attach_witnesses(boxes, points)
    return _self_check(g, rep, "vertex lift")


def lift_edge_add(rep_h: Representation, g: Graph, e: Edge) -> Representation:
    """Invert an edge deletion: one extra dimension.

    With e=(u,v), u and v's other neighbours ride at [2,5], the rest at [0,3],
    and v becomes the wide box over [4,6]: it reaches u (and v's other
    neighbours) through the [4,5] overlap while the level gap separates it from
    non-neighbours.
    """
    u, v = norm_edge(*e)
    if not g.has_edge(u, v):
        raise InvalidInput(f"({u},{v}) is not an edge of the target graph")
    sub_edges = [ed for ed in g.edges if ed != (u, v)]
    rep_h = _require_valid(g.vertices(), sub_edges, rep_h, "edge lift input")
    rep0 = _positive_shift(rep_h)
    r = rep0.dim
    top = 3 * _coord_max(rep0)
    nbrs_v = {w for a, b in sub_edges for w in (a, b) if v in (a, b)} - {v}

    boxes: dict[int, Box] = {}
    points: dict[int, Point] = {}
    for i in g.vertices():
        if i == v:
            continue
        level = (F(2), F(5)) if (i == u or i in nbrs_v) else (F(0), F(3))
        boxes[i] = rep0.boxes[i].cross(level)
        points[i] = rep0.witnesses[i].point + (level[0],)
    boxes[v] = Box(tuple((F(1), top) for _ in range(r)) + ((F(4), F(6)),))
    points[v] = tuple(top for _ in range(r)) + (F(6),)

    rep = _attach_witnesses(boxes, points)
    return _self_check(g, rep, "edge lift")


def drop_edge(rep_g: Representation, g: Graph, e: Edge) -> Representation:
    """Remove an edge going one dimension up: u rides [1,2], v rides [3,5], rest [0,4].

    The disjoint levels cut exactly the u-v intersection and keep every other
    pair's pattern, so the result represents g minus e.
    """
    u, v = norm_edge(*e)
    if not g.has_edge(u, v):
        raise InvalidInput(f"({u},{v}) is not an edge")
    rep_g = _require_valid(g.vertices(), g.edges, rep_g, "edge drop input")

    boxes: dict[int, Box] = {}
    points: dict[int, Point] = {}
    for i in g.vertices():
        if i == u:
            level = (F(1), F(2))
        elif i == v:
            level = (F(3), F(5))
        else:
            level = (F(0), F(4))
        boxes[i] = rep_g.boxes[i].cross(level)
        points[i] = rep_g.witnesses[i].point + (level[0],)

    h = Graph(g.n, [ed for ed in g.edges if ed != (u, v)])
    rep = _attach_witnesses(boxes, points)
    return _self_check(h, rep, "edge drop")


def contract_edge_graph(g: Graph, u: int, merged: int) -> Graph:
    """The graph after merging the max-labelled vertex into its neighbour u."""
    if merged != g.n:
        raise BadSnapshot("contraction must merge the maximum label")
    if not g.has_edge(u, merged):
        raise BadSnapshot(f"({u},{merged}) is not an edge")
    edges = [e for e in g.edges if merged not in e]
    present = set(edges)
    for w in g.neighbors(merged):
        if w == u:
            continue
        e = norm_edge(u, w)
        if e not in present:
            edges.append(e)
            present.add(e)
    return Graph(g.n - 1, edges)


def lift_uncontract(
    rep_ge: Representation,
    g: Graph,
    u: int,
    n_restored: int,
    nbr_split: tuple[Iterable[int], Iterable[int]],
) -> Representation:
    """Invert a contraction: two extra dimensions.

    Both u and the restored vertex reuse the merged box in the old axes; their
    2-D factors overlap each other but split u from the restored vertex's
    private neighbours (first extra axis) and the restored vertex from u's
    private neighbours (second extra axis).  Common neighbours and bystanders
    span the whole 2-D square.
    """
    nb_u = tuple(sorted(nbr_split[0]))
    nb_n = tuple(sorted(nbr_split[1]))
    if n_restored != g.n:
        raise BadSnapshot("restored vertex must carry the maximum label")
    if nb_u != g.neighbors(u) or nb_n != g.neighbors(n_restored):
        raise BadSnapshot("neighbourhood split does not match the target graph")
    if not g.has_edge(u, n_restored):
        raise BadSnapshot(f"({u},{n_restored}) is not an edge of the target graph")
    g_e = contract_edge_graph(g, u, n_restored)
    rep_ge = _require_valid(g_e.vertices(), g_e.edges, rep_ge, "uncontract input")

    set_u, set_n = set(nb_u), set(nb_n)
    only_u = set_u - set_n - {n_restored}
    only_n = set_n - set_u - {u}
    s_u = rep_ge.boxes[u]
    x_u = rep_ge.witnesses[u].point

    boxes: dict[int, Box] = {}
    points: dict[int, Point] = {}
    for i in g.vertices():
        if i == u:
            boxes[i] = s_u.cross((0, 6), (3, 7))
            points[i] = x_u + (F(0), F(3))
        elif i == n_restored:
            boxes[i] = s_u.cross((4, 10), (6, 10))
            points[i] = x_u + (F(10), F(6))
        elif i in only_u:
            boxes[i] = rep_ge.boxes[i].cross((0, 10), (0, 5))
            points[i] = rep_ge.witnesses[i].point + (F(0), F(0))
        elif i in only_n:
            boxes[i] = rep_ge.boxes[i].cross((8, 10), (0, 10))
            points[i] = rep_ge.witnesses[i].point + (F(8), F(0))
        else:
            boxes[i] = rep_ge.boxes[i].cross((0, 10), (0, 10))
            points[i] = rep_ge.witnesses[i].point + (F(0), F(0))

    rep = _attach_witnesses(boxes, points)
    return _self_check(g, rep, "uncontract lift")


# -- edit-sequence pipeline --------------------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    op: EditOp
    dim_before: int
    dim_after: int
    roles: dict


@dataclass(frozen=True)
class ConstructionTrace:
    base_dim: int
    steps: tuple[TraceStep, ...]
    final: Representation


def trace_to_json(trace: ConstructionTrace) -> dict:
    def op_json(op: EditOp) -> dict:
        if isinstance(op, VertexDelete):
            return {"kind": "vertex_delete", "v": op.v}
        if isinstance(op, EdgeDelete):
            return {"kind": "edge_delete", "u": op.u, "v": op.v}
        return {"kind": "contract", "u": op.u, "v": op.v}

    return {
        "base_dim": trace.base_dim,
        "steps": [
            {
                "op": op_json(s.op),
                "dim_before": s.dim_before,
                "dim_after": s.dim_after,
                "roles": {k: sorted(vs) for k, vs in s.roles.items()},
            }
            for s in trace.steps
        ],
        "final": rep_to_json(trace.final),
    }


def build_from_edit_sequence(g: Graph, seq: EditSequence, base_rep: Representation) -> ConstructionTrace:
    """Lift a verified base representation back up an edit sequence, in reverse.

    Dimension grows by exactly one per inverted deletion and two per inverted
    contraction; every intermediate representation is verified.
    """
    steps_fw = replay_edits(g, seq)  # raises SequenceMismatch on any drift
    rep = _require_valid(seq.base.vertices(), seq.base.edges, base_rep, "pipeline base")
    base_dim = rep.dim
    steps: list[TraceStep] = []

    for g_before, op, g_after in reversed(steps_fw):
        dim_before = rep.dim
        if isinstance(op, EdgeDelete):
            rep = lift_edge_add(rep, g_before, (op.u, op.v))
            roles = {"edge": (op.u, op.v), "wide": (op.v,)}
        elif isinstance(op, VertexDelete):
            if op.swap is not None:
                a, b = op.swap  # label a currently holds the vertex that was b
                rep = rep.rename({a: b})
            rep = lift_vertex_add(rep, g_before, op.v, op.neighbors)
            roles = {"vertex": (op.v,), "neighbors": tuple(op.neighbors or ())}
        elif isinstance(op, Contract):
            gsw = g_before if op.swap is None else swap_labels(g_before, *op.swap)
            rep = lift_uncontract(
                rep, gsw, op.u_post, op.merged, (op.nbrs_kept, op.nbrs_merged)
            )
            if op.swap is not None:
                a, b = op.swap
                rep = rep.rename({a: b, b: a})
            roles = {"kept": (op.u,), "restored": (op.v,)}
        else:
            raise TypeError(f"unknown edit op {op!r}")
        steps.append(TraceStep(op=op, dim_before=dim_before, dim_after=rep.dim, roles=roles))

    av, ae, bc = seq.counts()
    if rep.dim != base_dim + av + ae + 2 * bc:
        raise AssertionError("pipeline dimension drifted from its budget")
    if set(rep.boxes) != set(g.vertices()):
        raise SequenceMismatch("pipeline did not return to the original vertex set")
    return ConstructionTrace(base_dim=base_dim, steps=tuple(steps), final=rep)


def tree_pipeline(g: Graph) -> tuple[EditSequence, ConstructionTrace]:
    """Spanning-tree reduction plus lifts: dimension 2 + (#non-tree edges)."""
    seq = reduce_to_spanning_tree(g)
    base = build_tree_rep(seq.base)
    return seq, build_from_edit_sequence(g, seq, base)


# -- tiny exact oracle ----------------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    dim: int | None  # smallest working dimension, or None if > max_dim
    rep: Representation | None


def brute_force_strong_boxicity(g: Graph, max_dim: int = 2, *, max_n: int = 5) -> OracleResult:
    """Exhaustive search for the smallest working dimension on an integer grid.

    Any representation can be squeezed order-isomorphically, axis by axis, onto
    the grid 0..2n-1 (ties included), and both verification conditions depend
    only on endpoint order, so searching the grid is complete.  The inner loops
    run on ints; a found assignment is confirmed by the exact verifier.
    """
    if g.n > max_n:
        raise TooLarge(f"oracle gated at {max_n} vertices")
    if max_dim > 2:
        raise TooLarge("oracle gated at dimension 2")
    if g.n == 0:
        raise TooLarge("empty graph")
    for d in range(1, max_dim + 1):
        rep = _oracle_search(g, d)
        if rep is not None:
            return OracleResult(dim=d, rep=rep)
    return OracleResult(dim=None, rep=None)


def _oracle_search(g: Graph, d: int) -> Representation | None:
    grid = 2 * g.n
    pairs = [(a, b) for a in range(grid) for b in range(a + 1, grid)]
    # wide boxes first: exclusivity prunes less often on them, successes come sooner
    pairs.sort(key=lambda p: (p[0] - p[1], p[0]))
    if d == 1:
        candidates = [(p,) for p in pairs]
    else:
        candidates = [(p, q) for p in pairs for q in pairs]
    order = sorted(g.vertices(), key=lambda v: (-g.degree(v), v))
    assign: dict[int, tuple] = {}

    def boxes_meet(a, b) -> bool:
        return all(max(p[0], q[0]) <= min(p[1], q[1]) for p, q in zip(a, b))

    def segment_covered(lo: int, hi: int, segs: list[tuple[int, int]]) -> bool:
        cur = lo
        for s_lo, s_hi in sorted(segs):
            if s_lo > cur:
                return False
            cur = max(cur, s_hi)
            if cur >= hi:
                return True
        return cur >= hi

    def exposed(v: int) -> bool:
        """Does v keep an uncovered boundary point against the current partial assignment?"""
        box = assign[v]
        others = [assign[u] for u in assign if u != v]
        if d == 1:
            (lo, hi), = box
            return any(
                all(not (o[0][0] <= x <= o[0][1]) for o in others) for x in (lo, hi)
            )
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
                segs = [s for s in segs if s[0] <= s[1]]
                if not segment_covered(lo, hi, segs):
                    return True
        return False

    def dfs(pos: int) -> Representation | None:
        if pos == len(order):
            boxes = {
                v: Box(tuple((F(a), F(b)) for a, b in assign[v])) for v in assign
            }
            rep = Representation(boxes)
            if verify_c1(g, rep).ok:
                c2 = verify_c2(g, rep)
                if c2.ok:
                    return Representation(boxes, c2.witnesses)
            return None
        v = order[pos]
        for cand in candidates:
            ok = True
            for u in assign:
                if boxes_meet(assign[u], cand) != g.has_edge(u, v):
                    ok = False
                    break
            if not ok:
                continue
            assign[v] = cand
            # adding boxes only grows coverage, so a buried vertex can never recover
            if all(exposed(u) for u in assign):
                hit = dfs(pos + 1)
                if hit is not None:
                    return hit
            del assign[v]
        return None

    return dfs(0)
