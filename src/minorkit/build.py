"""Constructive strong-representation builders.

Base constructions put trees and threshold graphs in the plane.  Lift
constructions invert one edit operation at a time: re-adding a vertex or an
edge costs one extra dimension, splitting a contracted vertex pair costs two.
Both one-dimension lifts are one construction: the re-added vertex v becomes a
wide box that spans the input's bounding box in the old axes and sits one level
up in the new axis, and an edge lift is that vertex lift with v's old box
discarded.  Lifts reuse the input's coordinates, so they add no bits.  A
pipeline walks a replayed edit sequence backwards on one neighbour map, lifting
a verified base representation up to the original graph, and a tiny brute-force
oracle pins exact answers for hand-checkable instances.  The oracle searches
boxes of any dimension on a small integer grid and prunes with the verifier's
own kernels (`_Tables` meet masks, the facet sweep), gated at dimension 2.

Every construction step is certified once: C1, each chosen witness point's
place on its box's boundary and every witness radius, decided on one integer
grid (`boxes.GridRep`: ints over one scale).  The base builders lay trees and
threshold graphs out on ints at scale 1, with every coordinate O(n), and
`boxes.certify_grid` checks them in full.  A lift appends integer levels
k * scale and reuses the input's coordinates, so the grid of its input is the
grid of its output.  It hands `boxes.certify_lift` its input, the levels it
appends to each kept box and point, and the whole box and point of the one
vertex it changes, if any (the re-added or restored vertex, or v after an
edge lift); the certifier joins the kept boxes and checks the step against the
input's certificate, the map of which boxes meet, which a grid carries only
when every witness radius is 1/4 (a lift of any other grid is the full
check).  The kept boxes are re-checked once per level, on the appended axes,
and a changed box is compared on the old axes only with the levels it
reaches: a wide box only with v's neighbours.  The wide box's span is one
scan of the input's intervals.  A pipeline builds its tree base on the
grid (or puts a given base on its grid once and verifies it there), runs every
lift there, and keeps the final grid: its trace builds the Fraction
representation only when `final` is read.  The oracle likewise keeps the grid
the verifier witnessed (`OracleResult.grid`) and builds `rep` from it when
read.  Public builders and lifts convert their grid back to Fractions; public
lifts put their input on its grid, verify it there and lift with every box
checked in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from operator import itemgetter
from typing import Iterable, Sequence

from .boxes import (
    DEFAULT_MAX_SWEEP_BOXES,
    DEFAULT_MAX_SWEEP_DIM,
    GridRep,
    IntBox,
    IntPoint,
    Representation,
    _c2_found,
    _Tables,
    _facet_uncovered,
    _labels,
    certify_grid,
    certify_lift,
    grid_to_json,
    verify_grid,
)
from .exceptions import (
    BadNesting,
    BadSnapshot,
    InvalidInput,
    NotATree,
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
    _adjacency,
    _swap,
    _unedit,
    apply_edit,
    bfs_order,
    is_tree,
    norm_edge,
    reduce_to_spanning_tree,
    replay_edits,
)


# -- helpers -----------------------------------------------------------------------


def _verified(vertices: Iterable[int], edges: Iterable[Edge], rep: GridRep, what: str) -> GridRep:
    """Check rep against the graph on `vertices` and `edges`; return it with every witness.

    A lift's input must pass C1 and then C2 (C2 may find witnesses by facet
    sweep, on the grid of twice rep's scale) and is rejected with InvalidInput.
    Builders check their output with certify_grid.
    """
    if set(rep.boxes) != set(vertices):
        raise InvalidInput(f"{what}: representation covers the wrong vertex set")
    tables = _Tables(rep.boxes)
    bad = tables.c1(edges)
    if bad:
        raise InvalidInput(f"{what}: intersection pattern fails at {tuple(bad[:3])}")
    c2 = _c2_found(rep, DEFAULT_MAX_SWEEP_DIM, DEFAULT_MAX_SWEEP_BOXES, tables)
    if not c2.ok:
        raise InvalidInput(f"{what}: vertices {c2.covered} have no exclusive boundary point")
    return c2.rep


# -- base constructions ---------------------------------------------------------------


def build_tree_rep(t: Graph) -> Representation:
    """Planar strong representation of a tree (see _tree_grid)."""
    return _tree_grid(t).to_representation()


def _tree_grid(t: Graph) -> GridRep:
    """build_tree_rep's boxes and witnesses on the grid of scale 1, certified.

    The tree is rooted at vertex 1 and walked breadth first.  A vertex with no
    children counts as one leaf, any other as the leaves under it; in DFS leaf
    order each subtree's leaves are contiguous, so a child starts at its
    parent's start plus the leaves of its earlier siblings.  A vertex at depth
    d with start s and k leaves gets the box [2s, 2(s+k) - 1] x [2d, 2d + 2],
    and only parent and child meet:
    - a child's leaves lie among its parent's, and a parent at depth d
      touches its children at y = 2d + 2;
    - two vertices at one depth own disjoint runs of leaves, so their x-spans
      keep a gap of 1;
    - a vertex at depth d + 1 that is not v's child lies inside its own
      parent's span, which is disjoint from v's; boxes two levels apart keep a
      gap of 2 in y.
    v's witness is (2s, 2d + 1), the midpoint of its left facet.  Only the boxes
    at depth d reach the height 2d + 1, and each of them is at least 1 away in
    x, so every witness clears every other box by a grid unit (radius 1/4).
    Every coordinate is at most 2n, so a box takes O(log n) bits at any depth.
    """
    if not is_tree(t):
        raise NotATree("input graph is not a tree")
    if t.n < 3:
        raise TooSmall("tree builder needs at least three vertices")
    parent: dict[int, int | None] = {}
    order = bfs_order(t, 1, parent=parent)
    leaves = dict.fromkeys(order, 0)
    for v in reversed(order):  # children before parents
        leaves[v] = leaves[v] or 1
        if parent[v] is not None:
            leaves[parent[v]] += leaves[v]
    start, depth, free = {1: 0}, {1: 0}, {1: 0}  # free[v]: the next child's start
    for v in order[1:]:
        p = parent[v]
        start[v] = free[v] = free[p]
        free[p] += leaves[v]
        depth[v] = depth[p] + 1
    boxes: dict[int, IntBox] = {}
    points: dict[int, IntPoint] = {}
    for v in order:
        s, d = start[v], depth[v]
        boxes[v] = ((2 * s, 2 * (s + leaves[v]) - 1), (2 * d, 2 * d + 2))
        points[v] = (2 * s, 2 * d + 1)
    return certify_grid(t._adj, 1, boxes, points, "tree builder")


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
    """Planar strong representation of a threshold graph (see _threshold_grid)."""
    return _threshold_grid(n_clique, nested_sizes).to_representation()


def _threshold_grid(n_clique: int, nested_sizes: Sequence[int]) -> GridRep:
    """build_threshold_rep's boxes and witnesses on the grid of scale 1, certified.

    With n = n_clique, r stable vertices and K = 2(r + 1), clique vertex i gets
    [-2(n+1-i), 2(n+1-i)] x [-K i, K i]: the clique boxes are nested crosses
    through the origin, narrower and taller as i grows.  Stable vertex n+i,
    adjacent to 1..l, gets the bar [2(n-l) + 1, 2(n+1)] x [2i - 1, 2i].
    - Every bar lies below height 2r < K, inside each clique box's y-span, and
      clique box j reaches x = 2(n+1-j), which is at least the bar's left end
      2(n-l) + 1 iff j <= l; box l + 1 stops 1 short of it.
    - Bars have disjoint y-slices, 1 apart.
    - Clique vertex i's witness is its top-right corner (2(n+1-i), K i): a wider
      clique box is at least K lower, a taller one at least 2 narrower, and
      every bar at least K i - 2r >= 2 lower.
    - Bar n+i's witness is (2(n+1), 2i - 1) on its right end: every clique box
      stops at x <= 2n, and every other bar is at least 1 away in y.
    So every witness clears every other box by a grid unit (radius 1/4), and
    every coordinate is at most K n.
    """
    sizes = _checked_sizes(n_clique, nested_sizes)
    n, k = n_clique, 2 * (len(sizes) + 1)
    boxes: dict[int, IntBox] = {}
    points: dict[int, IntPoint] = {}
    for i in range(1, n + 1):
        w, h = 2 * (n + 1 - i), k * i
        boxes[i] = ((-w, w), (-h, h))
        points[i] = (w, h)
    for i, l in enumerate(sizes, start=1):
        boxes[n + i] = ((2 * (n - l) + 1, 2 * (n + 1)), (2 * i - 1, 2 * i))
        points[n + i] = (2 * (n + 1), 2 * i - 1)
    return certify_grid(threshold_graph(n, sizes)._adj, 1, boxes, points, "threshold builder")


# -- lifts -----------------------------------------------------------------------------


def lift_vertex_add(rep_f: Representation, g: Graph, v: int) -> Representation:
    """Invert a vertex deletion: one extra dimension.

    Old boxes ride at level [0,3], v's neighbours at [2,5], and v becomes the
    wide box over [4,6].  In the old axes the wide box is the input's bounding
    box [lo, hi] on every axis, so it meets every neighbour, while the level gap
    separates it from non-neighbours.  Old witnesses slide to the bottom of
    their level; v's witness is the top corner (hi, ..., hi, 6).  Every
    coordinate is one the input already has or a level, so lifts add no bits.
    """
    if not (1 <= v <= g.n):
        raise InvalidInput(f"vertex {v} is not in the target graph")
    rest = [u for u in g.vertices() if u != v]
    rep = _verified(rest, [e for e in g.edges if v not in e], GridRep.of(rep_f), "vertex lift input")
    return _lift_vertex_add(rep, g._adj, v).to_representation()


def _lift_vertex_add(rep: GridRep, adj: dict, v: int) -> GridRep:
    """lift_vertex_add on a valid grid-form input, for the neighbour map adj; a box of v in it is ignored."""
    s, d = rep.scale, rep.dim
    tails = dict.fromkeys(range(1, len(adj) + 1), (((0, 3 * s),), (0,)))
    tails.update(dict.fromkeys(adj[v], (((2 * s, 5 * s),), (2 * s,))))
    del tails[v]
    intervals = [iv for u, b in rep.boxes.items() if u != v for iv in b]  # every box but v's old one
    lo, hi = min(map(itemgetter(0), intervals)), max(map(itemgetter(1), intervals))
    wide = (((lo, hi),) * d + ((4 * s, 6 * s),), (hi,) * d + (6 * s,))
    return certify_lift(adj, rep, tails, {v: wide}, "vertex lift")


def lift_edge_add(rep_h: Representation, g: Graph, e: Edge) -> Representation:
    """Invert an edge deletion: one extra dimension.

    With e=(u,v), u < v, this is the vertex lift of v with v's old box
    discarded: u and v's other neighbours ride at [2,5], the rest at [0,3],
    and v becomes the wide box over [4,6].
    """
    u, v = norm_edge(*e)
    if not g.has_edge(u, v):
        raise InvalidInput(f"({u},{v}) is not an edge of the target graph")
    sub_edges = [ed for ed in g.edges if ed != (u, v)]
    rep = _verified(g.vertices(), sub_edges, GridRep.of(rep_h), "edge lift input")
    return _lift_vertex_add(rep, g._adj, v).to_representation()


def drop_edge(rep_g: Representation, g: Graph, e: Edge) -> Representation:
    """Remove an edge going one dimension up: u rides [1,2], v rides [3,5], rest [0,4].

    The disjoint levels cut exactly the u-v intersection and keep every other
    pair's pattern, so the result represents g minus e.
    """
    u, v = norm_edge(*e)
    if not g.has_edge(u, v):
        raise InvalidInput(f"({u},{v}) is not an edge")
    rep = _verified(g.vertices(), g.edges, GridRep.of(rep_g), "edge drop input")
    return _drop_edge(rep, g._adj, u, v).to_representation()


def _drop_edge(rep: GridRep, adj: dict, u: int, v: int) -> GridRep:
    """drop_edge on a valid grid-form input, for the edge (u, v) of the neighbour map adj."""
    s = rep.scale
    tails = dict.fromkeys(range(1, len(adj) + 1), (((0, 4 * s),), (0,)))
    tails[u] = (((s, 2 * s),), (s,))
    tails[v] = (((3 * s, 5 * s),), (3 * s,))
    h = adj | {u: set(adj[u]) - {v}, v: set(adj[v]) - {u}}
    return certify_lift(h, rep, tails, {}, "edge drop")


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
    g_e = apply_edit(g, Contract(u, n_restored))
    rep = _verified(g_e.vertices(), g_e.edges, GridRep.of(rep_ge), "uncontract input")
    return _lift_uncontract(rep, g._adj, u, n_restored).to_representation()


def _lift_uncontract(rep: GridRep, adj: dict, u: int, n_restored: int) -> GridRep:
    """lift_uncontract on a valid grid-form input whose split matches the neighbour map adj.

    n_restored is the largest label, so the grid keeps every vertex's order.
    """
    s = rep.scale
    set_u, set_n = set(adj[u]), set(adj[n_restored])
    only_u = set_u - set_n - {n_restored}
    only_n = set_n - set_u - {u}
    tails = dict.fromkeys(range(1, len(adj) + 1), (((0, 10 * s), (0, 10 * s)), (0, 0)))
    tails.update(dict.fromkeys(only_u, (((0, 10 * s), (0, 5 * s)), (0, 0))))
    tails.update(dict.fromkeys(only_n, (((8 * s, 10 * s), (0, 10 * s)), (8 * s, 0))))
    tails[u] = (((0, 6 * s), (3 * s, 7 * s)), (0, 3 * s))
    del tails[n_restored]
    restored = (rep.boxes[u] + ((4 * s, 10 * s), (6 * s, 10 * s)), rep.points[u] + (10 * s, 6 * s))
    return certify_lift(adj, rep, tails, {n_restored: restored}, "uncontract lift")


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
    grid: GridRep  # the final representation, on the grid of the base

    @cached_property
    def final(self) -> Representation:
        return self.grid.to_representation()


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
        "final": grid_to_json(trace.grid),
    }


def build_from_edit_sequence(
    g: Graph, seq: EditSequence, base_rep: Representation | GridRep | None = None
) -> ConstructionTrace:
    """Lift a base representation back up an edit sequence, in reverse.

    Dimension grows by exactly one per inverted deletion and two per inverted
    contraction.  A given base is put on its integer grid once (a GridRep is
    taken as given) and verified there; without one, the base is
    _tree_grid's layout of seq.base, certified on the grid of scale 1.  Each step
    runs on that grid, and on one neighbour map walked from seq.base's back to
    g's: an op is undone before the lift that certifies against it (a
    contraction's label swap after), so the last one covers g.  The trace's
    final Representation is made from the grid when it is first read.
    """
    replay_edits(g, seq)  # raises SequenceMismatch on any drift
    if base_rep is None:
        rep = _tree_grid(seq.base)
    else:
        if isinstance(base_rep, Representation):
            base_rep = GridRep.of(base_rep)
        rep = _verified(seq.base.vertices(), seq.base.edges, base_rep, "pipeline base")
    base_dim = rep.dim
    steps: list[TraceStep] = []

    adj = _adjacency(seq.base)
    for op in reversed(seq.ops):
        _unedit(adj, op)  # adj is now the graph this lift certifies against
        dim_before = rep.dim
        if isinstance(op, EdgeDelete):
            rep = _lift_vertex_add(rep, adj, max(op.u, op.v))
            roles = {"edge": (op.u, op.v), "wide": (op.v,)}
        elif isinstance(op, VertexDelete):
            if op.swap is not None:
                a, b = op.swap  # label a currently holds the vertex that was b
                rep = rep.rename({a: b})
            rep = _lift_vertex_add(rep, adj, op.v)
            roles = {"vertex": (op.v,), "neighbors": tuple(op.neighbors or ())}
        else:  # a contraction, lifted before its label swap is undone
            rep = _lift_uncontract(rep, adj, op.u_post, op.merged)
            if op.swap is not None:
                a, b = op.swap
                rep = rep.rename({a: b, b: a})
                _swap(adj, a, b)
            roles = {"kept": (op.u,), "restored": (op.v,)}
        steps.append(TraceStep(op=op, dim_before=dim_before, dim_after=rep.dim, roles=roles))

    av, ae, bc = seq.counts()
    if rep.dim != base_dim + av + ae + 2 * bc:
        raise AssertionError("pipeline dimension drifted from its budget")
    if adj != _adjacency(g):
        raise AssertionError("pipeline walk did not come back to the input graph")
    return ConstructionTrace(base_dim=base_dim, steps=tuple(steps), grid=rep)


def tree_pipeline(g: Graph) -> tuple[EditSequence, ConstructionTrace]:
    """Spanning-tree reduction plus lifts: dimension 2 + (#non-tree edges)."""
    seq = reduce_to_spanning_tree(g)
    return seq, build_from_edit_sequence(g, seq)


# -- tiny exact oracle ----------------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    dim: int | None  # smallest working dimension, or None if > max_dim
    grid: GridRep | None  # the verifier's witnessed grid of the representation found

    @cached_property
    def rep(self) -> Representation | None:
        return None if self.grid is None else self.grid.to_representation()


def brute_force_strong_boxicity(g: Graph, max_dim: int = 2) -> OracleResult:
    """Exhaustive search for the smallest working dimension on an integer grid, for n <= 5.

    Any representation can be squeezed order-isomorphically, axis by axis, onto
    the grid 0..2n-1 (ties included), and both verification conditions depend
    only on endpoint order, so searching the grid is complete.  The inner loops
    run on ints, and so does the exact verifier that confirms a full assignment.
    The search (_oracle_search) works in any dimension; max_dim is gated at 2
    for time and memory: the 91125 boxes at n = 5, d = 3 take 1 GB of masks.
    """
    if max_dim < 1:
        raise ValueError(f"max_dim must be at least 1, got {max_dim}")
    if g.n > 5:
        raise TooLarge("oracle gated at 5 vertices")
    if max_dim > 2:
        raise TooLarge("oracle gated at dimension 2")
    if g.n == 0:
        raise TooLarge("empty graph")
    for d in range(1, max_dim + 1):
        grid = _oracle_search(g, d)
        if grid is not None:
            return OracleResult(dim=d, grid=grid)
    return OracleResult(dim=None, grid=None)


def _oracle_search(g: Graph, d: int) -> GridRep | None:
    """Depth-first search for d-dimensional boxes on the grid 0..2n-1 that pass verify_grid.

    Vertices are placed by falling degree, each trying every box on the grid,
    wide boxes first.  A candidate must meet exactly the placed boxes of v's
    neighbours (C1, on the verifier's kernel: _feasible), and every placed box
    must keep an exposed point: a point of its boundary outside every other
    box, found by the verifier's facet sweep (_facet_uncovered) in any
    dimension.  Adding boxes only grows coverage, so a buried box never
    recovers and its branch is cut.  Only v and its placed neighbours need the
    test: C1 has just shown that v's box meets exactly those boxes, a box can
    be buried only by a box that meets it, and every earlier box was exposed
    when it was placed.
    """
    grid = 2 * g.n
    pairs = [(a, b) for a in range(grid) for b in range(a + 1, grid)]
    # wide boxes first: exclusivity prunes less often on them, successes come sooner
    pairs.sort(key=lambda p: (p[0] - p[1], p[0]))
    candidates = list(product(pairs, repeat=d))
    meets = dict(zip(candidates, _Tables(dict(enumerate(candidates)))._met()))  # box -> its meet mask
    order = sorted(g.vertices(), key=lambda v: (-g.degree(v), v))
    assign: dict[int, IntBox] = {}

    def exposed(v: int) -> bool:
        return any(_facet_uncovered(v, axis, side, assign) is not None for axis in range(d) for side in (0, 1))

    def dfs(pos: int) -> GridRep | None:
        if pos == len(order):
            c1, c2 = verify_grid(g, GridRep(1, assign, {}, {}))
            return c2.rep if c1.ok and c2.ok else None
        v = order[pos]
        nbrs = g.neighbors(v)
        touched = [v] + [u for u in assign if u in nbrs]  # the boxes v's box can bury, and v's
        for cand in _feasible(candidates, meets, assign, nbrs):
            assign[v] = cand
            if all(map(exposed, touched)):
                hit = dfs(pos + 1)
                if hit is not None:
                    return hit
            del assign[v]
        return None

    return dfs(0)


def _feasible(candidates: list[IntBox], meets: dict, assign: dict, nbrs) -> list[IntBox]:
    """The candidates that meet exactly the boxes that assign gives nbrs, in order (C1).

    meets[b] is the mask of the candidates that meet b, bit k for candidates[k].
    """
    fits = (1 << len(candidates)) - 1
    for u, b in assign.items():
        fits &= meets[b] if u in nbrs else ~meets[b]
    return _labels(fits, candidates)
