"""Simple undirected graphs with labels 1..n, edit operations, and small oracles.

Vertices are labelled 1..n and edges carry stable flow indices n+1..t (t = n + m),
so a graph doubles as the index space of a flow system.  Edit operations (vertex
deletion, edge deletion, contraction) run in place on one neighbour map and record
the snapshots needed to undo them.  A vertex deletion and a contraction both swap v
with the highest label n, then remove n (a contraction first joins n's neighbours
to the kept endpoint), so one in-place swap serves both and their inverses.  Replay
walks the input's map forward, records each op's snapshots afresh, compares them
with the recorded ones, then checks the base graph.

One breadth-first walk, ``bfs_order``, gives components, shortest paths and the
BFS spanning tree here, and the tree layout and state recovery elsewhere.
``components`` walks the neighbour lists of the graph minus the removed edges,
built once from its edge list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Collection, Iterable, Sequence

from .exceptions import (
    Disconnected,
    InvalidEdit,
    OracleTooLarge,
    ParseError,
    SequenceMismatch,
)
from .ratio import fmt_ratio, parse_ratio

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


class Graph:
    """Immutable simple graph. Treat instances as values; no mutators are provided."""

    def __init__(self, n: int, edges: Iterable[Edge] = (), gains: dict | None = None):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        edges = edges if isinstance(edges, (list, tuple)) else list(edges)
        try:  # whole-list tests; the ordered loop names the first fault
            norm = [(u, v) if u <= v else (v, u) for u, v in edges]
            index = dict(zip(norm, range(n + 1, n + 1 + len(norm))))
            ok = len(index) == len(norm) and all(1 <= u < v <= n for u, v in norm)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            norm = _checked_edges(n, edges)
            index = dict(zip(norm, range(n + 1, n + 1 + len(norm))))
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(norm)
        self.t = n + len(norm)
        adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = dict(zip(adj, map(tuple, map(sorted, adj.values()))))
        self._index = index
        self.gains = None if gains is None else _gain_fractions(n, self.t, gains)

    # -- queries ------------------------------------------------------------

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self._index

    def edge_index(self, u: int, v: int) -> int:
        try:
            return self._index[norm_edge(u, v)]
        except KeyError:
            raise ValueError(f"({u},{v}) is not an edge") from None

    def same_topology(self, other: "Graph") -> bool:
        return self.n == other.n and set(self.edges) == set(other.edges)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


def _checked_edges(n: int, edges: Iterable) -> list[Edge]:
    """The edges normalised, checked one by one in order: the first fault raises."""
    seen: set[Edge] = set()
    norm: list[Edge] = []
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u},{v}) out of vertex range 1..{n}")
        e = norm_edge(u, v)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
        norm.append(e)
    return norm


def _gain_fractions(n: int, t: int, gains: dict) -> dict[int, Fraction]:
    """Gains keyed by edge index n+1..t, each parsed and checked positive.

    When every key is an int and every value a string, each distinct text is
    parsed and checked once, and equal texts share one Fraction.  Any fault (a
    key that is not an edge index, an unreadable or non-positive gain) or any
    other key or value type goes to the ordered loop, which reads each key with
    int() and names the first bad one.
    """
    texts = gains.values()
    if (
        {int}.issuperset(map(type, gains))
        and {str}.issuperset(map(type, texts))
        and (not gains or n < min(gains) and max(gains) <= t)
    ):
        spelled = dict.fromkeys(texts)
        try:
            for text in spelled:
                g = spelled[text] = parse_ratio(text)
                if g.numerator <= 0:
                    break
            else:
                return dict(zip(gains, map(spelled.__getitem__, texts)))
        except ParseError:
            pass
    clean: dict[int, Fraction] = {}
    for key, val in gains.items():
        key = int(key)
        if not (n + 1 <= key <= t):
            raise ValueError(f"gain key {key} is not an edge index")
        g = parse_ratio(val)
        if g.numerator <= 0:
            raise ValueError(f"gain for edge index {key} must be positive")
        clean[key] = g
    return clean


# -- JSON ---------------------------------------------------------------------


def graph_to_json(g: Graph) -> dict:
    out = {"n": g.n, "edges": []}
    for pos, (u, v) in enumerate(g.edges):
        entry: dict = {"u": u, "v": v}
        if g.gains is not None:
            idx = g.n + 1 + pos
            if idx in g.gains:
                entry["gain"] = fmt_ratio(g.gains[idx])
        out["edges"].append(entry)
    return out


_ENDS, _GAIN = itemgetter("u", "v"), itemgetter("gain")


def _json_int(value, what: str) -> int:
    """A JSON integer as is: no bool, and no float or string to coerce."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what} must be an integer, got {type(value).__name__}")
    return value


def graph_from_json(obj) -> Graph:
    """A graph object {"n": int, "edges": [{"u": int, "v": int, "gain"?: rational}, ...]}.

    The entries are read in one pass: their endpoints with one itemgetter, and
    their types with one test over all of them.  Any entry that fails (not an
    object, a missing or non-integer endpoint) sends the read to the ordered
    loop, which names the first bad entry.  Graph checks the edges and parses
    the gains.
    """
    try:
        n = _json_int(obj["n"], "n")
        entries = obj.get("edges", [])
        try:
            ends = list(map(_ENDS, entries))
            ok = {int}.issuperset(map(type, chain.from_iterable(ends)))
        except (KeyError, TypeError):
            ok = False
        if not ok:
            ends = [(_json_int(entry["u"], "u"), _json_int(entry["v"], "v")) for entry in entries]
        try:  # raw values: Graph parses each distinct gain once
            gains = dict(zip(range(n + 1, n + 1 + len(ends)), map(_GAIN, entries)))
        except KeyError:
            gains = {n + 1 + pos: entry["gain"] for pos, entry in enumerate(entries) if "gain" in entry}
        return Graph(n, ends, gains=gains or None)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad graph object: {exc}") from exc


# -- connectivity ---------------------------------------------------------------


def bfs_order(g: Graph, root: int, removed: Collection[Edge] = (), parent: dict | None = None) -> list[int]:
    """Vertices reached from root, in breadth-first discovery order, root first.

    Neighbours are taken in increasing label order and no edge in `removed`
    (normalised pairs) is crossed.  Each reached vertex is recorded in `parent`
    (root -> None) and a vertex already there is skipped, so one map shared
    across several roots walks each vertex once.  The order is its own queue.
    """
    return _walk(g._adj, root, {} if parent is None else parent, removed)


def _walk(adj: dict, root: int, parent: dict, removed: Collection[Edge] = ()) -> list[int]:
    """``bfs_order`` on the neighbour map adj."""
    parent[root] = None
    order = [root]
    for v in order:
        for w in adj[v]:
            if w in parent or (removed and ((v, w) if v < w else (w, v)) in removed):
                continue
            parent[w] = v
            order.append(w)
    return order


def components(g: Graph, removed: Iterable[Edge] = ()) -> list[tuple[int, ...]]:
    """Connected components of g minus the removed edges, ordered by smallest vertex."""
    removed_set = {norm_edge(u, v) for u, v in removed}
    for e in removed_set:
        if e not in g._index:
            raise ValueError(f"removed edge {e} is not in the graph")
    return _components(g, removed_set)


def _components(g: Graph, removed: Collection[Edge]) -> list[tuple[int, ...]]:
    """``components`` for removed edges given as normalised pairs.

    The neighbour lists of g minus those edges are built once, from g.edges,
    so the walk tests no edge pair on a neighbour visit.
    """
    adj = g._adj
    if removed:
        adj = {v: [] for v in g.vertices()}
        for e in g.edges:
            if e not in removed:
                u, v = e
                adj[u].append(v)
                adj[v].append(u)
    parent: dict[int, int | None] = {}
    return [tuple(sorted(_walk(adj, start, parent))) for start in g.vertices() if start not in parent]


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(bfs_order(g, 1)) == g.n


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and len(g.edges) == g.n - 1 and is_connected(g)


def bfs_path(g: Graph, start: int, goal: int, removed: Iterable[Edge] = ()) -> list[int] | None:
    """Shortest vertex path avoiding removed edges, or None if unreachable."""
    parent: dict[int, int | None] = {}
    bfs_order(g, start, {norm_edge(u, v) for u, v in removed}, parent)
    if goal not in parent:
        return None
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    return path[::-1]


# -- cycle oracle ---------------------------------------------------------------


def enumerate_cycles(g: Graph, limit: int = 10_000, max_vertices: int = 10) -> list[frozenset[Edge]]:
    """All simple cycles, each as a frozen set of edges.

    Brute-force oracle: exponential in general, hence the vertex and count gates.
    Each cycle is found once, anchored at its smallest vertex with a canonical
    direction (second vertex smaller than the last).
    """
    if g.n > max_vertices:
        raise OracleTooLarge(f"cycle oracle gated at {max_vertices} vertices")
    cycles: list[frozenset[Edge]] = []

    def extend(anchor: int, path: list[int], on_path: set[int]) -> None:
        v = path[-1]
        for w in g.neighbors(v):
            if w == anchor and len(path) >= 3:
                if path[1] < path[-1]:
                    cycle = frozenset(
                        norm_edge(path[i], path[(i + 1) % len(path)]) for i in range(len(path))
                    )
                    cycles.append(cycle)
                    if len(cycles) > limit:
                        raise OracleTooLarge(f"more than {limit} simple cycles")
            elif w > anchor and w not in on_path:
                path.append(w)
                on_path.add(w)
                extend(anchor, path, on_path)
                on_path.remove(w)
                path.pop()

    for anchor in g.vertices():
        extend(anchor, [anchor], {anchor})
    cycles.sort(key=lambda c: (len(c), sorted(c)))
    return cycles


# -- edit operations --------------------------------------------------------------


@dataclass(frozen=True)
class VertexDelete:
    v: int
    neighbors: tuple[int, ...] | None = None  # N(v) at application time
    swap: Edge | None = None  # (v, old_max): old_max takes label v after removal


@dataclass(frozen=True)
class EdgeDelete:
    u: int
    v: int


@dataclass(frozen=True)
class Contract:
    u: int  # kept endpoint, original label
    v: int  # merged endpoint, original label
    swap: Edge | None = None  # pre-relabel (v, old_max) so the merged vertex is the max
    u_post: int | None = None  # kept endpoint's label after the swap
    merged: int | None = None  # label actually contracted away (= old max)
    nbrs_kept: tuple[int, ...] | None = None  # N(u_post) before contraction, post-swap labels
    nbrs_merged: tuple[int, ...] | None = None  # N(merged) before contraction


EditOp = VertexDelete | EdgeDelete | Contract


def _adjacency(g: Graph) -> dict[int, set[int]]:
    """g's neighbour map as mutable sets, labels 1..n in order."""
    return {v: set(ns) for v, ns in g._adj.items()}


def _graph(adj: dict[int, set[int]]) -> Graph:
    """The Graph of a neighbour map on 1..n, its edges sorted (a self-loop is left out)."""
    return Graph(len(adj), [(v, w) for v, ns in sorted(adj.items()) for w in sorted(ns) if v < w])


def _link(adj: dict[int, set[int]], v: int, nbrs: Iterable[int]) -> None:
    for w in nbrs:
        adj[v].add(w)
        adj[w].add(v)


def _swap(adj: dict[int, set[int]], a: int, b: int) -> None:
    """Exchange labels a and b in place, touching only their neighbours."""
    na, nb = adj[a], adj[b]
    for w in (na ^ nb) - {a, b}:  # a common neighbour keeps both labels
        adj[w] ^= {a, b}
    adj[a], adj[b] = nb, na
    if b in na:  # the edge ab: each end now lists itself
        na ^= {a, b}
        nb ^= {a, b}


def _edit(adj: dict[int, set[int]], op: EditOp) -> EditOp:
    """Apply one edit to adj in place, reading only op's u and v (or v); return op with its snapshots."""
    n = len(adj)
    if isinstance(op, EdgeDelete):
        u, v = norm_edge(op.u, op.v)
        if v not in adj.get(u, ()):
            raise InvalidEdit(f"({u},{v}) is not an edge")
        adj[u].remove(v)
        adj[v].remove(u)
        return EdgeDelete(u, v)
    if not isinstance(op, (VertexDelete, Contract)):
        raise TypeError(f"unknown edit op {op!r}")
    v, swap = op.v, (None if op.v == n else (op.v, n))
    if isinstance(op, VertexDelete):
        if v not in adj:
            raise InvalidEdit(f"vertex {v} is not present")
        nbrs = tuple(sorted(adj[v]))
    elif v not in adj.get(op.u, ()):
        raise InvalidEdit(f"({op.u},{v}) is not an edge")
    _swap(adj, v, n)
    merged = adj.pop(n)
    for w in merged:
        adj[w].remove(n)
    if isinstance(op, VertexDelete):
        return VertexDelete(v, nbrs, swap)
    u_post = v if op.u == n else op.u
    kept = (*sorted(adj[u_post]), n)  # n, the highest label, was a neighbour of u_post
    _link(adj, u_post, merged - {u_post})
    return Contract(op.u, v, swap, u_post, n, kept, tuple(sorted(merged)))


def _unedit(adj: dict[int, set[int]], op: EditOp) -> None:
    """Undo a completed op on adj in place from its snapshots, except a contraction's op.swap."""
    if isinstance(op, EdgeDelete):
        _link(adj, op.u, (op.v,))
        return
    n = len(adj) + 1
    adj[n] = set()
    if isinstance(op, VertexDelete):
        _swap(adj, op.v, n)
        _link(adj, op.v, op.neighbors)
    elif isinstance(op, Contract):
        for w in adj[op.u_post]:
            adj[w].remove(op.u_post)
        adj[op.u_post] = set()
        _link(adj, op.u_post, op.nbrs_kept)
        _link(adj, n, op.nbrs_merged)
    else:
        raise TypeError(f"unknown edit op {op!r}")


def apply_edit(g: Graph, op: EditOp) -> Graph:
    """The minor produced by one edit operation (snapshots recomputed, not trusted)."""
    return apply_edits(g, [op]).base


def invert_edit(h: Graph, op: EditOp) -> Graph:
    """Reconstruct the graph an applied edit came from, using its snapshots.

    An op with a label outside 1..n+1 (1..n for an edge deletion), or whose
    replay on the rebuilt graph misses op or h, cannot have come from h: SequenceMismatch.
    """
    if None in [x for field, x in vars(op).items() if field != "swap"]:
        raise SequenceMismatch(f"{op!r} lacks its neighbourhood snapshots")
    top = h.n + (not isinstance(op, EdgeDelete))
    labels = [x for f in vars(op).values() if f is not None for x in (f if isinstance(f, tuple) else (f,))]
    if not all(1 <= x <= top for x in labels):
        raise SequenceMismatch(f"{op!r} names a label outside 1..{top}")
    adj = _adjacency(h)
    _unedit(adj, op)
    if isinstance(op, Contract) and op.swap is not None:
        _swap(adj, *op.swap)
    g = _graph(adj)
    try:
        replay_edits(g, EditSequence(h, (op,)))
    except InvalidEdit as exc:
        raise SequenceMismatch(f"{op!r} cannot have come from this graph") from exc
    return g


@dataclass(frozen=True)
class EditSequence:
    """Ordered applied edits, with their snapshots, reducing some graph to `base`."""

    base: Graph
    ops: tuple[EditOp, ...]

    def counts(self) -> tuple[int, int, int]:
        """(vertex deletions, edge deletions, contractions)."""
        kinds = [type(op) for op in self.ops]
        return kinds.count(VertexDelete), kinds.count(EdgeDelete), kinds.count(Contract)


def apply_edits(g: Graph, intents: Sequence[EditOp]) -> EditSequence:
    """Apply edits in order on one adjacency, recording each op's snapshots; the base carries no gains."""
    adj = _adjacency(g)
    ops = tuple(_edit(adj, intent) for intent in intents)
    return EditSequence(base=_graph(adj), ops=ops)


def replay_edits(g: Graph, seq: EditSequence) -> None:
    """Re-run a sequence from g on one adjacency, checking each op's snapshots and the base graph."""
    adj = _adjacency(g)
    for op in seq.ops:
        if _edit(adj, op) != op:
            raise SequenceMismatch(f"snapshot mismatch at {op!r}")
    if adj != _adjacency(seq.base):
        raise SequenceMismatch("sequence does not reproduce its base graph")


def spanning_tree_edges(g: Graph) -> set[Edge]:
    """BFS tree from vertex 1, ties broken by smallest neighbour id."""
    if g.n == 0:
        return set()
    parent: dict[int, int | None] = {}
    order = bfs_order(g, 1, parent=parent)
    if len(order) != g.n:
        raise Disconnected("graph is not connected")
    return {norm_edge(v, parent[v]) for v in order[1:]}


def reduce_to_spanning_tree(g: Graph) -> EditSequence:
    """Edge deletions (in index order) leaving the BFS spanning tree from vertex 1."""
    tree = spanning_tree_edges(g)
    intents = [EdgeDelete(u, v) for (u, v) in g.edges if (u, v) not in tree]
    return apply_edits(g, intents)


# -- edit-intent JSON (CLI surface) ------------------------------------------------


def edits_from_json(items) -> list[EditOp]:
    ops: list[EditOp] = []
    try:
        for item in items:
            kind = item["kind"]
            if kind == "vertex_delete":
                ops.append(VertexDelete(_json_int(item["v"], "v")))
            elif kind == "edge_delete":
                ops.append(EdgeDelete(_json_int(item["u"], "u"), _json_int(item["v"], "v")))
            elif kind == "contract":
                ops.append(Contract(_json_int(item["u"], "u"), _json_int(item["v"], "v")))
            else:
                raise ParseError(f"unknown edit kind {kind!r}")
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad edit list: {exc}") from exc
    return ops
