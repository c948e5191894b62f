"""Simple undirected graphs with labels 1..n, edit operations, and small oracles.

Vertices are labelled 1..n and edges carry stable flow indices n+1..t (t = n + m),
so a graph doubles as the index space of a flow system.  Edit operations (vertex
deletion, edge deletion, contraction) record the neighbourhood snapshots needed to
invert them later.  Contraction always merges the currently highest label into a
neighbour; arbitrary edges are handled by a recorded label swap first.  Replay
checks snapshots alone: an op's snapshots rebuild the graph before it from the
one after it, so they and the base graph pin every intermediate graph.

One breadth-first walk, ``bfs_order``, gives components, shortest paths and the
BFS spanning tree here, and the tree layout and state recovery elsewhere.
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
    if parent is None:
        parent = {}
    parent[root] = None
    order = [root]
    adj = g._adj
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
    parent: dict[int, int | None] = {}
    return [
        tuple(sorted(bfs_order(g, start, removed_set, parent)))
        for start in g.vertices()
        if start not in parent
    ]


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


def swap_labels(g: Graph, a: int, b: int) -> Graph:
    """Graph with labels a and b exchanged (gains dropped)."""
    if a == b:
        return Graph(g.n, g.edges)

    def m(x: int) -> int:
        return b if x == a else a if x == b else x

    return Graph(g.n, [norm_edge(m(u), m(v)) for u, v in g.edges])


def record_edit(g: Graph, op: EditOp) -> tuple[Graph, EditOp]:
    """Apply one edit and return (minor, op completed with snapshots).

    Gains are not carried into minors; the edit pipeline serves the box
    constructions, which are gain-free.
    """
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


def apply_edit(g: Graph, op: EditOp) -> Graph:
    """The minor produced by one edit operation (snapshots recomputed, not trusted)."""
    return record_edit(g, op)[0]


def invert_edit(h: Graph, op: EditOp) -> Graph:
    """Reconstruct the graph an applied edit came from, using its snapshots."""
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


@dataclass(frozen=True)
class EditSequence:
    """Ordered applied edits, with their snapshots, reducing some graph to `base`."""

    base: Graph
    ops: tuple[EditOp, ...]

    def counts(self) -> tuple[int, int, int]:
        """(vertex deletions, edge deletions, contractions)."""
        av = sum(1 for op in self.ops if isinstance(op, VertexDelete))
        ae = sum(1 for op in self.ops if isinstance(op, EdgeDelete))
        bc = sum(1 for op in self.ops if isinstance(op, Contract))
        return av, ae, bc


def apply_edits(g: Graph, intents: Sequence[EditOp]) -> EditSequence:
    """Apply edits in order, recording each op's snapshots."""
    cur = g
    ops: list[EditOp] = []
    for intent in intents:
        cur, done = record_edit(cur, intent)
        ops.append(done)
    return EditSequence(base=cur, ops=tuple(ops))


def replay_edits(g: Graph, seq: EditSequence) -> list[tuple[Graph, EditOp, Graph]]:
    """Re-run a sequence from g, checking each op's snapshots and the base graph."""
    cur = g
    steps: list[tuple[Graph, EditOp, Graph]] = []
    for op in seq.ops:
        before = cur
        cur, recomputed = record_edit(cur, op)
        if recomputed != op:
            raise SequenceMismatch(f"snapshot mismatch at {op!r}")
        steps.append((before, op, cur))
    if not cur.same_topology(seq.base):
        raise SequenceMismatch("sequence does not reproduce its base graph")
    return steps


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
