"""Gain-matrix assembly, exact flows, and differential state recovery.

A flow graph's t-by-n gain matrix stacks one row per vertex (net flow) on top
of one row per edge (through flow).  Edge rows carry +gain at the smaller
endpoint and -gain at the larger; vertex rows carry the gain sums.  Every row
sums to zero, so constant states produce zero flow.

Only the per-edge gains are stored: an edge row has two nonzeros and a vertex
row is the signed sum of its incident edge rows, so H*x costs O(n+m).  Dense
rows are a derived view, built on request (and for export) from the gains.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exceptions import (
    DimensionMismatch,
    Disconnected,
    Inconsistent,
    MissingGain,
    ParseError,
)
from .graph import Edge, Graph, is_connected
from .ratio import fmt_ratio, parse_ratio

F = Fraction


@dataclass(frozen=True, eq=False)
class GainMatrix:
    n: int
    t: int
    gains: tuple[Fraction, ...]  # one gain per edge, in edge order
    edges: tuple[Edge, ...]  # edge order mirrors the flow indices n+1..t

    def _sparse_rows(self) -> list[dict[int, Fraction]]:
        """Nonzero cells of every row (0-based column -> value); diagonals always present."""
        vertex_rows: list[dict[int, Fraction]] = [{i: F(0)} for i in range(self.n)]
        edge_rows = []
        for (u, v), b in zip(self.edges, self.gains):
            for a, c in ((u - 1, v - 1), (v - 1, u - 1)):
                vertex_rows[a][a] += b
                vertex_rows[a][c] = -b
            edge_rows.append({u - 1: b, v - 1: -b})
        return vertex_rows + edge_rows

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """Dense rows 1..t (vertices, then edges), derived from the gains on each access."""
        zero = F(0)
        return tuple(
            tuple(cells.get(j, zero) for j in range(self.n)) for cells in self._sparse_rows()
        )

    def row(self, index: int) -> tuple[Fraction, ...]:
        """Row by 1-based flow index."""
        if not (1 <= index <= self.t):
            raise ValueError(f"row index {index} outside 1..{self.t}")
        return self.rows[index - 1]

    def multiply(self, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(x) != self.n:
            raise DimensionMismatch(f"state has length {len(x)}, expected {self.n}")
        net = [F(0)] * self.n
        through = []
        for (u, v), b in zip(self.edges, self.gains):
            f = b * (x[u - 1] - x[v - 1])
            net[u - 1] += f
            net[v - 1] -= f
            through.append(f)
        return tuple(net + through)

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(cells.values()) for cells in self._sparse_rows())


def assemble_gain_matrix(g: Graph) -> GainMatrix:
    """Build the gain matrix from a graph whose every edge carries a gain."""
    if g.gains is None:
        raise MissingGain("graph carries no gains")
    for pos in range(len(g.edges)):
        if g.n + 1 + pos not in g.gains:
            raise MissingGain(f"edge {g.edges[pos]} has no gain")
    gains = tuple(g.gains[g.n + 1 + pos] for pos in range(len(g.edges)))
    return GainMatrix(n=g.n, t=g.t, gains=gains, edges=g.edges)


def flows(h: GainMatrix, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Exact flow vector H*x."""
    return h.multiply(tuple(parse_ratio(v) for v in x))


def recover_states(
    h: GainMatrix, z: Sequence[Fraction], g: Graph, x1_ref: Fraction | str | int = 0
) -> tuple[Fraction, ...]:
    """Recover the full state from a flow vector and the reference state at vertex 1.

    Edge rows give the exact state difference across each edge; a breadth-first
    walk from vertex 1 propagates them, and every edge (tree or not) is then
    re-checked exactly.  Vertex rows are not consulted: the differential
    procedure needs only the through flows.
    """
    if not is_connected(g):
        raise Disconnected("state recovery needs a connected graph")
    if g.n != h.n or g.t != h.t or g.edges != h.edges:
        raise DimensionMismatch("gain matrix does not match the graph")
    z = tuple(parse_ratio(v) for v in z)
    if len(z) != h.t:
        raise DimensionMismatch(f"flow vector has length {len(z)}, expected {h.t}")

    # through flow / gain = x_u - x_v across each edge (u, v)
    diffs = {e: zf / gain for e, gain, zf in zip(h.edges, h.gains, z[g.n :])}

    x: dict[int, Fraction] = {1: parse_ratio(x1_ref)}
    queue = deque([1])
    while queue:
        a = queue.popleft()
        for b in g.neighbors(a):
            if b in x:
                continue
            if a < b:
                x[b] = x[a] - diffs[(a, b)]
            else:
                x[b] = x[a] + diffs[(b, a)]
            queue.append(b)

    for (u, v), d in diffs.items():
        if x[u] - x[v] != d:
            raise Inconsistent(f"edge ({u},{v}) implies a conflicting state difference")
    return tuple(x[v] for v in g.vertices())


# -- JSON -----------------------------------------------------------------------


def matrix_to_json(h: GainMatrix) -> dict:
    """Dense text grid: every cell "0" except the few nonzeros each row carries."""
    rows = []
    for cells in h._sparse_rows():
        row = ["0"] * h.n
        for col, val in cells.items():
            row[col] = fmt_ratio(val)
        rows.append(row)
    return {"n": h.n, "t": h.t, "edges": [[u, v] for u, v in h.edges], "rows": rows}


def vector_to_json(vec: Sequence[Fraction]) -> dict:
    return {"values": [fmt_ratio(v) for v in vec]}


def vector_from_json(obj) -> tuple[Fraction, ...]:
    try:
        return tuple(parse_ratio(v) for v in obj["values"])
    except ParseError:
        raise
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad vector object: {exc}") from exc
