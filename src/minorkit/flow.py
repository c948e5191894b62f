"""Gain-matrix assembly, exact flows, and differential state recovery.

A flow graph's t-by-n gain matrix stacks one row per vertex (net flow) on top
of one row per edge (through flow).  Edge rows carry +gain at the smaller
endpoint and -gain at the larger; vertex rows carry the gain sums.  Every row
sums to zero, so constant states produce zero flow.

Only the per-edge gains are stored, and they must be positive: an edge row
has two nonzeros and a vertex row is the signed sum of its incident edge rows,
so H*x costs O(n+m).  The product sums each entry as ints on that entry's own
common denominator and builds one Fraction per entry.  The rows are stored
sparse, as int cells (column, numerator, denominator) built from the gains once
per matrix, on first use; the dense rows, the row sums and the export all read
them.  ``flow matrix --out`` streams the dense grid from the same cells, row by
row, splicing each row's few nonzeros into a run of "0" cells, so neither a
Fraction nor a dense row of strings is built on its way to the file.

State recovery inverts the through flows in the same way: ``recover_pairs``
takes the flows and the reference state as (numerator, denominator) int pairs,
walks the graph once (``graph.bfs_order``, which also shows it connected), sets
each state from its parent's, one lcm per step, checks every edge by
cross-multiplication, and returns pairs, so the CLI reads, recovers and prints
without a Fraction.  ``recover_states`` is the same walk on Fractions in and
out.  Recovery is linear in the flows and the reference state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .exceptions import (
    BadBounds,
    DimensionMismatch,
    Disconnected,
    Inconsistent,
    MissingGain,
    ParseError,
)
from .graph import Edge, Graph, bfs_order
from .ratio import fmt_pair, fmt_ratio, parse_pair, parse_ratio

F = Fraction


@dataclass(frozen=True, eq=False)
class GainMatrix:
    n: int
    t: int
    gains: tuple[Fraction, ...]  # one gain per edge, in edge order
    edges: tuple[Edge, ...]  # edge order mirrors the flow indices n+1..t

    def __post_init__(self) -> None:
        for (u, v), b in zip(self.edges, self.gains):
            if b.numerator <= 0:
                raise BadBounds(f"gain {b} of edge ({u},{v}) is not positive")

    @cached_property
    def _cells(self) -> list[list[tuple[int, int, int]]]:
        """Nonzero cells of every row as (0-based column, num, den > 0), sorted by column.

        An edge row (u, v) holds +b at u and -b at v (u < v in a ``Graph``); a
        vertex row holds -b at each neighbour and, always, its diagonal: the
        sum of its incident gains, kept on a running lcm of their denominators
        and left unreduced.  Built once per matrix, on first use, and shared by
        ``row``, ``row_sums``, ``matrix_to_json`` and the CLI's matrix writer;
        callers only read it.
        """
        diag = [(0, 1)] * self.n
        vertex_rows: list[list[tuple[int, int, int]]] = [[] for _ in range(self.n)]
        edge_rows = []
        for (u, v), b in zip(self.edges, self.gains):
            bn, bd = b.numerator, b.denominator
            u, v = u - 1, v - 1
            for a, c in ((u, v), (v, u)):
                vertex_rows[a].append((c, -bn, bd))
                an, ad = diag[a]
                common = math.lcm(ad, bd)
                diag[a] = (an * (common // ad) + bn * (common // bd), common)
            plus, minus = (u, bn, bd), (v, -bn, bd)
            edge_rows.append([plus, minus] if u < v else [minus, plus])
        for a, (cells, (an, ad)) in enumerate(zip(vertex_rows, diag)):
            cells.append((a, an, ad))
            cells.sort()
        return vertex_rows + edge_rows

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """Dense rows 1..t (vertices, then edges), derived from the cells on each access."""
        return tuple(self.row(i) for i in range(1, self.t + 1))

    def row(self, index: int) -> tuple[Fraction, ...]:
        """Row by 1-based flow index, built from its cells alone."""
        if not (1 <= index <= self.t):
            raise ValueError(f"row index {index} outside 1..{self.t}")
        dense = [F(0)] * self.n
        for col, num, den in self._cells[index - 1]:
            dense[col] = F(num, den)
        return tuple(dense)

    def multiply(self, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """H*x in O(n+m), each entry summed as ints on its own denominator.

        A through flow b*(x_u - x_v) puts both states on the lcm of their two
        denominators; a net flow keeps a running lcm of its own terms.  Only
        the returned entries become Fractions.  (One lcm for the whole vector
        would grow with every coprime denominator in it.)
        """
        if len(x) != self.n:
            raise DimensionMismatch(f"state has length {len(x)}, expected {self.n}")
        xs = [(xi.numerator, xi.denominator) for xi in x]
        net_num = [0] * self.n
        net_den = [1] * self.n
        through = []
        for (u, v), b in zip(self.edges, self.gains):
            (un, ud), (vn, vd) = xs[u - 1], xs[v - 1]
            den = math.lcm(ud, vd)
            num = b.numerator * (un * (den // ud) - vn * (den // vd))
            den *= b.denominator
            through.append(F(num, den))
            for w, term in ((u - 1, num), (v - 1, -num)):
                wd = net_den[w]
                common = math.lcm(wd, den)
                net_num[w] = net_num[w] * (common // wd) + term * (common // den)
                net_den[w] = common
        return tuple([F(a, d) for a, d in zip(net_num, net_den)] + through)

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(F(*_cell_sum(cells)) for cells in self._cells)


def _cell_sum(cells: Sequence[tuple[int, int, int]]) -> tuple[int, int]:
    """The sum of (col, num, den > 0) cells as an unreduced (num, den) pair, on a running lcm."""
    total, common = 0, 1
    for _, num, den in cells:
        if den != common:
            lcm = math.lcm(common, den)
            total *= lcm // common
            num *= lcm // den
            common = lcm
        total += num
    return total, common


def assemble_gain_matrix(g: Graph) -> GainMatrix:
    """Build the gain matrix from a graph whose every edge carries a gain."""
    known = g.gains or {}
    for pos, e in enumerate(g.edges):
        if g.n + 1 + pos not in known:
            raise MissingGain(f"edge {e} has no gain")
    gains = tuple(map(known.__getitem__, range(g.n + 1, g.t + 1)))
    return GainMatrix(n=g.n, t=g.t, gains=gains, edges=g.edges)


def flows(h: GainMatrix, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Exact flow vector H*x."""
    return h.multiply(tuple(parse_ratio(v) for v in x))


def recover_pairs(
    h: GainMatrix, z: Sequence[tuple[int, int]], g: Graph, ref: tuple[int, int]
) -> tuple[tuple[int, int], ...]:
    """Recover the full state, as (num, den > 0) pairs, from flow and reference pairs.

    Edge rows give the exact state difference z_e / b_e across each edge; one
    breadth-first walk from vertex 1 (``bfs_order``) shows the graph connected
    and propagates them along its tree, and every edge (tree or not) is then
    re-checked exactly, in edge order, so the first conflicting edge is the one
    named.  Vertex rows are not consulted: the differential procedure needs
    only the through flows.

    The walk runs on ints, like ``GainMatrix.multiply``: each difference and
    each state is a (numerator, denominator) pair.  A step puts the parent
    state and the difference on the lcm of their two denominators, and a zero
    difference copies the parent's pair.  The check compares cross products.
    Input pairs need not be reduced, and neither are the returned ones.
    """
    parent: dict[int, int | None] = {}
    order = bfs_order(g, 1, parent=parent) if g.n else []
    if len(order) != g.n:
        raise Disconnected("state recovery needs a connected graph")
    if g.n != h.n or g.t != h.t or g.edges != h.edges:
        raise DimensionMismatch("gain matrix does not match the graph")
    if len(z) != h.t:
        raise DimensionMismatch(f"flow vector has length {len(z)}, expected {h.t}")

    # through flow / gain = x_u - x_v across each edge (u, v); gains are positive
    diffs = {
        e: (zn * b.denominator, zd * b.numerator)
        for e, b, (zn, zd) in zip(h.edges, h.gains, z[g.n :])
    }

    x: dict[int, tuple[int, int]] = {1: ref}
    for b in order[1:]:
        a = parent[b]
        an, ad = x[a]
        # x_b = x_a - d for the edge (a, b), x_a + d for the edge (b, a)
        dn, dd = diffs[(a, b)] if a < b else diffs[(b, a)]
        if dn == 0:
            x[b] = (an, ad)
        else:
            den = math.lcm(ad, dd)
            step = dn * (den // dd)
            x[b] = (an * (den // ad) + (step if b < a else -step), den)

    for (u, v), (dn, dd) in diffs.items():
        (un, ud), (vn, vd) = x[u], x[v]
        if (un * vd - vn * ud) * dd != dn * ud * vd:
            raise Inconsistent(f"edge ({u},{v}) implies a conflicting state difference")
    return tuple(x[v] for v in g.vertices())


def recover_states(
    h: GainMatrix, z: Sequence[Fraction], g: Graph, x1_ref: Fraction | str | int = 0
) -> tuple[Fraction, ...]:
    """``recover_pairs`` on parsed rationals: the states as Fractions."""
    pairs = [parse_pair(v) for v in z]
    return tuple(F(n, d) for n, d in recover_pairs(h, pairs, g, parse_pair(x1_ref)))


# -- JSON -----------------------------------------------------------------------


def matrix_to_json(h: GainMatrix) -> dict:
    """Dense text grid: every cell "0" except the few nonzeros each row carries."""
    rows = []
    for cells in h._cells:
        row = ["0"] * h.n
        for col, num, den in cells:
            row[col] = fmt_pair(num, den)
        rows.append(row)
    return {"n": h.n, "t": h.t, "edges": [[u, v] for u, v in h.edges], "rows": rows}


def vector_to_json(vec: Sequence[Fraction]) -> dict:
    return {"values": [fmt_ratio(v) for v in vec]}


def pairs_from_json(obj, key: str = "values") -> list[tuple[int, int]]:
    """obj[key], a JSON list of rationals, as (num, den > 0) pairs (see ``parse_pair``)."""
    try:
        values = obj[key]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad vector object: {exc}") from exc
    if not isinstance(values, list):
        raise ParseError(f"vector {key!r} must be a JSON list")
    return [parse_pair(v) for v in values]


def vector_from_json(obj) -> tuple[Fraction, ...]:
    return tuple(F(n, d) for n, d in pairs_from_json(obj))
