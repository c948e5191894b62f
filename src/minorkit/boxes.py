"""Exact axis-aligned boxes and the strong-representation verifier.

Every decision is exact: touching boxes, shared endpoints and zero-width gaps are
never left to floating point.  The verifier puts each call's boxes and points
on one integer grid: with L the lcm of all their denominators, p/q becomes the
int p * (L // q), which keeps order, equality and L-scaled gaps exact, so C1,
witness radii and witness checks compare ints.  `GridRep` holds a
representation in that form, with radii as (num, den) pairs.  A file goes
to the grid and back without Fractions, each distinct coordinate read and
written once: `grid_from_json` reads a well-formed file in flat passes, each
distinct value as the (num, den) pair it spells, scales them onto one grid and
tests order and degeneracy on the ints at once (any other file goes to an
ordered reader that names its first fault), and `grid_to_json` formats each
distinct x once as the text of x / L.  `GridRep.of` scales Fractions by the
same `_on_grid`.  `verify_grid` decides C1 and re-checks the stored witnesses
on per-axis interval tables (`_Tables`): each vertex is one bit of an int
mask, each axis groups the boxes by distinct interval, and prefix ORs over
the intervals sorted by lo and by hi give, with two bisects, the boxes that
meet an interval or lie at least t from a coordinate.  A box meets the AND
over its axes of its intervals' sets, and a witness of radius rn/rd passes
when the boxes at least t = rn * L // (2 * rd) + 1 away on some axis, with
its own, are all of them.  So a verify makes O(n * d) ANDs and ORs of n-bit
masks, not n^2 / 2 box-pair tests, and its tables hold up to Theta(n^2 * d)
bits: one n-bit mask per distinct interval, and a tree's leaf axis has about
n of them.  A `C2Report` keeps the grid it decided on as `rep`; its Fraction
`witnesses` are built when first read, and `witnesses_to_json` writes them
from the ints.  `certify_grid` proves a builder's output (C1, witness points,
radii) on such a grid, so an edit pipeline's lifts stay on their base's grid
from the base to the written file.  Its full check, and the radii of swept
witnesses, run on the same tables: the boxes within a grid unit of a point
are those that no axis puts a unit (t = L) away.
`certify_lift` proves a lift from its input's certificate, the map of which
boxes meet.  The lift hands it the input grid, the part it appends to each
kept box and point, and the whole box and point of the one vertex it changes,
if any; the certifier joins each kept box to its input box, so the first axes
are the input's proven tuples.  The kept boxes are checked once per class of
appended parts, on the appended axes, and the changed box is compared on the
old axes only with the classes whose appended parts it meets or comes within
half a grid unit of.  The certificate is carried: the input's map is copied,
and only the entries the step touches are fixed.  A grid carries a
certificate only when every witness radius is 1/4; a lift of any other grid,
or one that brings its changed box or point within half a grid unit of a
kept point or box, gets the full check.
A certificate never changes once its grid exists: a lift keeps each entry
that its step leaves as it was as the same object, and copies an entry
before changing it.
Boxes are closed, so two boxes that share only a boundary point do
intersect; builders therefore keep strictly positive gaps between
non-adjacent boxes.

The exclusivity condition for a vertex v asks for a boundary point of v's box
together with a small cube around it that avoids every other box.  Deciding it
exactly reduces to facet coverage: v's boundary is fully covered by the other
(closed) boxes iff each of its 2d facets is, and a facet is covered iff every
full-dimensional cell of the endpoint arrangement restricted to it lies inside
some other box.  The search below subdivides facets recursively at box
endpoints, on the grid's ints, discarding pieces that sit inside one covering
box, so an uncovered cell centre is found quickly when one exists.  A centre
is kept doubled, lo + hi per axis, so no int is divided: the swept points lie
on the grid of 2 * scale, and `GridRep.witnessed` re-bases the boxes there.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, chain
from math import lcm
from operator import and_, attrgetter, itemgetter, or_

from .exceptions import (
    DimensionMismatch,
    MissingWitness,
    ParseError,
    TooLarge,
    VertexMismatch,
)
from .graph import Edge, Graph, _json_int
from .ratio import fmt_pair, parse_pair, parse_ratio

Point = tuple[Fraction, ...]
Interval = tuple[Fraction, Fraction]

# Exact facet sweeps are gated; past these sizes a representation must carry
# witnesses to be checkable.
DEFAULT_MAX_SWEEP_DIM = 4
DEFAULT_MAX_SWEEP_BOXES = 64


@dataclass(frozen=True)
class Box:
    """Closed product of intervals with exact rational endpoints."""

    intervals: tuple[Interval, ...]

    def __post_init__(self):
        if not self.intervals:
            raise ValueError("a box needs dimension >= 1")
        for lo, hi in self.intervals:
            if lo > hi:
                raise ValueError(f"interval [{lo},{hi}] out of order")

    @classmethod
    def make(cls, *pairs) -> "Box":
        return cls(tuple((parse_ratio(a), parse_ratio(b)) for a, b in pairs))

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def is_degenerate(self) -> bool:
        return any(lo == hi for lo, hi in self.intervals)

    def contains(self, p: Point) -> bool:
        return len(p) == self.dim and all(lo <= x <= hi for (lo, hi), x in zip(self.intervals, p))

    def on_boundary(self, p: Point) -> bool:
        return self.contains(p) and any(
            x == lo or x == hi for (lo, hi), x in zip(self.intervals, p)
        )

    def intersects(self, other: "Box") -> bool:
        if self.dim != other.dim:
            raise DimensionMismatch(f"dims {self.dim} vs {other.dim}")
        return all(
            max(a_lo, b_lo) <= min(a_hi, b_hi)
            for (a_lo, a_hi), (b_lo, b_hi) in zip(self.intervals, other.intervals)
        )

    def linf_distance(self, p: Point) -> Fraction:
        """L-infinity distance from a point to the box (0 when inside)."""
        gap = Fraction(0)
        for (lo, hi), x in zip(self.intervals, p):
            if x < lo:
                gap = max(gap, lo - x)
            elif x > hi:
                gap = max(gap, x - hi)
        return gap


@dataclass(frozen=True)
class Witness:
    """Exclusive boundary point plus the side length of its private cube."""

    point: Point
    radius: Fraction


class Representation:
    """Assignment of one full-dimensional box per vertex, with optional witnesses."""

    def __init__(self, boxes: Mapping[int, Box], witnesses: Mapping[int, Witness] | None = None):
        if not boxes:
            raise ValueError("a representation needs at least one box")
        dims = {b.dim for b in boxes.values()}
        if len(dims) != 1:
            raise DimensionMismatch(f"mixed box dimensions {sorted(dims)}")
        for v, b in boxes.items():
            if b.is_degenerate():
                raise ValueError(f"box for vertex {v} is degenerate")
        self.boxes: dict[int, Box] = dict(boxes)
        self.dim: int = dims.pop()
        ws = dict(witnesses or {})
        for v, w in ws.items():
            if v not in self.boxes:
                raise VertexMismatch(f"witness for unknown vertex {v}")
            if len(w.point) != self.dim:
                raise DimensionMismatch(f"witness point for {v} has wrong dimension")
        self.witnesses: dict[int, Witness] = ws

    def vertices(self) -> list[int]:
        return sorted(self.boxes)


# -- JSON -------------------------------------------------------------------------


def rep_to_json(rep: Representation) -> dict:
    return grid_to_json(GridRep.of(rep))


def _grid_text(scale: int):
    """x -> the text of x / scale, each distinct x formatted once: lifts repeat coordinates."""
    memo: dict[int, str] = {}

    def text(x: int) -> str:
        t = memo.get(x)
        if t is None:
            t = memo[x] = fmt_pair(x, scale)
        return t

    return text


def grid_to_json(rep: GridRep) -> dict:
    """rep_to_json of the representation on rep's grid, written from its ints in rep's order."""
    text = _grid_text(rep.scale)
    out: dict = {
        "dim": rep.dim,
        "boxes": {str(v): [[text(lo), text(hi)] for lo, hi in b] for v, b in rep.boxes.items()},
    }
    if rep.radii:
        out["witnesses"] = witnesses_to_json(rep)
    return out


def witnesses_to_json(rep: GridRep) -> dict:
    """The "witnesses" object of rep's JSON, written from its ints in rep's order."""
    text = _grid_text(rep.scale)
    return {
        str(v): {"point": [text(x) for x in rep.points[v]], "radius": fmt_pair(*r)}
        for v, r in rep.radii.items()
    }


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _label(key: str) -> int:
    """A vertex label spelled in canonical decimal: "7", not " 7", "07" or "+7"."""
    if key.isascii() and key.isdigit() and (key[0] != "0" or key == "0"):
        return int(key)
    raise ParseError(f"vertex key {key!r} is not a canonical decimal label")


def grid_from_json(obj) -> GridRep:
    """A representation's JSON, read straight onto one integer grid.

    Each value is the (num, den) pair it spells (parse_pair), and the grid's
    scale is the lcm of every box and witness-point den (TooLarge past
    GRID_MAX_BITS bits).  Witnesses are optional, and radii stay pairs.  A
    well-formed file is read flat (_grid_flat); any other goes to the ordered
    reader, whose checks, their order and their messages are those of Box,
    Representation and rep_from_json, which is this reader plus
    GridRep.to_representation.
    """
    rep = _grid_flat(obj)
    return rep if rep is not None else _grid_ordered(obj)


_POINT, _RADIUS = itemgetter("point"), itemgetter("radius")


def _grid_flat(obj) -> GridRep | None:
    """grid_from_json of a well-formed file in flat passes, or None on any doubt.

    The boxes' values and then the points' are taken as one flat list, each
    distinct value is parsed once, and order and degeneracy are one test over
    the scaled ints.  Any other shape or type, a label that is not canonical, a
    value that does not parse, an unknown witness vertex, an interval with lo
    >= hi or a grid past GRID_MAX_BITS gives None, and the ordered reader then
    names the first fault.
    """
    if obj.__class__ is not dict:
        return None
    dim, boxes, ws = obj.get("dim"), obj.get("boxes"), obj.get("witnesses", {})
    if dim.__class__ is not int or dim < 1 or boxes.__class__ is not dict or not boxes or ws.__class__ is not dict:
        return None
    keys = [*boxes, *ws]
    try:
        labels = list(map(int, keys))
    except (TypeError, ValueError):  # ValueError past the int/str digit limit too
        return None
    if min(labels) < 0 or list(map(str, labels)) != keys:  # each label spelled in canonical decimal
        return None
    box_ivs = list(boxes.values())
    if not {list}.issuperset(map(type, box_ivs)) or not {dim}.issuperset(map(len, box_ivs)):
        return None
    ivs = list(chain.from_iterable(box_ivs))
    if not {list}.issuperset(map(type, ivs)) or not {2}.issuperset(map(len, ivs)):
        return None
    entries = list(ws.values())
    if not {dict}.issuperset(map(type, entries)):
        return None
    try:
        points, radii = list(map(_POINT, entries)), list(map(_RADIUS, entries))
    except KeyError:
        return None
    if not {list}.issuperset(map(type, points)) or not {dim}.issuperset(map(len, points)):
        return None
    coords = [*chain.from_iterable(ivs), *chain.from_iterable(points)]
    if not {str, int}.issuperset(map(type, chain(coords, radii))):
        return None
    spelled = dict.fromkeys(coords)
    try:
        for x in spelled:
            spelled[x] = parse_pair(x)
        radii = [spelled.get(r) or parse_pair(r) for r in radii]
    except ParseError:
        return None
    try:  # the distinct values, scaled as one point by the one way onto the grid
        scale, _, scaled = _on_grid({}, {0: spelled.values()})
    except TooLarge:
        return None
    ints = list(map(dict(zip(spelled, scaled[0])).__getitem__, coords))
    end = 2 * dim * len(box_ivs)
    lo, hi = ints[0:end:2], ints[1:end:2]
    if not all(map(int.__lt__, lo, hi)) or not all(map(boxes.__contains__, ws)):
        return None
    wlabels = labels[len(box_ivs):]
    return GridRep(
        scale,
        dict(zip(labels, zip(*[zip(lo, hi)] * dim))),
        dict(zip(wlabels, zip(*[iter(ints[end:])] * dim))),
        dict(zip(wlabels, radii)),
    )


def _grid_ordered(obj) -> GridRep:
    """grid_from_json one check at a time, in the order that names the first fault."""
    try:
        obj = _json_object(obj, "a representation")
        dim = _json_int(obj["dim"], "dim")
        boxes = {}
        for key, ivs in _json_object(obj["boxes"], "boxes").items():
            if not isinstance(ivs, list) or not all(isinstance(iv, list) for iv in ivs):
                raise ParseError(f"box {key} must be a JSON list of [lo, hi] lists")
            box = [(parse_pair(lo), parse_pair(hi)) for lo, hi in ivs]
            if not box:
                raise ValueError("a box needs dimension >= 1")
            for (lo_n, lo_d), (hi_n, hi_d) in box:
                if lo_n * hi_d > hi_n * lo_d:
                    raise ValueError(f"interval [{fmt_pair(lo_n, lo_d)},{fmt_pair(hi_n, hi_d)}] out of order")
            if len(box) != dim:
                raise ParseError(f"box for vertex {key} has dim {len(box)}, expected {dim}")
            boxes[_label(key)] = box
        points, radii = {}, {}
        for key, w in _json_object(obj.get("witnesses", {}), "witnesses").items():
            if not isinstance(w, dict) or not isinstance(w.get("point"), list):
                raise ParseError(f"witness {key} must be a JSON object with a list point")
            point = [parse_pair(x) for x in w["point"]]
            radius = parse_pair(w["radius"])
            v = _label(key)
            points[v], radii[v] = point, radius
        if not boxes:
            raise ValueError("a representation needs at least one box")
        scale, grid, scaled = _on_grid(boxes, points)
        for v, b in grid.items():
            if any(lo == hi for lo, hi in b):
                raise ValueError(f"box for vertex {v} is degenerate")
        for v, p in points.items():
            if v not in grid:
                raise VertexMismatch(f"witness for unknown vertex {v}")
            if len(p) != dim:
                raise DimensionMismatch(f"witness point for {v} has wrong dimension")
        return GridRep(scale, grid, scaled, radii)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, DimensionMismatch, VertexMismatch) as exc:
        raise ParseError(f"bad representation object: {exc}") from exc


def rep_from_json(obj) -> Representation:
    return grid_from_json(obj).to_representation()


# -- the integer grid ----------------------------------------------------------------

# Many distinct coprime denominators make L as long as all of them together, and
# every scaled coordinate that long, so the grid's memory is the boxes times the
# bits of L, quadratic in the number of distinct denominators.  This bound keeps
# each value within 512 bytes.  No builder gets near it (the bases are ints at
# scale 1 and lifts keep their input's scale): a given representation past it is
# an input error.
GRID_MAX_BITS = 4096

IntBox = tuple[tuple[int, int], ...]
IntPoint = tuple[int, ...]
Pair = tuple[int, int]  # num / den, den > 0, not necessarily reduced


def _on_grid(
    boxes: Mapping[int, Iterable[tuple[Pair, Pair]]], points: Mapping[int, Iterable[Pair]]
) -> tuple[int, dict[int, IntBox], dict[int, IntPoint]]:
    """Scale (num, den) boxes and points onto the grid of L, the lcm of every den: p/q is p * (L // q).

    TooLarge if L passes GRID_MAX_BITS bits.
    """
    dens = {d for box in boxes.values() for iv in box for _, d in iv}
    dens.update(d for p in points.values() for _, d in p)
    scale = 1
    for q in dens:
        scale = lcm(scale, q)
        if scale.bit_length() > GRID_MAX_BITS:
            raise TooLarge(f"the lcm of a representation's denominators passes {GRID_MAX_BITS} bits")
    mult = {q: scale // q for q in dens}
    grid = {
        v: tuple((lo_n * mult[lo_d], hi_n * mult[hi_d]) for (lo_n, lo_d), (hi_n, hi_d) in box)
        for v, box in boxes.items()
    }
    scaled = {v: tuple(n * mult[d] for n, d in p) for v, p in points.items()}
    return scale, grid, scaled


def _grid(
    boxes: Mapping[int, Box], points: Mapping[int, Point] | None = None
) -> tuple[int, dict[int, IntBox], dict[int, IntPoint]]:
    """_on_grid of Fraction boxes and points."""
    pair = attrgetter("numerator", "denominator")
    return _on_grid(
        {v: [tuple(map(pair, iv)) for iv in b.intervals] for v, b in boxes.items()},
        {v: list(map(pair, p)) for v, p in (points or {}).items()},
    )


def _meet(a: IntBox, b: IntBox) -> bool:
    for (a_lo, a_hi), (b_lo, b_hi) in zip(a, b):
        if a_lo > b_hi or b_lo > a_hi:
            return False
    return True


def _on_boundary(box: IntBox, p: IntPoint) -> bool:
    if len(p) != len(box):
        return False
    touch = False
    for (lo, hi), x in zip(box, p):
        if x < lo or x > hi:
            return False
        if x == lo or x == hi:
            touch = True
    return touch


# -- intersection-pattern check ------------------------------------------------------


@dataclass(frozen=True)
class C1Report:
    ok: bool
    violations: tuple[tuple[int, int, str], ...]  # (i, j, "unexpected" | "missing")


def _check_cover(g: Graph, rep: Representation) -> None:
    if set(rep.boxes) != set(g.vertices()):
        raise VertexMismatch(
            f"representation covers {sorted(rep.boxes)} but the graph has 1..{g.n}"
        )


def verify_c1(g: Graph, rep: Representation) -> C1Report:
    """Boxes intersect exactly for edges; every discrepancy is reported."""
    _check_cover(g, rep)
    _, grid, _ = _grid(rep.boxes)
    bad = _Tables(grid).c1(g.edges)
    return C1Report(ok=not bad, violations=tuple(bad))


class _Tables:
    """The verifier's kernel: one table per axis of a grid's boxes, keyed by distinct interval.

    Each vertex is one bit of an int mask, in sorted label order.  On each
    axis the boxes are grouped by interval, one mask per distinct interval,
    and the distinct intervals are sorted by lo and by hi with prefix ORs over
    both orders, so pre_lo[bisect_right(los, y)] is the set of boxes with lo
    <= y and pre_hi[bisect_left(his, y)] the set with hi < y.  The boxes that
    meet [lo, hi] on an axis are those with lo' <= hi and not hi' < lo, and
    two boxes meet iff they meet on every axis (C1).  A box is far from a point
    x on an axis when its gap there is at least t: lo' >= x + t or hi' <= x - t.
    Each question is answered once per distinct interval, or per distinct
    coordinate and t, on its axis, so a verify does O(n * d) ANDs and ORs of
    n-bit masks.  The tables hold one n-bit mask per distinct interval and
    prefix, up to Theta(n^2 * d) bits where an axis has about n intervals.
    The same questions give a full check's certificate and witness radii.
    """

    def __init__(self, grid: Mapping[int, IntBox]):
        self.grid = grid
        self.verts = verts = sorted(grid)
        self.bit = dict(zip(verts, map((1).__lshift__, range(len(verts)))))
        self.full = (1 << len(verts)) - 1
        self.axes = []
        for col in zip(*map(grid.__getitem__, verts)):
            masks: dict[tuple[int, int], int] = {}
            for iv, b in zip(col, self.bit.values()):
                masks[iv] = masks.get(iv, 0) | b
            by_lo, by_hi = sorted(masks), sorted(masks, key=itemgetter(1))
            los, pre_lo = [lo for lo, _ in by_lo], [0, *accumulate(map(masks.__getitem__, by_lo), or_)]
            his, pre_hi = [hi for _, hi in by_hi], [0, *accumulate(map(masks.__getitem__, by_hi), or_)]
            self.axes.append((los, pre_lo, his, pre_hi, masks))

    def _met(self) -> list[int]:
        """Each vertex's mask of the boxes that meet its box, its own included, in vertex order."""
        tabs = [
            {(lo, hi): pre_lo[bisect_right(los, hi)] & ~pre_hi[bisect_left(his, lo)] for lo, hi in masks}
            for los, pre_lo, his, pre_hi, masks in self.axes
        ]
        return [reduce(and_, map(dict.__getitem__, tabs, self.grid[v])) for v in self.verts]

    def _far(self, t: int, cols: Iterable[Iterable[int]]) -> list[dict[int, int]]:
        """Per axis, each coordinate x of that axis's col -> the set of boxes at least t from x there."""
        full = self.full
        return [
            {x: (full ^ pre_lo[bisect_left(los, x + t)]) | pre_hi[bisect_right(his, x - t)] for x in set(col)}
            for (los, pre_lo, his, pre_hi, _), col in zip(self.axes, cols)
        ]

    def c1(self, edges: Iterable[Edge]) -> list[tuple[int, int, str]]:
        """The C1 violations (i, j, kind), i < j, of the edges (i, j) with i < j, in vertex order."""
        verts, bit = self.verts, self.bit
        adj = dict.fromkeys(verts, 0)
        for i, j in edges:
            if i < j and i in bit and j in bit:
                adj[i] |= bit[j]
                adj[j] |= bit[i]
        bad: list[tuple[int, int, str]] = []
        for k, (v, meets) in enumerate(zip(verts, self._met())):
            # the pairs (v, u) with u > v that disagree
            for u in _labels((meets ^ adj[v]) >> (k + 1) << (k + 1), verts):
                bad.append((v, u, "unexpected" if meets & bit[u] else "missing"))
        return bad

    def passing(self, points: Mapping[int, IntPoint], radii: Mapping[int, Pair], scale: int) -> set[int]:
        """The vertices v of points whose witness, points[v] with radius radii[v], re-checks.

        It must lie on v's boundary, with every other box farther than radius/2
        from it.  On the grid a gap g stands for g/scale, so with radius rn/rd
        the test g/scale > rn/(2*rd) is 2*rd*g > rn*scale, and for an int g that
        is g >= t = rn*scale // (2*rd) + 1, for an unreduced pair too.  A box is
        far enough once one axis puts it at least t away, so for each t the far
        boxes of each distinct coordinate on each axis are found once.
        """
        by_t: dict[int, list[int]] = {}
        for v, p in points.items():
            rn, rd = radii[v]
            if rn > 0 and _on_boundary(self.grid[v], p):
                by_t.setdefault(rn * scale // (2 * rd) + 1, []).append(v)
        full, bit = self.full, self.bit
        ok: set[int] = set()
        for t, vs in by_t.items():
            tabs = self._far(t, zip(*map(points.__getitem__, vs)))
            ok.update(v for v in vs if reduce(or_, map(dict.__getitem__, tabs, points[v]), bit[v]) == full)
        return ok

    def near(self, points: Mapping[int, IntPoint], scale: int) -> dict[int, dict[int, int]]:
        """Each v of points -> {u: L-infinity gap} for each box u but v's less than scale from points[v].

        Those are the boxes that no axis puts at least t = scale away, and each
        costs one _gap.  v need not have a box.
        """
        far = self._far(scale, zip(*points.values()))
        verts, grid, bit, full = self.verts, self.grid, self.bit, self.full
        near = {}
        for v, p in points.items():
            close = full ^ reduce(or_, map(dict.__getitem__, far, p), bit.get(v, 0))
            near[v] = {u: _gap(grid[u], p, scale) for u in _labels(close, verts)} if close else {}
        return near

    def certificate(self, points: Mapping[int, IntPoint], scale: int) -> tuple[dict, dict]:
        """certify_grid's full check (meets, near): meets[v] holds the other boxes that meet v's.

        near is self.near(points, scale), which sets the radii.
        """
        verts = self.verts
        met = zip(verts, self._met(), self.bit.values())
        return {v: set(_labels(m ^ b, verts)) for v, m, b in met}, self.near(points, scale)


def _labels(mask: int, verts: list[int]) -> list[int]:
    """The vertices of mask's set bits, bit k standing for verts[k], lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(verts[low.bit_length() - 1])
        mask ^= low
    return out


# -- exclusive-boundary machinery ----------------------------------------------------


def witness_radius(point: Point, rep: Representation, exclude: int) -> Fraction | None:
    """Half the L-infinity distance to the nearest other box, capped at 1/4.

    None when the point already lies in some other box (no exclusive cube exists).
    """
    return witness_radii({exclude: point}, rep)[exclude]


def witness_radii(points: Mapping[int, Point], rep: Representation) -> dict[int, Fraction | None]:
    """witness_radius of each points[v] against every box but v's, on one shared grid."""
    scale, grid, scaled = _grid(rep.boxes, points)
    radii = {v: _radius(gaps, scale) for v, gaps in _Tables(grid).near(scaled, scale).items()}
    return {v: r if r is None else Fraction(*r) for v, r in radii.items()}


def _radius(gaps: Mapping[int, int], scale: int) -> Pair | None:
    """A witness radius from its near gaps: half the least gap / scale, at most 1/4.

    gaps maps each other box less than scale from the witness to its gap, so
    with none the radius is 1/4.  None when the least gap is 0 (the witness
    lies in another box).
    """
    if not gaps:
        return (1, 4)
    nearest = min(gaps.values())
    if nearest == 0:
        return None
    if 2 * nearest >= scale:  # nearest / (2 * scale) >= 1/4
        return (1, 4)
    return (nearest, 2 * scale)


def certify_grid(adj: dict, scale: int, grid: dict[int, IntBox], scaled: dict[int, IntPoint], what: str) -> GridRep:
    """Prove a builder's grid-form boxes and witness points; return them as a certified GridRep.

    adj maps each vertex to its neighbours and x stands for x / scale.  Every box
    must be full-dimensional, the boxes must meet exactly on adj's edges, and each
    scaled[v] must lie on grid[v]'s boundary and outside every other box; a failure
    is a bug in the builder `what` (AssertionError).  The radii come in vertex order.

    This is the full check: which boxes meet and each witness's near gaps come
    from the boxes' _Tables (_Tables.certificate), exact for any points, and a
    failure is named by a scan in vertex order, as a check of every pair names
    it.  When every radius is 1/4 the result carries the meets as its
    certificate, which a lift of it carries on (certify_lift); otherwise it
    carries none.

    So the result passes verify_grid as it stands.  With nearest >= 1 the least
    L-infinity gap from v's point to another box, on the grid, v's radius is the
    pair (nearest, 2 * scale), or 1/4 when 2 * nearest >= scale.  The re-check
    (_Tables.passing) asks, for each other box, for an axis whose gap is at
    least t = rn * scale // (2 * rd) + 1 for the radius rn/rd: t = nearest // 4 + 1
    for the first, and t = scale // 8 + 1 for 1/4, and both are at most nearest.
    Each other box is at least nearest away on the axis of its L-infinity gap.
    """
    if grid.keys() != adj.keys() or scaled.keys() != grid.keys():
        raise AssertionError(f"{what}: boxes and witness points must cover 1..{len(adj)}")
    _nondegenerate(grid, grid.values(), what)
    meets, near = _Tables(grid).certificate(scaled, scale)
    radii = {v: _radius(near[v], scale) for v in sorted(near)}
    placed = all(_on_boundary(grid[v], p) for v, p in scaled.items())
    cert = meets if {(1, 4)}.issuperset(radii.values()) else None
    return _proved(adj, meets, GridRep(scale, grid, scaled, radii, cert), what, placed)


def certify_lift(adj: dict, prev: GridRep, tails: dict, changed: dict, what: str) -> GridRep:
    """certify_grid of a lift of prev, which keeps every vertex of tails and changes the one of changed.

    tails maps each kept vertex v to the (box, point) parts that the lift
    appends to prev.boxes[v] and prev.points[v]; changed maps the one other
    vertex, if any, to its whole box and point: a lift changes a wide or
    restored box, or none (an edge drop).  The grid is prev's scale, and its
    vertices are those of tails in their order, then the changed one.  The
    certifier joins each kept box and point itself, so their first d0 axes are
    the tuples prev proved: a full-dimensional box, with the point on its
    boundary.  The kept vertices fall into classes by their appended part, and
    each class is checked once, on the appended axes.

    A prev with no certificate (a verified input, or a grid with a radius
    below 1/4) gets certify_grid's full check of the joined grid, and so does a
    step that brings its changed box or point within half a grid unit of a
    kept point or box.  Otherwise the certificate is prev's, carried
    (_carried): prev's map is copied in C, only the entries the step touches
    are fixed, and every radius is 1/4.  So a step costs one pass over the
    kept vertices to join and group them, O(n) work in C (the copy, C1
    compared on every vertex against adj), and Python work only in proportion
    to the classes, the changed box and the kept boxes it meets on the
    appended axes: an edge or vertex lift's wide box meets its neighbours
    there.  Each check, its order and its message are certify_grid's.

    A certificate is never changed once its GridRep exists: a kept vertex's
    entry stays prev's own set where the step leaves it as it was, and is
    copied before its first change.
    """
    if len(changed) > 1:
        raise AssertionError(f"{what}: a lift changes at most one box, not those of {sorted(changed)}")
    old_boxes, old_points, scale = prev.boxes, prev.points, prev.scale
    grid: dict[int, IntBox] = {}
    scaled: dict[int, IntPoint] = {}
    classes: dict[tuple[IntBox, IntPoint], list] = {}  # appended (box, point) -> kept vertices
    try:
        for v, tail in tails.items():
            box, point = tail
            grid[v] = old_boxes[v] + box
            scaled[v] = old_points[v] + point
            classes.setdefault(tail, []).append(v)
    except KeyError as exc:
        raise AssertionError(f"{what}: kept vertex {exc} has no box or no point in the input") from None
    for v, (box, point) in changed.items():
        grid[v], scaled[v] = box, point
    if grid.keys() != adj.keys() or len(grid) != len(tails) + len(changed):
        raise AssertionError(f"{what}: boxes and witness points must cover 1..{len(adj)}")
    meets = None if prev._cert is None else _carried(prev, tails, classes, changed)
    if meets is None:
        return certify_grid(adj, scale, grid, scaled, what)
    _nondegenerate(grid, [box for box, _ in classes] + [box for box, _ in changed.values()], what)
    placed = all(
        len(box) == len(p) and all(lo <= x <= hi for (lo, hi), x in zip(box, p)) for box, p in classes
    ) and all(_on_boundary(box, p) for box, p in changed.values())
    radii = dict.fromkeys(sorted(grid), (1, 4))
    return _proved(adj, meets, GridRep(scale, grid, scaled, radii, meets), what, placed)


def _nondegenerate(grid: dict[int, IntBox], checked: Iterable[IntBox], what: str) -> None:
    """Name the first degenerate box of grid, in its order, if a box of checked is degenerate."""
    if any(lo >= hi for box in checked for lo, hi in box):
        for v, box in grid.items():
            if any(lo >= hi for lo, hi in box):
                raise AssertionError(f"{what}: box for vertex {v} is degenerate")


def _proved(adj: dict, meets: dict, rep: GridRep, what: str, placed: bool) -> GridRep:
    """rep, once meets, which of its boxes meet, is adj and every witness has a radius.

    placed says that every witness point lies on its box's boundary; if not,
    or if a point lies in another box, a scan in vertex order names the first
    fault.
    """
    # a neighbour map of sets (every lift's) is compared in one C call
    if meets != adj and any(len(m) != len(adj[v]) or not m.issuperset(adj[v]) for v, m in meets.items()):
        bad = _Tables(rep.boxes).c1((i, j) for i, ns in adj.items() for j in ns if i < j)
        raise AssertionError(f"{what}: intersection pattern fails at {bad[:3]}")
    if not placed or None in rep.radii.values():
        for v, p in rep.points.items():
            if not _on_boundary(rep.boxes[v], p):
                raise AssertionError(f"{what}: witness point for {v} is not on its boundary")
            if rep.radii[v] is None:
                raise AssertionError(f"{what}: witness point for {v} lies in another box")
    return rep


def _gap(box: IntBox, p: IntPoint, cap):
    """The L-infinity gap from p to box (0 inside it), or any value >= cap once it gets to cap."""
    gap = 0
    for (lo, hi), x in zip(box, p):
        d = lo - x if x < lo else x - hi  # <= 0 inside the interval
        if d > gap:
            if d >= cap:
                return d
            gap = d
    return gap


def _carried(prev: GridRep, tails: dict, classes: dict, changed: dict) -> dict | None:
    """certify_lift's meets, from prev's, or None when a radius may fall below 1/4.

    Boxes meet iff they meet on every axis, so a kept pair's answer is prev's
    and its classes' together.  meets starts as a copy of prev's map that
    shares every entry, and only these entries are fixed:
    - a vertex of prev that the step changed or dropped leaves the meets entry
      of each kept box it met, which prev's entry for it lists;
    - two classes whose appended boxes do not meet cut each other's members
      from their meets entries;
    - the changed box (certify_lift allows at most one) meets each class once
      on the appended axes, and on the first d0 axes only the members of the
      classes it meets there.
    An entry is copied off prev's before its first change.  Every radius of
    prev is 1/4, so each kept point is at least half a grid unit from every
    other kept box on prev's axes, and a gap only grows on appended axes.
    The lift's radii are then all 1/4 unless the changed point comes within
    half a unit of a kept box, or the changed box within half a unit of a
    kept point, and then this gives None.
    """
    meets0 = prev._cert
    meets = meets0.copy()
    d0, old_boxes, old_points, scale = prev.dim, prev.boxes, prev.points, prev.scale
    half = (scale + 1) // 2  # a gap g is under half a unit, 2 * g < scale, iff g < half

    def own(u):  # u's entry of meets, copied off prev's before its first change
        entry = meets[u]
        if entry is meets0[u]:
            entry = meets[u] = entry.copy()
        return entry

    for x in old_boxes.keys() - tails.keys():
        for u in meets0[x]:
            if u in tails:
                own(u).discard(x)
        del meets[x]
    parts = list(classes.items())
    for i, ((box, _), us) in enumerate(parts):
        for (other, _), ws in parts[i + 1:]:
            if not _meet(box, other):
                for a, b in ((us, ws), (ws, us)):
                    cut = set(b)
                    for v in a:
                        if not meets[v].isdisjoint(cut):
                            meets[v] = meets[v] - cut
    for v, (box, p) in changed.items():
        mv = meets[v] = set()
        head, tail, p_head, p_tail = box[:d0], box[d0:], p[:d0], p[d0:]
        for (suffix, point), us in parts:
            if _meet(tail, suffix):
                for u in us:
                    if _meet(head, old_boxes[u]):
                        mv.add(u)
                        own(u).add(v)
            if _gap(suffix, p_tail, half) < half:  # the class's boxes to v's point
                if any(_gap(old_boxes[u], p_head, half) < half for u in us):
                    return None
            if _gap(tail, point, half) < half:  # v's box to the class's points
                if any(_gap(head, old_points[u], half) < half for u in us):
                    return None
    return meets


@dataclass(frozen=True)
class GridRep:
    """A representation on the grid of `scale`: coordinate x stands for x / scale.

    points and radii hold the witnesses, of every vertex when a builder made
    the grid, of those a file gives when grid_from_json read it, and of every
    vertex that keeps one when the verifier made it (witnessed); a radius is
    a (num, den) pair.  Lifts add integer levels and reuse coordinates, so a
    whole edit pipeline keeps the grid of its base.  A grid that certify_grid
    or certify_lift made with every radius 1/4 carries its certificate, which
    the next lift's certify_lift carries on and may share entries with, so
    nothing changes it in place; any other grid has none.
    """

    scale: int
    boxes: dict[int, IntBox]
    points: dict[int, IntPoint]
    radii: dict[int, Pair]
    # which boxes meet, when certify_grid or certify_lift made this grid with every radius 1/4; not part of the value
    _cert: dict | None = field(default=None, compare=False, repr=False)

    @classmethod
    def of(cls, rep: Representation) -> "GridRep":
        """The grid form of a representation and its witnesses."""
        scale, grid, scaled = _grid(rep.boxes, {v: w.point for v, w in rep.witnesses.items()})
        radii = {v: (w.radius.numerator, w.radius.denominator) for v, w in rep.witnesses.items()}
        return cls(scale, grid, scaled, radii)

    @property
    def dim(self) -> int:
        return len(next(iter(self.boxes.values())))

    def rename(self, mapping: Mapping[int, int]) -> "GridRep":
        """The grid with each vertex v relabelled mapping.get(v, v), certificate included."""
        to = mapping.get
        cert = self._cert
        if cert is not None:
            cert = {to(v, v): {to(u, u) for u in m} for v, m in cert.items()}
        return GridRep(
            self.scale,
            {to(v, v): b for v, b in self.boxes.items()},
            {to(v, v): p for v, p in self.points.items()},
            dict(sorted((to(v, v), r) for v, r in self.radii.items())),  # the order witnesses are written in
            cert,
        )

    def witnessed(self, order: list[int], swept: Mapping[int, IntPoint]) -> "GridRep":
        """The grid with a witness for each vertex of order, in that order.

        A vertex in swept gets the facet sweep's point, which lies on the grid of
        2 * scale; every other one keeps its stored witness.  With any swept
        point the boxes and the kept points are re-based on 2 * scale, and the
        swept points' radii are found there.  A radius pair is a value, not a
        grid coordinate, so a kept one carries over unchanged.
        """
        scale, boxes, points, radii = self.scale, self.boxes, self.points, self.radii
        if swept:
            scale *= 2
            boxes = {v: tuple((2 * lo, 2 * hi) for lo, hi in b) for v, b in boxes.items()}
            points = {v: tuple(2 * x for x in p) for v, p in points.items()} | swept
            found = {v: _radius(gaps, scale) for v, gaps in _Tables(boxes).near(swept, scale).items()}
            if None in found.values():
                raise AssertionError("uncovered facet point lies in another box")
            radii = radii | found
        return GridRep(scale, boxes, {v: points[v] for v in order}, {v: radii[v] for v in order})

    def _fraction(self):
        """x -> x / scale as a Fraction, each distinct x divided once: lifts repeat coordinates."""
        scale, memo = self.scale, {}

        def q(x) -> Fraction:
            f = memo.get(x)
            if f is None:
                f = memo[x] = Fraction(x, scale)
            return f

        return q

    def witness(self, v: int, q=None) -> Witness:
        """v's witness as Fractions; q divides by the scale (a fresh _fraction by default)."""
        q = q or self._fraction()
        return Witness(tuple(map(q, self.points[v])), Fraction(*self.radii[v]))

    def to_representation(self) -> Representation:
        q = self._fraction()
        boxes = {v: Box(tuple((q(lo), q(hi)) for lo, hi in b)) for v, b in self.boxes.items()}
        return Representation(boxes, {v: self.witness(v, q) for v in self.radii})


def check_witness(v: int, rep: Representation) -> bool:
    """Fast exclusivity check: stored point on v's boundary, cube avoiding all others."""
    if v not in rep.boxes:
        raise VertexMismatch(f"vertex {v} has no box")
    w = rep.witnesses.get(v)
    if w is None:
        raise MissingWitness(f"vertex {v} has no stored witness")
    scale, grid, scaled = _grid(rep.boxes, {v: w.point})
    return v in _Tables(grid).passing(scaled, {v: (w.radius.numerator, w.radius.denominator)}, scale)


def _clip_fulldim(box: IntBox, region: IntBox) -> IntBox | None:
    """Clip to the region, dropping empty or measure-zero overlaps.

    Measure-zero slices cannot cover any full-dimensional arrangement cell, and
    cell centres never touch them (centres avoid all endpoint values), so
    discarding them here keeps the search exact.
    """
    out = []
    for (lo, hi), (rlo, rhi) in zip(box, region):
        a = lo if lo > rlo else rlo
        b = hi if hi < rhi else rhi
        if a >= b:
            return None
        out.append((a, b))
    return tuple(out)


def _search_uncovered(region: IntBox, boxes: list[IntBox]) -> IntPoint | None:
    """Twice the centre of an arrangement cell of region not covered by any box, else None."""
    for b in boxes:
        if all(blo <= rlo and rhi <= bhi for (blo, bhi), (rlo, rhi) in zip(b, region)):
            return None  # region fully inside one covering box
    if not boxes:
        return tuple(lo + hi for lo, hi in region)
    for b in boxes:
        for ax, (blo, bhi) in enumerate(b):
            rlo, rhi = region[ax]
            for val in (blo, bhi):
                if rlo < val < rhi:
                    for piece in ((rlo, val), (val, rhi)):
                        sub = region[:ax] + (piece,) + region[ax + 1:]
                        sub_boxes = [c for c in (_clip_fulldim(x, sub) for x in boxes) if c]
                        hit = _search_uncovered(sub, sub_boxes)
                        if hit is not None:
                            return hit
                    return None
    # every box spans the region in every axis, so one of them contains it
    raise AssertionError("facet search: no covering box and no split point")


def _facet_uncovered(v: int, axis: int, side: int, grid: Mapping[int, IntBox]) -> IntPoint | None:
    """An uncovered point on the given facet of v's box, doubled, or None if fully covered.

    The facet is the region of v's box on the other axes; a box that holds all
    of it settles the answer before the rest are clipped.  On the line the
    region has no axes: any other box through the endpoint holds it.
    """
    box = grid[v]
    c = box[axis][side]
    region = box[:axis] + box[axis + 1:]
    cands = []
    for u, b in grid.items():
        lo, hi = b[axis]
        if u != v and lo <= c <= hi:
            clipped = _clip_fulldim(b[:axis] + b[axis + 1:], region)
            if clipped == region:
                return None
            if clipped is not None:
                cands.append(clipped)
    hit = _search_uncovered(region, cands)
    if hit is None:
        return None
    return hit[:axis] + (2 * c,) + hit[axis:]


def _sweep_gate(rep: GridRep, max_dim: int, max_boxes: int) -> None:
    if rep.dim > max_dim:
        raise TooLarge(
            f"exact facet sweep gated at dimension {max_dim}; "
            "store witnesses to verify higher-dimensional representations"
        )
    if len(rep.boxes) > max_boxes:
        raise TooLarge(f"exact facet sweep gated at {max_boxes} boxes")


def _exposed_point(v: int, rep: GridRep, max_dim: int, max_boxes: int) -> IntPoint | None:
    """A boundary point of v's box outside every other box, or None if all are covered.

    The point lies on the grid of 2 * rep.scale.
    """
    if v not in rep.boxes:
        raise VertexMismatch(f"vertex {v} has no box")
    _sweep_gate(rep, max_dim, max_boxes)
    for axis in range(rep.dim):
        for side in (0, 1):
            p = _facet_uncovered(v, axis, side, rep.boxes)
            if p is not None:
                return p
    return None


def boundary_covered(
    v: int,
    rep: Representation,
    *,
    max_dim: int = DEFAULT_MAX_SWEEP_DIM,
    max_boxes: int = DEFAULT_MAX_SWEEP_BOXES,
) -> bool:
    """True iff every point of v's boundary lies in some other box (exact)."""
    return _exposed_point(v, GridRep.of(rep), max_dim, max_boxes) is None


def exposed_witness(
    v: int,
    rep: Representation,
    *,
    max_dim: int = DEFAULT_MAX_SWEEP_DIM,
    max_boxes: int = DEFAULT_MAX_SWEEP_BOXES,
) -> Witness | None:
    """Find an exclusive boundary point for v by facet sweep, or None if covered."""
    grid = GridRep.of(rep)
    p = _exposed_point(v, grid, max_dim, max_boxes)
    return None if p is None else grid.witnessed([v], {v: p}).witness(v)


@dataclass(frozen=True)
class C2Report:
    ok: bool
    rep: GridRep  # the checked grid with the witnesses found, in vertex order
    covered: tuple[int, ...]  # vertices whose whole boundary is covered by the others

    @cached_property
    def witnesses(self) -> dict[int, Witness]:
        """rep's witnesses as Fractions, by vertex, built on first read."""
        q = self.rep._fraction()
        return {v: self.rep.witness(v, q) for v in self.rep.radii}


def _c2_found(rep: GridRep, max_dim: int, max_boxes: int, tables: _Tables) -> C2Report:
    """C2 on rep's grid, with the witnesses and the covered vertices in vertex order.

    A stored witness that passes the exact re-check on tables, the _Tables of
    rep's boxes, is kept; every other vertex gets a facet sweep, and the
    witnesses live on rep.witnessed's grid.
    """
    kept = tables.passing(rep.points, rep.radii, rep.scale)
    found: list[int] = []
    swept: dict[int, IntPoint] = {}
    covered: list[int] = []
    for v in sorted(rep.boxes):
        if v not in kept:
            p = _exposed_point(v, rep, max_dim, max_boxes)
            if p is None:
                covered.append(v)
                continue
            swept[v] = p
        found.append(v)
    return C2Report(ok=not covered, rep=rep.witnessed(found, swept), covered=tuple(covered))


def verify_c2(
    g: Graph,
    rep: Representation,
    *,
    max_dim: int = DEFAULT_MAX_SWEEP_DIM,
    max_boxes: int = DEFAULT_MAX_SWEEP_BOXES,
) -> C2Report:
    """Every vertex must keep an exclusive boundary point.

    Stored witnesses are trusted only after an exact re-check; vertices without a
    valid stored witness get a facet sweep, and a found witness is returned so
    callers can persist it.
    """
    _check_cover(g, rep)
    grid = GridRep.of(rep)
    return _c2_found(grid, max_dim, max_boxes, _Tables(grid.boxes))


def verify_grid(
    g: Graph,
    rep: GridRep,
    *,
    max_dim: int = DEFAULT_MAX_SWEEP_DIM,
    max_boxes: int = DEFAULT_MAX_SWEEP_BOXES,
) -> tuple[C1Report, C2Report]:
    """verify_c1 and verify_c2 of the representation on rep's grid, decided on its ints."""
    _check_cover(g, rep)
    tables = _Tables(rep.boxes)
    bad = tables.c1(g.edges)
    return C1Report(ok=not bad, violations=tuple(bad)), _c2_found(rep, max_dim, max_boxes, tables)

