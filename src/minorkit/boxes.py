"""Exact axis-aligned boxes and the strong-representation verifier.

Every decision is exact: touching boxes, shared endpoints and zero-width gaps are
never left to floating point.  The verifier puts each call's boxes and points
on one integer grid: with L the lcm of all their denominators, p/q becomes the
int p * (L // q), which keeps order, equality and L-scaled gaps exact, so C1,
witness radii and witness checks compare ints; `certify_grid` proves a
builder's output (C1, witness points, radii) on such a grid, and `GridRep`
holds a witnessed representation in that form, so an edit pipeline's lifts
can stay on their base's grid.  Boxes are closed, so two boxes that share
only a boundary point do intersect; builders therefore keep strictly positive
gaps between non-adjacent boxes.

The exclusivity condition for a vertex v asks for a boundary point of v's box
together with a small cube around it that avoids every other box.  Deciding it
exactly reduces to facet coverage: v's boundary is fully covered by the other
(closed) boxes iff each of its 2d facets is, and a facet is covered iff every
full-dimensional cell of the endpoint arrangement restricted to it lies inside
some other box.  The search below subdivides facets recursively at box
endpoints (in Fraction arithmetic), discarding pieces that sit inside one
covering box, so an uncovered cell centre is found quickly when one exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping

from .exceptions import (
    DimensionMismatch,
    MissingWitness,
    ParseError,
    TooLarge,
    VertexMismatch,
)
from .graph import Graph, _json_int
from .ratio import fmt_ratio, parse_ratio

Point = tuple[Fraction, ...]
Interval = tuple[Fraction, Fraction]

QUARTER = Fraction(1, 4)

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

    def rename(self, mapping: Mapping[int, int]) -> "Representation":
        boxes = {mapping.get(v, v): b for v, b in self.boxes.items()}
        ws = {mapping.get(v, v): w for v, w in self.witnesses.items()}
        return Representation(boxes, ws)


# -- JSON -------------------------------------------------------------------------


def witnesses_to_json(witnesses: Mapping[int, Witness]) -> dict:
    return {
        str(v): {"point": [fmt_ratio(x) for x in w.point], "radius": fmt_ratio(w.radius)}
        for v, w in witnesses.items()
    }


def rep_to_json(rep: Representation) -> dict:
    out: dict = {
        "dim": rep.dim,
        "boxes": {
            str(v): [[fmt_ratio(lo), fmt_ratio(hi)] for lo, hi in b.intervals]
            for v, b in rep.boxes.items()
        },
    }
    if rep.witnesses:
        out["witnesses"] = witnesses_to_json(rep.witnesses)
    return out


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _label(key: str) -> int:
    """A vertex label spelled in canonical decimal: "7", not " 7", "07" or "+7"."""
    if key.isascii() and key.isdigit() and (key[0] != "0" or key == "0"):
        return int(key)
    raise ParseError(f"vertex key {key!r} is not a canonical decimal label")


def rep_from_json(obj) -> Representation:
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


# -- the integer grid ----------------------------------------------------------------

# Many distinct coprime denominators make L as long as all of them together, and
# every scaled coordinate that long.  Past this size the grid costs more time and
# memory than the rationals it replaces, so the checks run on those instead.
GRID_MAX_BITS = 4096

IntBox = tuple[tuple[int, int], ...]
IntPoint = tuple[int, ...]


def _grid(
    boxes: Mapping[int, Box], points: Mapping[int, Point] | None = None
) -> tuple[int, dict[int, IntBox], dict[int, IntPoint]]:
    """Scale the boxes and the given points onto one integer grid.

    L is the lcm of every denominator involved and p/q becomes p * (L // q), so
    comparisons and differences of the ints equal those of the rationals, times L.
    If L would pass GRID_MAX_BITS, the values stay rationals and L is 1; the
    callers' comparisons and arithmetic are exact on either.
    """
    points = points or {}
    dens = {x.denominator for b in boxes.values() for iv in b.intervals for x in iv}
    dens.update(x.denominator for p in points.values() for x in p)
    scale = 1
    for q in dens:
        scale = lcm(scale, q)
        if scale.bit_length() > GRID_MAX_BITS:
            return 1, {v: b.intervals for v, b in boxes.items()}, dict(points)
    mult = {q: scale // q for q in dens}
    scaled_boxes = {
        v: tuple(
            (lo.numerator * mult[lo.denominator], hi.numerator * mult[hi.denominator])
            for lo, hi in b.intervals
        )
        for v, b in boxes.items()
    }
    scaled = {v: tuple(x.numerator * mult[x.denominator] for x in p) for v, p in points.items()}
    return scale, scaled_boxes, scaled


def _meet(a: IntBox, b: IntBox) -> bool:
    for (a_lo, a_hi), (b_lo, b_hi) in zip(a, b):
        if a_lo > b_hi or b_lo > a_hi:
            return False
    return True


def _gap(box: IntBox, p: IntPoint) -> int:
    """L-infinity distance from p to the box on the grid (0 when inside)."""
    gap = 0
    for (lo, hi), x in zip(box, p):
        d = lo - x if x < lo else x - hi  # <= 0 inside the interval
        if d > gap:
            gap = d
    return gap


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
    bad = _c1_violations(g, grid)
    return C1Report(ok=not bad, violations=tuple(bad))


def _c1_violations(g: Graph, grid: dict[int, IntBox]) -> list[tuple[int, int, str]]:
    edges = set(g.edges)
    bad: list[tuple[int, int, str]] = []
    verts = sorted(grid)
    for a_pos, i in enumerate(verts):
        box = grid[i]
        for j in verts[a_pos + 1:]:
            meet = _meet(box, grid[j])
            edge = (i, j) in edges
            if meet and not edge:
                bad.append((i, j, "unexpected"))
            elif edge and not meet:
                bad.append((i, j, "missing"))
    return bad


# -- exclusive-boundary machinery ----------------------------------------------------


def witness_radius(point: Point, rep: Representation, exclude: int) -> Fraction | None:
    """Half the L-infinity distance to the nearest other box, capped at 1/4.

    None when the point already lies in some other box (no exclusive cube exists).
    """
    return witness_radii({exclude: point}, rep)[exclude]


def witness_radii(points: Mapping[int, Point], rep: Representation) -> dict[int, Fraction | None]:
    """witness_radius of each points[v] against every box but v's, on one shared grid."""
    return _radii(*_grid(rep.boxes, points))


def _radii(scale: int, grid: dict[int, IntBox], scaled: dict[int, IntPoint]) -> dict[int, Fraction | None]:
    """Each point's radius: its gap to the nearest other box over 2 * scale, at most 1/4.

    None when the point lies in another box.  Any gap of scale or more gives 1/4,
    so the search starts from that bound and leaves a box as soon as one axis
    puts it no nearer than the nearest so far.
    """
    radii: dict[int, Fraction | None] = {}
    for v, p in scaled.items():
        nearest = scale
        for u, b in grid.items():
            if u == v:
                continue
            gap = 0
            for (lo, hi), x in zip(b, p):
                d = lo - x if x < lo else x - hi  # <= 0 inside the interval
                if d > gap:
                    gap = d
                    if gap >= nearest:
                        break
            if gap < nearest:
                nearest = gap
                if gap == 0:
                    break
        if nearest == 0:
            radii[v] = None
        elif 2 * nearest >= scale:  # nearest / (2 * scale) >= 1/4
            radii[v] = QUARTER
        else:
            radii[v] = Fraction(nearest, 2 * scale)
    return radii


def certify_grid(
    g: Graph, scale: int, grid: Mapping[int, IntBox], scaled: Mapping[int, IntPoint], what: str
) -> dict[int, Fraction]:
    """Prove a builder's grid-form boxes and witness points; return the radii by vertex.

    Coordinates are read as x / scale.  Every box must be full-dimensional, the
    boxes must meet exactly on g's edges, and each scaled[v] must lie on grid[v]'s
    boundary and outside every other box; a failure is a bug in the builder
    `what` (AssertionError).
    """
    if set(grid) != set(g.vertices()) or set(scaled) != set(grid):
        raise AssertionError(f"{what}: boxes and witness points must cover 1..{g.n}")
    for v, box in grid.items():
        if any(lo >= hi for lo, hi in box):
            raise AssertionError(f"{what}: box for vertex {v} is degenerate")
    bad = _c1_violations(g, grid)
    if bad:
        raise AssertionError(f"{what}: intersection pattern fails at {bad[:3]}")
    radii = _radii(scale, grid, scaled)
    for v, p in scaled.items():
        if not _on_boundary(grid[v], p):
            raise AssertionError(f"{what}: witness point for {v} is not on its boundary")
        if radii[v] is None:
            raise AssertionError(f"{what}: witness point for {v} lies in another box")
    return {v: radii[v] for v in sorted(radii)}


def certify(g: Graph, boxes: Mapping[int, Box], points: Mapping[int, Point], what: str) -> Representation:
    """A builder's boxes with a witness at each points[v], proved by certify_grid.

    The boxes and points go on one integer grid, and the Representation is
    built once, from the given rationals.
    """
    radii = certify_grid(g, *_grid(boxes, points), what)
    return Representation(boxes, {v: Witness(points[v], r) for v, r in radii.items()})


@dataclass(frozen=True)
class GridRep:
    """A witnessed representation on the grid of `scale`: coordinate x stands for x / scale.

    Lifts add integer levels and reuse coordinates, so a whole edit pipeline
    keeps the grid of its base and converts to Fractions once, at the end.
    Past GRID_MAX_BITS the scale is 1 and the coordinates stay Fractions.
    """

    scale: int
    boxes: dict[int, IntBox]
    points: dict[int, IntPoint]
    radii: dict[int, Fraction]

    @classmethod
    def of(cls, rep: Representation) -> "GridRep":
        """The grid form of a representation that has a witness for every vertex."""
        scale, grid, scaled = _grid(rep.boxes, {v: w.point for v, w in rep.witnesses.items()})
        return cls(scale, grid, scaled, {v: w.radius for v, w in rep.witnesses.items()})

    @property
    def dim(self) -> int:
        return len(next(iter(self.boxes.values())))

    def rename(self, mapping: Mapping[int, int]) -> "GridRep":
        return GridRep(
            self.scale,
            {mapping.get(v, v): b for v, b in self.boxes.items()},
            {mapping.get(v, v): p for v, p in self.points.items()},
            {mapping.get(v, v): r for v, r in self.radii.items()},
        )

    def to_representation(self) -> Representation:
        scale = self.scale
        frac: dict = {}  # lifts repeat coordinates, so each distinct one is divided once

        def q(x) -> Fraction:
            f = frac.get(x)
            if f is None:
                f = frac[x] = Fraction(x, scale)
            return f

        boxes = {v: Box(tuple((q(lo), q(hi)) for lo, hi in b)) for v, b in self.boxes.items()}
        ws = {v: Witness(tuple(map(q, self.points[v])), r) for v, r in self.radii.items()}
        return Representation(boxes, ws)


def check_witness(v: int, rep: Representation) -> bool:
    """Fast exclusivity check: stored point on v's boundary, cube avoiding all others."""
    if v not in rep.boxes:
        raise VertexMismatch(f"vertex {v} has no box")
    w = rep.witnesses.get(v)
    if w is None:
        raise MissingWitness(f"vertex {v} has no stored witness")
    scale, grid, scaled = _grid(rep.boxes, {v: w.point})
    return _witness_ok(v, w.radius, scaled[v], scale, grid)


def _witness_ok(v: int, radius: Fraction, p: IntPoint, scale: int, grid: dict[int, IntBox]) -> bool:
    """p on v's boundary and every other box farther than radius/2 from it.

    On the grid a distance d stands for d/scale, so d/scale > rnum/(2*rden)
    becomes 2*rden*d > rnum*scale.
    """
    if radius <= 0 or not _on_boundary(grid[v], p):
        return False
    twice_den = 2 * radius.denominator
    need = radius.numerator * scale
    return all(twice_den * _gap(b, p) > need for u, b in grid.items() if u != v)


IntervalTuple = tuple[Interval, ...]


def _clip_fulldim(box: IntervalTuple, region: IntervalTuple) -> IntervalTuple | None:
    """Clip to the region, dropping empty or measure-zero overlaps.

    Measure-zero slices cannot cover any full-dimensional arrangement cell, and
    cell centres never touch them (centres avoid all endpoint values), so
    discarding them here keeps the search exact.
    """
    out = []
    for (lo, hi), (rlo, rhi) in zip(box, region):
        a, b = max(lo, rlo), min(hi, rhi)
        if a >= b:
            return None
        out.append((a, b))
    return tuple(out)


def _search_uncovered(region: IntervalTuple, boxes: list[IntervalTuple]) -> Point | None:
    """Centre of an arrangement cell of region not covered by any box, else None."""
    for b in boxes:
        if all(blo <= rlo and rhi <= bhi for (blo, bhi), (rlo, rhi) in zip(b, region)):
            return None  # region fully inside one covering box
    if not boxes:
        return tuple((lo + hi) / 2 for lo, hi in region)
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
    raise AssertionError("unreachable: no covering box and no split point")


def _facet_uncovered(v: int, axis: int, side: int, rep: Representation) -> Point | None:
    """An uncovered point on the given facet of v's box, or None if fully covered."""
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
        clipped = _clip_fulldim(reduced, region)
        if clipped:
            cands.append(clipped)
    hit = _search_uncovered(region, cands)
    if hit is None:
        return None
    return hit[:axis] + (c,) + hit[axis:]


def _sweep_gate(rep: Representation, max_dim: int, max_boxes: int) -> None:
    if rep.dim > max_dim:
        raise TooLarge(
            f"exact facet sweep gated at dimension {max_dim}; "
            "store witnesses to verify higher-dimensional representations"
        )
    if len(rep.boxes) > max_boxes:
        raise TooLarge(f"exact facet sweep gated at {max_boxes} boxes")


def _exposed_point(v: int, rep: Representation, max_dim: int, max_boxes: int) -> Point | None:
    """A boundary point of v's box outside every other box, or None if all are covered."""
    if v not in rep.boxes:
        raise VertexMismatch(f"vertex {v} has no box")
    _sweep_gate(rep, max_dim, max_boxes)
    for axis in range(rep.dim):
        for side in (0, 1):
            p = _facet_uncovered(v, axis, side, rep)
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
    return _exposed_point(v, rep, max_dim, max_boxes) is None


def exposed_witness(
    v: int,
    rep: Representation,
    *,
    max_dim: int = DEFAULT_MAX_SWEEP_DIM,
    max_boxes: int = DEFAULT_MAX_SWEEP_BOXES,
) -> Witness | None:
    """Find an exclusive boundary point for v by facet sweep, or None if covered."""
    p = _exposed_point(v, rep, max_dim, max_boxes)
    if p is None:
        return None
    r = witness_radius(p, rep, v)
    if r is None:
        raise AssertionError("uncovered facet point lies in another box")
    return Witness(p, r)


@dataclass(frozen=True)
class C2Report:
    ok: bool
    witnesses: dict[int, Witness]
    covered: tuple[int, ...]  # vertices whose whole boundary is covered by the others


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
    scale, grid, scaled = _grid(rep.boxes, {v: w.point for v, w in rep.witnesses.items()})
    found: dict[int, Witness] = {}
    covered: list[int] = []
    for v in rep.vertices():
        w = rep.witnesses.get(v)
        if w is not None and _witness_ok(v, w.radius, scaled[v], scale, grid):
            found[v] = w
            continue
        got = exposed_witness(v, rep, max_dim=max_dim, max_boxes=max_boxes)
        if got is None:
            covered.append(v)
        else:
            found[v] = got
    return C2Report(ok=not covered, witnesses=found, covered=tuple(covered))
