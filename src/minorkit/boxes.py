"""Exact axis-aligned boxes and the strong-representation verifier.

Every decision is exact: touching boxes, shared endpoints and zero-width gaps are
never left to floating point.  The verifier puts each call's boxes and points
on one integer grid: with L the lcm of all their denominators, p/q becomes the
int p * (L // q), which keeps order, equality and L-scaled gaps exact, so C1,
witness radii and witness checks compare ints.  `GridRep` holds a
representation in that form, with radii as (num, den) pairs.  A file goes
to the grid and back without Fractions: `grid_from_json` reads each value as
the (num, den) pair it spells and scales it onto one grid, `verify_grid`
decides C1 and re-checks the stored witnesses on those ints, and
`grid_to_json` writes each x as the text of x / L.  `GridRep.of` scales
Fractions by the same `_on_grid`.  A `C2Report` keeps the grid it decided on
as `rep`; its Fraction `witnesses` are built when first read, and
`witnesses_to_json` writes them from the ints.  `certify_grid` proves a
builder's output (C1, witness points, radii) on such a grid, so an edit
pipeline's lifts stay on their base's grid from the base to the written file.
It proves a step from its input's certificate (which boxes meet, and each
witness's gaps to the boxes within one grid unit): the boxes and points a
lift extends are checked once per class of appended intervals, on the
appended axes, and a box it changed is compared on the old axes only with
the classes that the appended axes leave within reach.  A certificate
never changes once its grid exists: a lift keeps each entry that its step
leaves as it was as the same object, and copies an entry before changing it.
The full check, with no certificate to start from, is a sweep and prune on
the grid: it sorts each axis's intervals, counts the pairs of boxes that come
within one grid unit on that axis, and tests only those pairs of the axis
with the fewest.  A pair at least a unit apart on one axis neither meets nor
puts either box within a unit of the other's witness, which lies in its own
box, so the sweep is exact; a path's base sweeps about n pairs, not n^2 / 2.
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

from bisect import bisect_left
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import attrgetter

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
    GRID_MAX_BITS bits).  Witnesses are optional, and radii stay pairs.  The
    checks, their order and their messages are those of Box, Representation
    and rep_from_json, which is this reader plus GridRep.to_representation.
    """
    spelled: dict[str, Pair] = {}  # lifts repeat values, so each distinct text is parsed once

    def pair(value) -> Pair:
        if value.__class__ is not str:
            return parse_pair(value)
        p = spelled.get(value)
        if p is None:
            p = spelled[value] = parse_pair(value)
        return p

    try:
        obj = _json_object(obj, "a representation")
        dim = _json_int(obj["dim"], "dim")
        boxes = {}
        for key, ivs in _json_object(obj["boxes"], "boxes").items():
            if not isinstance(ivs, list) or not all(isinstance(iv, list) for iv in ivs):
                raise ParseError(f"box {key} must be a JSON list of [lo, hi] lists")
            box = [(pair(lo), pair(hi)) for lo, hi in ivs]
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
            point = [pair(x) for x in w["point"]]
            radius = pair(w["radius"])
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
    bad = _c1_violations(g.edges, grid)
    return C1Report(ok=not bad, violations=tuple(bad))


def _c1_violations(edges: Iterable[Edge], grid: dict[int, IntBox]) -> list[tuple[int, int, str]]:
    edges = set(edges)
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
    radii = _radii(*_grid(rep.boxes, points))
    return {v: r if r is None else Fraction(*r) for v, r in radii.items()}


def _radii(scale: int, grid: dict[int, IntBox], scaled: dict[int, IntPoint]) -> dict[int, Pair | None]:
    """Each point's radius: its gap to the nearest other box over 2 * scale, at most 1/4.

    None when the point lies in another box.  Any gap of scale or more gives 1/4,
    so the search starts from that bound and leaves a box as soon as one axis
    puts it no nearer than the nearest so far.
    """
    radii: dict[int, Pair | None] = {}
    for v, p in scaled.items():
        nearest = scale
        for u, b in grid.items():
            if u == v:
                continue
            gap = _gap(b, p, nearest)
            if gap < nearest:
                nearest = gap
                if gap == 0:
                    break
        radii[v] = _radius(nearest, scale)
    return radii


def _radius(nearest: int, scale: int) -> Pair | None:
    """A witness radius: half the gap nearest / scale to the nearest other box, at most 1/4.

    None when nearest is 0 (the witness lies in another box).
    """
    if nearest == 0:
        return None
    if 2 * nearest >= scale:  # nearest / (2 * scale) >= 1/4
        return (1, 4)
    return (nearest, 2 * scale)


def certify_grid(
    adj: dict,
    scale: int,
    grid: dict[int, IntBox],
    scaled: dict[int, IntPoint],
    what: str,
    prev: GridRep | None = None,
) -> GridRep:
    """Prove a builder's grid-form boxes and witness points; return them as a certified GridRep.

    adj maps each vertex to its neighbours and x stands for x / scale.  Every box
    must be full-dimensional, the boxes must meet exactly on adj's edges, and each
    scaled[v] must lie on grid[v]'s boundary and outside every other box; a failure
    is a bug in the builder `what` (AssertionError).  The radii come in vertex order.

    The result carries a certificate (_certificate): which boxes meet each box,
    and each witness's gap to every box nearer than one grid unit.  Given a
    certified prev on the same scale, a vertex whose box and point extend
    prev's is kept, and each class of kept vertices (one appended box and
    point part) is checked once on the appended axes; every other vertex is
    changed.  Without prev every vertex is changed: the full check, which
    tests only the pairs of boxes within one grid unit of each other on the
    axis that has the fewest (_swept_pairs).  A failure is named by a scan in
    vertex order, as a check of every pair names it: a witness point outside
    its own box may leave gaps unseen, but the scan names it before its
    radius is read, and every earlier radius is exact.

    A certificate is never changed once its GridRep exists: a kept vertex's
    entry stays prev's own set or dict where the step leaves it as it was, and
    is copied before its first change.

    So the result passes verify_grid as it stands.  With nearest the least L-infinity
    gap from v's point to another box, v's radius is nearest / (2 * scale), or 1/4 <= that
    when nearest >= scale / 2.  _witness_ok asks, for each other box, for an axis whose
    gap exceeds radius / 2; the axis of the L-infinity gap has at least nearest / scale.
    """
    if grid.keys() != adj.keys() or scaled.keys() != grid.keys():
        raise AssertionError(f"{what}: boxes and witness points must cover 1..{len(adj)}")
    classes: dict[tuple[IntBox, IntPoint], list] = {}  # appended (box, point) -> kept vertices
    changed = list(grid)
    if prev is not None and prev.scale == scale and prev._cert is not None:
        d0, old_boxes, old_points = prev.dim, prev.boxes, prev.points
        changed = []
        for v, b in grid.items():
            p = scaled[v]
            if b[:d0] == old_boxes.get(v) and p[:d0] == old_points.get(v):
                classes.setdefault((b[d0:], p[d0:]), []).append(v)
            else:
                changed.append(v)
    # prev proved a kept box's first d0 axes, and its point on that box's boundary
    checked = [box for box, _ in classes] + [grid[v] for v in changed]
    if any(lo >= hi for box in checked for lo, hi in box):
        for v, box in grid.items():
            if any(lo >= hi for lo, hi in box):
                raise AssertionError(f"{what}: box for vertex {v} is degenerate")
    meets, near = _certificate(scale, grid, scaled, prev, classes, changed)
    for v, m in meets.items():
        nbrs = adj[v]
        if len(m) != len(nbrs) or not m.issuperset(nbrs):
            bad = _c1_violations(((i, j) for i, ns in adj.items() for j in ns if i < j), grid)
            raise AssertionError(f"{what}: intersection pattern fails at {bad[:3]}")
    radii = {v: _radius(min(near[v].values()), scale) if near[v] else (1, 4) for v in sorted(near)}
    inside = all(len(b) == len(p) and all(lo <= x <= hi for (lo, hi), x in zip(b, p)) for b, p in classes)
    if not inside or None in radii.values() or not all(_on_boundary(grid[v], scaled[v]) for v in changed):
        for v, p in scaled.items():
            if not _on_boundary(grid[v], p):
                raise AssertionError(f"{what}: witness point for {v} is not on its boundary")
            if radii[v] is None:
                raise AssertionError(f"{what}: witness point for {v} lies in another box")
    return GridRep(scale, grid, scaled, radii, (meets, near))


def _gap(box: IntBox, p: IntPoint, cap):
    """The L-infinity gap from p to box (0 inside it), or any value >= cap once it reaches cap."""
    gap = 0
    for (lo, hi), x in zip(box, p):
        d = lo - x if x < lo else x - hi  # <= 0 inside the interval
        if d > gap:
            if d >= cap:
                return d
            gap = d
    return gap


def _swept_pairs(scale: int, grid: Mapping[int, IntBox]):
    """Each pair of boxes whose intervals come within scale of each other on the best axis.

    An axis's intervals are sorted by lo once; interval i comes within scale of
    each later one whose lo is below hi_i + scale, so a bisect over the sorted
    los counts the axis's near pairs.  The axis with the fewest is swept.  Any
    other pair is at least scale apart on it, so its boxes do not meet, and no
    point of either box comes within scale of the other.
    """
    verts = list(grid)
    n, best = len(verts), None
    for axis in range(len(grid[verts[0]])):
        col = [grid[v][axis] for v in verts]
        order = sorted(range(n), key=col.__getitem__)
        los = [col[i][0] for i in order]
        ends = [bisect_left(los, col[i][1] + scale) for i in order]
        count = sum(ends) - n * (n + 1) // 2  # ends[i] - (i + 1) later boxes each
        if best is None or count < best[0]:
            best = (count, order, ends)
    _, order, ends = best
    for i, end in enumerate(ends):
        v = verts[order[i]]
        for j in range(i + 1, end):
            yield v, verts[order[j]]


def _certificate(scale, grid, scaled, prev, classes: dict, changed: list) -> tuple[dict, dict]:
    """certify_grid's certificate (meets, near) of the boxes grid and the points scaled.

    meets[v] is the set of vertices whose boxes meet v's box, and near[v] maps
    each vertex whose box is less than scale from scaled[v] to that gap.
    Boxes meet iff they meet on every axis, and a gap is the larger of its
    parts on prev's d0 axes and on the appended ones.  A kept pair takes
    prev's certificate and its classes' answer, one per pair of classes; a kept
    vertex whose answer changes nothing keeps prev's set and dict themselves,
    and gets a copy before the first change.  A changed box and point meet each
    class once on the appended axes, and its members on the first d0 axes only
    where that part leaves them in reach.  Changed pairs are checked on all
    axes; in the full check (no class) those are the pairs _swept_pairs
    leaves, which certify_grid shows to be enough.
    """
    meets: dict[int, set] = {}
    near: dict[int, dict] = {}
    if classes:
        meets0, near0 = prev._cert
        d0, old_boxes, old_points = prev.dim, prev.boxes, prev.points
        kept = set().union(*classes.values())
        for (suffix, point), vs in classes.items():
            meeting = [us for (other, _), us in classes.items() if _meet(suffix, other)]
            meet_ok = kept if len(meeting) == len(classes) else set().union(*meeting)
            same = None  # the vertices whose gaps the new axes leave as they are
            grown: dict = {}  # the new axes set these gaps, if larger
            for v in vs:
                m = meets0[v]
                meets[v] = m if m <= meet_ok else m & meet_ok
                old = new = near[v] = near0[v]
                if not old:
                    continue
                if same is None:
                    same = set()
                    for (box, _), us in classes.items():
                        gap = _gap(box, point, scale)
                        if gap == 0:
                            same.update(us)
                        elif gap < scale:
                            grown.update(dict.fromkeys(us, gap))
                for u in old.keys() - same:  # also every vertex that is changed or gone
                    gap = grown.get(u)
                    if gap is None or gap > old[u]:
                        if new is old:
                            new = near[v] = dict(old)
                        if gap is None:
                            del new[u]
                        else:
                            new[u] = gap
    for v in changed:
        meets[v], near[v] = set(), {}
    for v, u in combinations(changed, 2) if classes else _swept_pairs(scale, grid):
        box, b = grid[v], grid[u]
        if _meet(box, b):
            meets[v].add(u)
            meets[u].add(v)
        gap = _gap(b, scaled[v], scale)
        if gap < scale:
            near[v][u] = gap
        gap = _gap(box, scaled[u], scale)
        if gap < scale:
            near[u][v] = gap
    if not classes:
        return meets, near

    def own(cert, cert0, u):  # u's entry of cert, copied off prev's before its first change
        entry = cert[u]
        if entry is cert0[u]:
            entry = cert[u] = entry.copy()
        return entry

    for v in changed:
        box, p, mv, nv = grid[v], scaled[v], meets[v], near[v]
        head, tail, p_head, p_tail = box[:d0], box[d0:], p[:d0], p[d0:]
        for (suffix, point), us in classes.items():
            if _meet(tail, suffix):
                for u in us:
                    if _meet(head, old_boxes[u]):
                        mv.add(u)
                        own(meets, meets0, u).add(v)
            gap = _gap(suffix, p_tail, scale)  # the class's boxes to v's point
            if gap < scale:
                for u in us:
                    g0 = _gap(old_boxes[u], p_head, scale)
                    if g0 < scale:
                        nv[u] = max(gap, g0)
            gap = _gap(tail, point, scale)  # v's box to the class's points
            if gap < scale:
                for u in us:
                    g0 = _gap(head, old_points[u], scale)
                    if g0 < scale:
                        own(near, near0, u)[v] = max(gap, g0)
    return meets, near


@dataclass(frozen=True)
class GridRep:
    """A representation on the grid of `scale`: coordinate x stands for x / scale.

    points and radii hold the witnesses, of every vertex when a builder made
    the grid, of those a file gives when grid_from_json read it, and of every
    vertex that keeps one when the verifier made it (witnessed); a radius is
    a (num, den) pair.  Lifts add integer levels and reuse coordinates, so a
    whole edit pipeline keeps the grid of its base.  A grid that certify_grid
    made carries its certificate, which the next lift's certify_grid starts
    from and may share entries with, so nothing changes it in place; any
    other grid has none.
    """

    scale: int
    boxes: dict[int, IntBox]
    points: dict[int, IntPoint]
    radii: dict[int, Pair]
    # (meets, near) when certify_grid made this grid (see _certificate); not part of the value
    _cert: tuple[dict, dict] | None = field(default=None, compare=False, repr=False)

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
            meets, near = cert
            cert = (
                {to(v, v): {to(u, u) for u in m} for v, m in meets.items()},
                {to(v, v): {to(u, u): gap for u, gap in d.items()} for v, d in near.items()},
            )
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
            found = _radii(scale, boxes, swept)
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
    return _witness_ok(v, (w.radius.numerator, w.radius.denominator), scaled[v], scale, grid)


def _witness_ok(v: int, radius: Pair, p: IntPoint, scale: int, grid: dict[int, IntBox]) -> bool:
    """p on v's boundary and every other box farther than radius/2 from it.

    On the grid a distance d stands for d/scale, so with radius rn/rd the test
    d/scale > rn/(2*rd) becomes 2*rd*d > rn*scale, which holds for an
    unreduced pair too.  A box is far enough once one axis puts it so.
    """
    rn, rd = radius
    if rn <= 0 or not _on_boundary(grid[v], p):
        return False
    twice_den, need = 2 * rd, rn * scale
    for u, b in grid.items():
        if u == v:
            continue
        for (lo, hi), x in zip(b, p):
            if twice_den * (lo - x if x < lo else x - hi) > need:
                break
        else:
            return False
    return True


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
    raise AssertionError("unreachable: no covering box and no split point")


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


def _c2_found(rep: GridRep, max_dim: int, max_boxes: int) -> C2Report:
    """C2 on rep's grid, with the witnesses and the covered vertices in vertex order.

    A stored witness that passes the exact re-check is kept; every other
    vertex gets a facet sweep, and the witnesses live on rep.witnessed's grid.
    """
    scale, grid = rep.scale, rep.boxes
    found: list[int] = []
    swept: dict[int, IntPoint] = {}
    covered: list[int] = []
    for v in sorted(grid):
        p = rep.points.get(v)
        if p is None or not _witness_ok(v, rep.radii[v], p, scale, grid):
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
    return _c2_found(GridRep.of(rep), max_dim, max_boxes)


def verify_grid(
    g: Graph,
    rep: GridRep,
    *,
    max_dim: int = DEFAULT_MAX_SWEEP_DIM,
    max_boxes: int = DEFAULT_MAX_SWEEP_BOXES,
) -> tuple[C1Report, C2Report]:
    """verify_c1 and verify_c2 of the representation on rep's grid, decided on its ints."""
    _check_cover(g, rep)
    bad = _c1_violations(g.edges, rep.boxes)
    return C1Report(ok=not bad, violations=tuple(bad)), _c2_found(rep, max_dim, max_boxes)

