import random
from decimal import Decimal
from fractions import Fraction as F
from math import lcm
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorkit import (
    Box,
    Graph,
    Representation,
    Witness,
    boundary_covered,
    check_witness,
    exposed_witness,
    rep_from_json,
    rep_to_json,
    tree_pipeline,
    verify_c1,
    verify_c2,
    witness_radii,
    witness_radius,
)
from minorkit import boxes, build
from minorkit.boxes import (
    GridRep,
    certify_grid,
    certify_lift,
    grid_from_json,
    grid_to_json,
    verify_grid,
    witnesses_to_json,
)
from minorkit.exceptions import (
    DimensionMismatch,
    MissingWitness,
    ParseError,
    TooLarge,
    VertexMismatch,
)

from helpers import (
    MALFORMED_REP_EDITS,
    attached_certificate,
    boxes_json_fraction,
    certified_grid,
    certify,
    coprime_boxes,
    cross,
    exposed_witness_fraction,
    grid_to_json_per_value,
    joined,
    permute,
    random_connected,
    random_rep,
    rep_from_json_fraction,
    sampled_uncovered_point,
    to_representation_per_value,
    translate,
    verify_c1_fraction,
    verify_c2_fraction,
)


QUARTER = F(1, 4)  # the largest witness radius


def interval_triple():
    """Three 1-D intervals realising the path's intersection pattern."""
    return Representation({1: Box.make((0, 2)), 2: Box.make((1, 4)), 3: Box.make((2, 5))})


def fig_squares():
    """Two disjoint squares bridged by a third box: the planar path layout."""
    return Representation({
        1: Box.make((0, 2), (0, 2)),
        2: Box.make((1, 5), (1, 3)),
        3: Box.make((4, 6), (0, 2)),
    })


class TestIntersects:
    def test_overlapping_intervals(self):
        assert Box.make((0, 2)).intersects(Box.make((1, 4)))

    def test_touching_counts(self):
        # closed boxes: sharing one point is an intersection
        assert Box.make((0, 2)).intersects(Box.make((2, 5)))

    def test_disjoint_in_one_axis(self):
        assert not Box.make((0, 1), (0, 1)).intersects(Box.make((2, 3), (0, 1)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Box.make((0, 1)).intersects(Box.make((0, 1), (0, 1)))


class TestVerifyC1:
    def test_touching_non_edge_is_flagged(self):
        g = Graph(3, [(1, 2), (2, 3)])
        report = verify_c1(g, interval_triple())
        assert not report.ok
        assert report.violations == ((1, 3, "unexpected"),)

    def test_strict_gap_passes(self):
        g = Graph(3, [(1, 2), (2, 3)])
        rep = Representation({
            1: Box.make((0, 2)), 2: Box.make((1, 4)), 3: Box.make(("9/4", 5)),
        })
        assert verify_c1(g, rep).ok

    def test_square_layout_passes(self):
        g = Graph(3, [(1, 2), (2, 3)])
        assert verify_c1(g, fig_squares()).ok

    def test_single_vertex(self):
        assert verify_c1(Graph(1), Representation({1: Box.make((0, 1))})).ok

    def test_vertex_mismatch(self):
        with pytest.raises(VertexMismatch):
            verify_c1(Graph(2, [(1, 2)]), interval_triple())


class TestBoundaryCovered:
    def test_lone_box_exposed(self):
        assert not boundary_covered(1, Representation({1: Box.make((0, 2), (0, 2))}))

    def test_superset_buries(self):
        rep = Representation({1: Box.make((0, 2), (0, 2)), 2: Box.make((-1, 3), (-1, 3))})
        assert boundary_covered(1, rep)

    def test_middle_interval_buried(self):
        # both endpoints of [1,4] land inside the outer intervals
        rep = interval_triple()
        assert boundary_covered(2, rep)
        assert not boundary_covered(1, rep)
        assert not boundary_covered(3, rep)

    def test_dimension_gate(self):
        boxes = {v: Box(tuple((F(0), F(v)) for _ in range(5))) for v in (1, 2)}
        with pytest.raises(TooLarge):
            boundary_covered(1, Representation(boxes))


class TestVerifyC2:
    def test_square_layout_passes_with_witnesses(self):
        g = Graph(3, [(1, 2), (2, 3)])
        report = verify_c2(g, fig_squares())
        assert report.ok and set(report.witnesses) == {1, 2, 3}

    def test_interval_triple_fails_on_middle(self):
        g = Graph(3, [(1, 2), (2, 3)])
        report = verify_c2(g, interval_triple())
        assert not report.ok and report.covered == (2,)

    def test_returned_witnesses_check_out(self):
        g = Graph(3, [(1, 2), (2, 3)])
        rep = fig_squares()
        report = verify_c2(g, rep)
        enriched = Representation(rep.boxes, report.witnesses)
        for v in (1, 2, 3):
            assert check_witness(v, enriched)

    def test_stored_witness_fast_path(self):
        g = Graph(3, [(1, 2), (2, 3)])
        rep = fig_squares()
        stored = verify_c2(g, rep).witnesses
        # the sweep gates are irrelevant once witnesses are stored
        with patch.object(boxes, "MAX_SWEEP_DIM", 0), patch.object(boxes, "MAX_SWEEP_BOXES", 0):
            report = verify_c2(g, Representation(rep.boxes, stored))
        assert report.ok

    def test_bad_stored_witness_falls_back_to_sweep(self):
        g = Graph(3, [(1, 2), (2, 3)])
        rep = fig_squares()
        bogus = {1: Witness((F(1), F(1)), F(1, 4))}  # interior point, not a witness
        report = verify_c2(g, Representation(rep.boxes, bogus))
        assert report.ok and check_witness(1, Representation(rep.boxes, report.witnesses))


class TestCheckWitness:
    def test_corner_of_lone_box(self):
        rep = Representation(
            {1: Box.make((0, 2), (0, 2))}, {1: Witness((F(0), F(0)), F(1))}
        )
        assert check_witness(1, rep)

    def test_interior_point_rejected(self):
        rep = Representation(
            {1: Box.make((0, 2), (0, 2))}, {1: Witness((F(1), F(1)), F(1))}
        )
        assert not check_witness(1, rep)

    def test_point_inside_neighbour_rejected(self):
        rep = Representation(
            {1: Box.make((0, 2), (0, 2)), 2: Box.make((1, 3), (1, 3))},
            {1: Witness((F(2), F(2)), F(1, 4))},
        )
        assert not check_witness(1, rep)

    def test_missing_witness(self):
        with pytest.raises(MissingWitness):
            check_witness(1, Representation({1: Box.make((0, 1))}))


class TestSamplingAgreement:
    def test_exact_checker_never_contradicts_sampler(self):
        rng = random.Random(99)
        for _ in range(120):
            dim = rng.randrange(1, 4)
            rep = random_rep(rng, dim, rng.randrange(2, 8))
            for v in rep.vertices():
                covered = boundary_covered(v, rep)
                sampled = sampled_uncovered_point(rep, v)
                if sampled is not None:
                    assert not covered
                if not covered:
                    w = exposed_witness(v, rep)
                    assert w is not None
                    # the sweep's point is genuinely outside every other box
                    assert all(
                        not b.contains(w.point) for u, b in rep.boxes.items() if u != v
                    )
                    assert rep.boxes[v].on_boundary(w.point)


# -- integer grid vs the Fraction reference ---------------------------------------------

# endpoints mix coprime denominators up to 12 and signs; witness coordinates and
# radii also use denominators up to 29 that no endpoint carries
endpoint = st.fractions(min_value=-5, max_value=5, max_denominator=12)
offgrid = st.fractions(min_value=-6, max_value=6, max_denominator=29)


@st.composite
def witnessed_reps(draw):
    """A small graph, boxes that often share endpoints, and one candidate witness per box."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    pool = draw(st.lists(endpoint, min_size=2, max_size=5, unique=True))
    value = st.one_of(st.sampled_from(pool), endpoint)
    boxes = {}
    for v in range(1, n + 1):
        ivs = []
        for _ in range(dim):
            a, b = draw(st.lists(value, min_size=2, max_size=2, unique=True))
            ivs.append((min(a, b), max(a, b)))
        boxes[v] = Box(tuple(ivs))
    ends = sorted({x for b in boxes.values() for iv in b.intervals for x in iv})
    witnesses = {}
    for v, b in boxes.items():
        point = tuple(
            draw(st.one_of(st.sampled_from(iv), st.sampled_from(ends), offgrid)) for iv in b.intervals
        )
        # twice a box's distance puts that box exactly on the cube's closed boundary
        tight = st.sampled_from([2 * other.linf_distance(point) for other in boxes.values()])
        radius = draw(st.one_of(st.just(QUARTER), st.fractions(-1, 1, max_denominator=29), tight))
        witnesses[v] = Witness(point, radius)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = [e for e in pairs if draw(st.booleans())]
    return Graph(n, edges), Representation(boxes, witnesses)


def reference_c1(g, rep):
    verts = rep.vertices()
    bad = []
    for pos, i in enumerate(verts):
        for j in verts[pos + 1:]:
            meet, edge = rep.boxes[i].intersects(rep.boxes[j]), g.has_edge(i, j)
            if meet != edge:
                bad.append((i, j, "unexpected" if meet else "missing"))
    return tuple(bad)


def reference_radius(point, rep, exclude):
    dists = [b.linf_distance(point) for u, b in rep.boxes.items() if u != exclude]
    if any(d == 0 for d in dists):
        return None
    return min([d / 2 for d in dists] + [QUARTER])


def reference_witness_ok(v, rep):
    w = rep.witnesses[v]
    return (
        w.radius > 0
        and rep.boxes[v].on_boundary(w.point)
        and all(b.linf_distance(w.point) > w.radius / 2 for u, b in rep.boxes.items() if u != v)
    )


class TestIntegerGrid:
    @given(witnessed_reps())
    @settings(max_examples=200, deadline=None)
    def test_grid_matches_fraction_reference(self, case):
        g, rep = case
        points = {v: w.point for v, w in rep.witnesses.items()}
        expected = {v: reference_radius(p, rep, v) for v, p in points.items()}
        assert verify_c1(g, rep).violations == reference_c1(g, rep)
        assert witness_radii(points, rep) == expected
        for v, p in points.items():
            assert witness_radius(p, rep, v) == expected[v]
            assert check_witness(v, rep) == reference_witness_ok(v, rep)

    @given(witnessed_reps())
    @settings(max_examples=200, deadline=None)
    def test_both_ways_onto_the_grid_agree(self, case):
        # GridRep.of scales Fractions and grid_from_json a file's pairs, both through _on_grid
        _, rep = case
        want, got = GridRep.of(rep), grid_from_json(rep_to_json(rep))
        assert got.scale == want.scale
        for part in ("boxes", "points", "radii"):
            assert list(getattr(got, part).items()) == list(getattr(want, part).items())

    def test_many_coprime_denominators(self):
        # 40 boxes in 3-D with 240 distinct 20-bit prime denominators: L passes GRID_MAX_BITS
        g, rep = coprime_boxes(40)
        dens = (x.denominator for b in rep.boxes.values() for iv in b.intervals for x in iv)
        assert lcm(*dens).bit_length() > boxes.GRID_MAX_BITS
        obj = boxes_json_fraction(rep)
        points = {v: tuple(hi for _, hi in b.intervals) for v, b in rep.boxes.items()}
        for call in (
            lambda: grid_from_json(obj),
            lambda: verify_c1(g, rep),
            lambda: witness_radii(points, rep),
            lambda: GridRep.of(rep),
        ):
            with pytest.raises(TooLarge, match=f"passes {boxes.GRID_MAX_BITS} bits"):
                call()

    def test_denominators_just_under_the_bound(self):
        # 34 boxes have 204 distinct 20-bit prime denominators; a 35th box's six would pass the bound
        g, rep = coprime_boxes(34)
        grid = GridRep.of(rep)
        assert boxes.GRID_MAX_BITS - 6 * 20 < grid.scale.bit_length() <= boxes.GRID_MAX_BITS
        assert all(type(x) is int for b in grid.boxes.values() for iv in b for x in iv)
        assert grid_from_json(boxes_json_fraction(rep)) == grid
        assert verify_c1(g, rep).violations == reference_c1(g, rep)
        points = {v: tuple(hi for _, hi in b.intervals) for v, b in rep.boxes.items()}
        assert witness_radii(points, rep) == {v: reference_radius(p, rep, v) for v, p in points.items()}

    @pytest.mark.parametrize("bits", [boxes.GRID_MAX_BITS, boxes.GRID_MAX_BITS + 1])
    def test_the_bound_counts_the_bits_of_the_lcm(self, bits):
        obj = {"dim": 1, "boxes": {"1": [["0", f"1/{2 ** (bits - 1)}"]]}}
        if bits > boxes.GRID_MAX_BITS:
            with pytest.raises(TooLarge):
                grid_from_json(obj)
        else:
            assert grid_from_json(obj).scale.bit_length() == bits

    def test_touching_endpoints_and_coprime_denominators(self):
        rep = Representation(
            {1: Box.make(("-1/3", "2/7")), 2: Box.make(("2/7", "5/11")), 3: Box.make(("1/2", "3/5"))},
            {3: Witness((F(1, 2),), F(1, 13))},
        )
        g = Graph(3, [(1, 2)])
        assert verify_c1(g, rep).ok
        # 1/2 - 5/11 = 1/22 to box 2, so the radius is 1/44
        assert witness_radius((F(1, 2),), rep, 3) == F(1, 44)
        assert check_witness(3, rep)  # 1/22 > (1/13)/2
        # a cube of side 1/11 would reach exactly to box 2, which is closed
        assert not check_witness(3, Representation(rep.boxes, {3: Witness((F(1, 2),), F(1, 11))}))


class TestKernel:
    """C1 and the witness re-check on the per-axis interval tables (boxes._Tables)."""

    @given(witnessed_reps())
    @settings(max_examples=200, deadline=None)
    def test_tables_match_the_references(self, case):
        g, rep = case
        grid = GridRep.of(rep)
        tables = boxes._Tables(grid.boxes)
        assert tables.c1(g.edges) == list(reference_c1(g, rep))
        passing = tables.passing(grid.points, grid.radii, grid.scale)
        assert passing == {v for v in rep.witnesses if reference_witness_ok(v, rep)}

    @pytest.mark.parametrize("side", [1, -1])
    def test_a_box_exactly_half_the_radius_away_fails(self, side):
        # on the grid of 6, box 2 is 1/3 (two units) from the witness at 1, and the radius
        # is 4/6, unreduced, so radius / 2 is the gap itself and the closed cube reaches box 2;
        # one unit further, at 1/2, the cube clears it
        def grid_of(gap):  # box 1 is [0, 1], and side -1 mirrors the line about 1/2
            at = lambda *xs: [str(x) for x in sorted(F(x) if side == 1 else 1 - F(x) for x in xs)]  # noqa: E731
            obj = {
                "dim": 1,
                "boxes": {"1": [at(0, 1)], "2": [at(1 + gap, 2 + gap)], "3": [at(F(11, 2), F(17, 3))]},
                "witnesses": {"1": {"point": at(1), "radius": "4/6"}},
            }
            return grid_from_json(obj)

        for gap, ok in ((F(1, 3), False), (F(1, 2), True)):
            grid = grid_of(gap)
            assert grid.scale == 6 and grid.radii[1] == (4, 6)
            assert (boxes._Tables(grid.boxes).passing(grid.points, grid.radii, grid.scale) == {1}) is ok
            assert check_witness(1, grid.to_representation()) is ok
            assert reference_witness_ok(1, grid.to_representation()) is ok
            _, c2 = verify_grid(Graph(3, []), grid)
            assert c2.ok and (c2.rep.radii[1] == (4, 6)) is ok  # a failed witness is swept afresh

    def test_boxes_that_share_only_an_endpoint_meet(self):
        rep = Representation({
            1: Box.make((0, 1), (0, 1)),
            2: Box.make((1, 2), (1, 2)),  # the corner (1, 1) of box 1
            3: Box.make(("3/2", 3), (0, "1/2")),
        })
        grid = GridRep.of(rep).boxes
        tables = boxes._Tables(grid)
        assert tables.c1([(1, 2)]) == []
        assert tables.c1([]) == [(1, 2, "unexpected")]
        assert tables.c1([(1, 2), (2, 3)]) == [(2, 3, "missing")]

    def test_several_faults_in_the_references_order(self):
        rep = Representation({
            1: Box.make((0, 2)),
            2: Box.make((1, 3)),
            3: Box.make(("5/2", 4)),
            4: Box.make((5, 6)),
            5: Box.make((0, 6)),
            6: Box.make((4, 5)),
        })
        g = Graph(6, [(1, 4), (2, 3), (3, 6), (4, 6), (5, 6)])
        want = reference_c1(g, rep)
        assert len(want) >= 6 and {kind for *_, kind in want} == {"unexpected", "missing"}
        assert boxes._Tables(GridRep.of(rep).boxes).c1(g.edges) == list(want)
        assert verify_c1(g, rep).violations == want
        assert verify_grid(g, GridRep.of(rep))[0].violations == want

    @pytest.mark.parametrize("shape", ["path", "star"])
    def test_a_1600_vertex_tree_verifies(self, shape):
        n = 1600
        g = Graph(n, [(1 if shape == "star" else v - 1, v) for v in range(2, n + 1)])
        grid = grid_from_json(grid_to_json(build._tree_grid(g)))
        c1, c2 = verify_grid(g, grid)
        assert c1.ok and c2.ok
        assert c2.rep == grid  # every stored witness passed, so nothing was swept


def spelled(x: F, how: int):
    """x as a JSON value: by `how`, "3p/3q", a decimal, an exponent, "-0", an int, or "p/q"."""
    n, d = x.numerator, x.denominator
    k = next((k for k in range(7) if 10**k % d == 0), None)
    if how == 1:
        return f"{3 * n}/{3 * d}"
    if how == 2 and k is not None:
        return format(Decimal(n * 10**k // d).scaleb(-k), "f")
    if how == 3 and k is not None:
        return f"{n * 10**k // d}e-{k}"
    if how == 4 and n == 0:
        return "-0"
    if how == 5 and d == 1:
        return n
    return str(x)


def malform(obj: dict, rnd: random.Random) -> None:
    """Break one part of a representation's JSON, or none."""
    boxes_, ws = obj["boxes"], obj.get("witnesses", {})
    key = rnd.choice(sorted(boxes_))
    box = boxes_[key]
    ax = rnd.randrange(len(box))
    wkey = rnd.choice(sorted(ws)) if ws else None
    kind = rnd.randrange(20)
    if kind == 0:
        box[ax] = box[ax][::-1]  # out of order, or unchanged if lo == hi
    elif kind == 1:
        box[ax] = [box[ax][0], box[ax][0]]  # degenerate
    elif kind == 2:
        box[ax] = [rnd.choice(["x", 1.5, True, "1/0", None, [], "01", "1e99999"]), box[ax][1]]
    elif kind == 3:
        box[ax] = box[ax] + [box[ax][1]]
    elif kind == 4:
        boxes_[key] = []
    elif kind == 5:
        obj["dim"] += 1
    elif kind == 6:
        del obj["dim"]
    elif kind == 7:
        boxes_["0" + key] = boxes_.pop(key)
    elif kind == 8:
        obj["boxes"] = {}
    elif kind == 9 and wkey:
        ws[wkey]["point"] = ws[wkey]["point"][:-1]
    elif kind == 10 and wkey:
        ws[str(len(boxes_) + 1)] = dict(ws[wkey])
    elif kind == 11 and wkey:
        del ws[wkey]["radius"]
    elif kind == 12 and wkey:
        ws[wkey]["radius"] = rnd.choice(["x", 0.5, False, "2/0"])


@st.composite
def rep_files(draw):
    """(graph, representation JSON) as a user might write it.

    The representation is a small one with candidate witnesses, or a lifted
    one (dim >= 3) whose witnesses are kept, dropped, zeroed, widened or moved
    off the boundary.  Every value is respelled, and now and then one part of
    the file is broken.
    """
    rnd = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        g, rep = draw(witnessed_reps())
    else:
        n = draw(st.integers(3, 7))
        g = random_connected(n, min(n - 1 + draw(st.integers(1, 3)), n * (n - 1) // 2), rnd)
        rep = tree_pipeline(g)[1].final
        ws = {}
        for v, w in rep.witnesses.items():
            how = rnd.randrange(7)
            if how == 1:
                w = Witness(w.point, F(0))
            elif how == 2:
                w = Witness(w.point, w.radius * 8)
            elif how == 3:
                w = Witness(w.point[:-1] + (w.point[-1] + F(1, 3),), w.radius)
            if how:
                ws[v] = w
        rep = Representation(rep.boxes, ws)
    obj = rep_to_json(rep)
    spell = lambda text: spelled(F(text), rnd.randrange(8))  # noqa: E731
    obj["boxes"] = {k: [[spell(lo), spell(hi)] for lo, hi in b] for k, b in obj["boxes"].items()}
    for w in obj.get("witnesses", {}).values():
        w["point"] = [spell(x) for x in w["point"]]
        w["radius"] = spell(w["radius"])
    if rnd.randrange(3) == 0:
        malform(obj, rnd)
    return g, obj


def outcome(call):
    """call()'s result, or the type and message of the error it raised."""
    try:
        return call()
    except (ParseError, TooLarge, VertexMismatch) as exc:
        return type(exc), str(exc)


def witnesses_json_fraction(witnesses) -> dict:
    """The witness JSON as written from Fractions."""
    return {str(v): {"point": [str(x) for x in w.point], "radius": str(w.radius)} for v, w in witnesses.items()}


class TestGridPath:
    """grid_from_json and verify_grid against the Fraction reader and verifier they replaced."""

    @given(rep_files())
    @settings(max_examples=300, deadline=None)
    def test_reader_and_verifier_match_the_fraction_path(self, case):
        g, obj = case
        want = outcome(lambda: rep_from_json_fraction(obj))
        got = outcome(lambda: rep_from_json(obj))
        if not isinstance(want, Representation):
            assert got == want and want[0] is ParseError
            assert outcome(lambda: grid_from_json(obj)) == want
            return
        # key order too: it decides the order of the written JSON
        assert list(got.boxes.items()) == list(want.boxes.items())
        assert list(got.witnesses.items()) == list(want.witnesses.items())

        ref = outcome(lambda: (verify_c1_fraction(g, want), verify_c2_fraction(g, want)))
        grid = grid_from_json(obj)
        for verify in (lambda: verify_grid(g, grid), lambda: (verify_c1(g, want), verify_c2(g, want))):
            reports = outcome(verify)
            if isinstance(ref[0], type):  # both raised
                assert reports == ref
                continue
            (c1, c2), (r1, r2) = reports, ref
            assert c1 == r1
            assert c2.ok == r2.ok and c2.covered == r2.covered
            assert list(c2.witnesses.items()) == list(r2.witnesses.items())
            assert witnesses_to_json(c2.rep) == witnesses_json_fraction(r2.witnesses)

    def test_written_file_matches_the_fraction_writer(self):
        g = random_connected(9, 12, random.Random(3))
        rep = tree_pipeline(g)[1].final
        c1, c2 = verify_grid(g, grid_from_json(rep_to_json(rep)))
        assert c1.ok and c2.ok
        obj = grid_to_json(c2.rep)
        assert obj == {**boxes_json_fraction(rep), "witnesses": witnesses_json_fraction(rep.witnesses)}


@st.composite
def grids(draw):
    """GridReps at a random scale whose coordinates repeat (a few levels, as lifts
    leave them), with witnesses for some, all or none of the vertices."""
    dim, n = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    levels = st.integers(-6, 6)
    boxes = {}
    for v in draw(st.lists(st.integers(0, 20), min_size=n, max_size=n, unique=True)):
        ends = draw(st.lists(st.lists(levels, min_size=2, max_size=2, unique=True), min_size=dim, max_size=dim))
        boxes[v] = tuple((min(e), max(e)) for e in ends)
    kept = draw(st.lists(st.sampled_from(sorted(boxes)), unique=True))
    points = {v: tuple(draw(st.lists(levels, min_size=dim, max_size=dim))) for v in kept}
    radii = {v: (draw(st.integers(1, 5)), draw(st.integers(1, 20))) for v in kept}
    return GridRep(draw(st.integers(1, 360)), boxes, points, radii)


@given(grids())
@settings(max_examples=200, deadline=None)
def test_grid_tables_match_the_per_value_writers(grid):
    assert grid_to_json(grid) == grid_to_json_per_value(grid)
    want = to_representation_per_value(grid)
    got = grid.to_representation()
    assert list(got.boxes.items()) == list(want.boxes.items())
    assert list(got.witnesses.items()) == list(want.witnesses.items())
    assert grid.witnesses() == want.witnesses
    if grid.radii:
        assert witnesses_to_json(grid) == grid_to_json_per_value(grid)["witnesses"]


def read_outcome(read, obj):
    """read(obj)'s GridRep, or the type and message of whatever it raised."""
    try:
        return read(obj)
    except Exception as exc:  # noqa: BLE001 -- any error, so the two readers compare whole
        return type(exc), str(exc)


def assert_flat_read_agrees(obj) -> GridRep | tuple:
    """grid_from_json(obj) does what the ordered reader does, and a flat read gives the same grid."""
    want = read_outcome(boxes._grid_ordered, obj)
    assert read_outcome(grid_from_json, obj) == want
    flat = boxes._grid_flat(obj)
    if flat is not None:
        assert flat == want
        for part in ("boxes", "points", "radii"):  # in the file's order, which the writer keeps
            assert list(getattr(flat, part).items()) == list(getattr(want, part).items())
    return want


def _coordinate(obj, rnd):
    """A random [lo, hi] interval list of obj's boxes."""
    box = obj["boxes"][rnd.choice(sorted(obj["boxes"]))]
    return box[rnd.randrange(len(box))]


def _relabel(obj, key):
    """Vertex 1 renamed key in the boxes and, if it has one, in the witnesses."""
    for part in ("boxes", "witnesses"):
        if "1" in obj.get(part, {}):
            obj[part][key] = obj[part].pop("1")


def _witness(obj, rnd):
    return obj["witnesses"][rnd.choice(sorted(obj["witnesses"]))]


READER_MUTATIONS = {
    "value-type": lambda obj, rnd: _coordinate(obj, rnd).__setitem__(
        rnd.randrange(2), rnd.choice([1.5, True, None, [], {}, 7, -3])),
    "point-type": lambda obj, rnd: _witness(obj, rnd)["point"].__setitem__(0, rnd.choice([0.5, False, None, 2])),
    "radius-type": lambda obj, rnd: _witness(obj, rnd).__setitem__("radius", rnd.choice([0.25, True, None, [], 1])),
    "interval-string": lambda obj, rnd: obj["boxes"][rnd.choice(sorted(obj["boxes"]))].__setitem__(0, "0/1"),
    "box-string": lambda obj, rnd: obj["boxes"].__setitem__(rnd.choice(sorted(obj["boxes"])), "[0, 1]"),
    "out-of-order": lambda obj, rnd: _coordinate(obj, rnd).reverse(),
    "degenerate": lambda obj, rnd: (lambda iv: iv.__setitem__(1, iv[0]))(_coordinate(obj, rnd)),
    "bad-value": lambda obj, rnd: _coordinate(obj, rnd).__setitem__(0, rnd.choice(["x", "1/0", "", "1e99999"])),
    "bad-label": lambda obj, rnd: _relabel(obj, rnd.choice([" 1", "+1", "\u0661", "1.0", "", "-1", "-0", "1_0", "0x1"])),
    "duplicate-label": lambda obj, rnd: (lambda part: obj[part].__setitem__("0" + rnd.choice(sorted(obj[part])), obj[part]["1"]))(
        rnd.choice(["boxes", "witnesses"])),
    "huge-label": lambda obj, rnd: obj["boxes"].__setitem__("1" * 5000, obj["boxes"]["1"]),
    "unknown-witness": lambda obj, rnd: obj["witnesses"].__setitem__(str(len(obj["boxes"]) + 1), dict(_witness(obj, rnd))),
    "point-length": lambda obj, rnd: _witness(obj, rnd)["point"].pop(),
    "no-radius": lambda obj, rnd: _witness(obj, rnd).pop("radius"),
    "box-length": lambda obj, rnd: obj["boxes"][rnd.choice(sorted(obj["boxes"]))].pop(),
    "dim": lambda obj, rnd: obj.__setitem__("dim", rnd.choice([obj["dim"] + 1, 0, -1, True, 2.0, None])),
    "no-boxes": lambda obj, rnd: obj.__setitem__("boxes", rnd.choice([{}, [], None])),
    "witnesses-type": lambda obj, rnd: obj.__setitem__("witnesses", rnd.choice([[], None, "x"])),
    "int-values": lambda obj, rnd: _coordinate(obj, rnd).__setitem__(0, -1),
    "past-the-grid-bound": lambda obj, rnd: (_coordinate if rnd.randrange(2) else lambda o, r: _witness(o, r)["point"])(
        obj, rnd).__setitem__(0, f"-1/{2 ** boxes.GRID_MAX_BITS}"),
    "no-witnesses": lambda obj, rnd: obj.pop("witnesses"),
    "reduced-den": lambda obj, rnd: _witness(obj, rnd).__setitem__("radius", "2/8"),
}


@st.composite
def reader_files(draw):
    """A lifted representation's JSON, with one mutation of READER_MUTATIONS or none."""
    rnd = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(3, 7))
    g = random_connected(n, min(n - 1 + draw(st.integers(0, 3)), n * (n - 1) // 2), rnd)
    obj = rep_to_json(tree_pipeline(g)[1].final)
    kind = draw(st.sampled_from([None, *READER_MUTATIONS]))
    if kind is not None:
        READER_MUTATIONS[kind](obj, rnd)
    return kind, obj


class TestFlatReader:
    """grid_from_json reads a well-formed file flat, and leaves every other file to the ordered reader."""

    @pytest.mark.parametrize("edit", list(MALFORMED_REP_EDITS.values()), ids=list(MALFORMED_REP_EDITS))
    def test_input_contract_files(self, edit):
        obj = rep_to_json(tree_pipeline(Graph(5, [(1, 2), (1, 3), (2, 4), (2, 5)]))[1].final)
        assert isinstance(assert_flat_read_agrees(obj), GridRep) and boxes._grid_flat(obj) is not None
        edit(obj)
        assert boxes._grid_flat(obj) is None
        assert assert_flat_read_agrees(obj)[0] is ParseError

    @given(reader_files())
    @settings(max_examples=300, deadline=None)
    def test_mutated_files(self, case):
        kind, obj = case
        want = assert_flat_read_agrees(obj)
        if kind is None:
            assert boxes._grid_flat(obj) is not None
        if kind == "past-the-grid-bound":
            assert want[0] is TooLarge

    def test_lifted_files_read_flat(self):
        rnd = random.Random(5)
        for n in (8, 20, 40):
            g = random_connected(n, n + 6, rnd)
            obj = rep_to_json(tree_pipeline(g)[1].final)
            grid = boxes._grid_flat(obj)
            assert grid is not None and grid == boxes._grid_ordered(obj)
            assert grid_to_json(grid) == obj


@st.composite
def sweep_cases(draw):
    """Boxes in dims 1-4 on endpoints with denominators up to 12, candidate witnesses
    for about half the vertices, now and then a vertex buried inside another
    box, and a sweep gate at dimension 3 or 4."""
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    pool = draw(st.lists(endpoint, min_size=2, max_size=6, unique=True))
    value = st.one_of(st.sampled_from(pool), endpoint)
    box_map = {}
    for v in range(1, n + 1):
        ivs = []
        for _ in range(dim):
            a, b = draw(st.lists(value, min_size=2, max_size=2, unique=True))
            ivs.append((min(a, b), max(a, b)))
        box_map[v] = Box(tuple(ivs))
    if n > 1 and draw(st.booleans()):
        host = box_map[draw(st.integers(1, n - 1))]
        t = draw(st.sampled_from([F(1, 5), F(1, 4), F(1, 3)]))
        box_map[n] = Box(tuple((lo + (hi - lo) * t, hi - (hi - lo) * t) for lo, hi in host.intervals))
    witnesses = {}
    for v, b in box_map.items():
        if draw(st.booleans()):
            point = tuple(draw(st.one_of(st.sampled_from(iv), offgrid)) for iv in b.intervals)
            radius = draw(st.one_of(st.just(QUARTER), st.fractions(0, 1, max_denominator=29)))
            witnesses[v] = Witness(point, radius)
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if draw(st.booleans())]
    return Graph(n, edges), Representation(box_map, witnesses), draw(st.sampled_from([3, 4]))


class TestGridSweep:
    """The facet sweep on the grid's ints against the Fraction sweep it replaced."""

    @given(sweep_cases())
    @settings(max_examples=300, deadline=None)
    def test_sweep_matches_the_fraction_sweep(self, case):
        g, rep, max_dim = case
        with patch.object(boxes, "MAX_SWEEP_DIM", max_dim):
            for v in rep.vertices():
                want = outcome(lambda: exposed_witness_fraction(v, rep, max_dim=max_dim))
                assert outcome(lambda: exposed_witness(v, rep)) == want
                raised = isinstance(want, tuple)
                assert outcome(lambda: boundary_covered(v, rep)) == (want if raised else want is None)
            ref = outcome(lambda: verify_c2_fraction(g, rep, max_dim=max_dim))
            got = outcome(lambda: verify_c2(g, rep))
        if isinstance(ref, tuple):
            assert got == ref
            return
        assert got.ok == ref.ok and got.covered == ref.covered
        assert "witnesses" not in vars(got)  # the Fraction witnesses are built when read, once
        assert got.witnesses is got.witnesses
        assert list(got.witnesses.items()) == list(ref.witnesses.items())
        assert witnesses_to_json(got.rep) == witnesses_json_fraction(ref.witnesses)
        # the sweep ran on the grid's ints
        witnessed = got.rep
        assert all(type(x) is int for p in witnessed.points.values() for x in p)
        assert all(type(x) is int for b in witnessed.boxes.values() for iv in b for x in iv)


def reference_certify(g, box_map, points):
    """The checks certify replaces: Representation + verify_c1 + on_boundary + witness_radii."""
    rep = Representation(box_map)
    if set(points) != set(box_map) or not verify_c1(g, rep).ok:
        return None
    radii = witness_radii(points, rep)
    if any(not box_map[v].on_boundary(p) or radii[v] is None for v, p in points.items()):
        return None
    return {v: Witness(p, radii[v]) for v, p in points.items()}


@st.composite
def certify_cases(draw):
    """witnessed_reps, half the time with the boxes' own pattern as g and points on boundaries."""
    g, rep = draw(witnessed_reps())
    points = {v: w.point for v, w in rep.witnesses.items()}
    if draw(st.booleans()):
        vs = rep.vertices()
        meets = [(i, j) for i in vs for j in vs if i < j and rep.boxes[i].intersects(rep.boxes[j])]
        g = Graph(g.n, meets)
        for v, b in rep.boxes.items():
            axis = draw(st.integers(0, b.dim - 1))
            points[v] = tuple(
                draw(st.sampled_from(iv if ax == axis else (iv[0], (iv[0] + iv[1]) / 2, iv[1])))
                for ax, iv in enumerate(b.intervals)
            )
    if draw(st.integers(0, 3)) == 0:
        del points[max(points)]
    return g, rep.boxes, points


class TestCertify:
    @given(certify_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_checks_it_replaces(self, case):
        g, box_map, points = case
        expected = reference_certify(g, box_map, points)
        if expected is None:
            with pytest.raises(AssertionError):
                certify(g, box_map, points, "case")
        else:
            got = certify(g, box_map, points, "case")
            assert got.boxes == box_map and got.witnesses == expected

    def square_points(self):
        return {1: (F(0), F(0)), 2: (F(3), F(3)), 3: (F(6), F(0))}

    def test_square_layout_certified(self):
        rep = certify(Graph(3, [(1, 2), (2, 3)]), fig_squares().boxes, self.square_points(), "squares")
        assert verify_c2(Graph(3, [(1, 2), (2, 3)]), rep).witnesses == rep.witnesses

    @pytest.mark.parametrize("edges, move, drop, reason", [
        ([(2, 3)], {}, None, "intersection pattern"),  # boxes 1 and 2 meet: unexpected
        ([(1, 2), (2, 3), (1, 3)], {}, None, "intersection pattern"),  # 1-3 missing
        ([(1, 2), (2, 3)], {1: (F(1, 2), F(1, 2))}, None, "not on its boundary"),
        ([(1, 2), (2, 3)], {1: (F(2), F(2))}, None, "lies in another box"),  # corner inside box 2
        ([(1, 2), (2, 3)], {}, 3, "must cover"),
    ])
    def test_each_failure_raises(self, edges, move, drop, reason):
        points = {**self.square_points(), **move}
        points.pop(drop, None)
        with pytest.raises(AssertionError, match=reason):
            certify(Graph(3, edges), fig_squares().boxes, points, "squares")

    def test_degenerate_box_raises(self):
        # box 2 flattened to the segment y = 2: every meet and witness still holds
        flat = {**fig_squares().boxes, 2: Box.make((1, 5), (2, 2))}
        points = {**self.square_points(), 2: (F(3), F(2))}
        with pytest.raises(AssertionError, match="degenerate"):
            certify(Graph(3, [(1, 2), (2, 3)]), flat, points, "squares")


class TestIncrementalCertify:
    """certify_lift from a certified input: the kept boxes are checked on the appended axis."""

    PATH = Graph(3, [(1, 2), (2, 3)])

    def prev(self):
        points = {1: (F(0), F(0)), 2: (F(3), F(3)), 3: (F(6), F(0))}
        return certified_grid(self.PATH, fig_squares().boxes, points, "squares")

    def near_prev(self):
        # 2's witness is 1/8 from box 3 in the old axes: a radius of 1/16
        points = {1: (F(0), F(0)), 2: (F(31, 8), F(1)), 3: (F(6), F(0))}
        return certified_grid(self.PATH, fig_squares().boxes, points, "squares")

    def fine_prev(self):
        # prev() on the grid of scale 8, where one step is 1/8 of a unit
        prev = self.prev()
        grid = {v: tuple((8 * lo, 8 * hi) for lo, hi in box) for v, box in prev.boxes.items()}
        scaled = {v: tuple(8 * x for x in p) for v, p in prev.points.items()}
        return certify_grid(self.PATH._adj, 8, grid, scaled, "squares")

    def lift(self, prev, levels, at=None, extra=None):
        """certify_lift's (tails, changed): each vertex of prev but those of extra is kept, with
        the appended interval levels[v] and its point at the interval's low end or at[v];
        extra maps each changed vertex to its whole (box, point)."""
        at, extra = at or {}, extra or {}
        tails = {v: ((levels[v],), (at.get(v, levels[v][0]),)) for v in prev.boxes if v not in extra}
        return tails, dict(extra)

    def test_a_sound_lift_keeps_every_box(self):
        prev = self.prev()
        assert prev.scale == 1 and prev._cert == attached_certificate(prev)
        g = Graph(3, [(2, 3)])  # 1-2 cut by the appended axis
        tails, changed = self.lift(prev, {1: (0, 1), 2: (2, 5), 3: (0, 4)})
        got = certify_lift(g._adj, prev, tails, changed, "lift")
        assert got.boxes == {v: prev.boxes[v] + box for v, (box, _) in tails.items()}
        assert got.points == {v: prev.points[v] + p for v, (_, p) in tails.items()}
        full = certify_grid(g._adj, 1, got.boxes, got.points, "lift")
        assert list(got.radii.items()) == list(full.radii.items())
        assert got._cert == full._cert == attached_certificate(got)

    def test_an_appended_axis_can_widen_a_gap(self):
        # 2's witness is 1/8 from box 3 in the old axes and 3/8 in the appended one
        g = self.PATH
        prev = self.near_prev()
        assert F(*prev.radii[2]) == F(1, 16)
        q = prev.scale // 8  # 1/8 on prev's grid
        tails, changed = self.lift(prev, {1: (0, 16 * q), 2: (0, 16 * q), 3: (3 * q, 16 * q)})
        got = certify_lift(g._adj, prev, tails, changed, "lift")
        full = certify_grid(g._adj, prev.scale, got.boxes, got.points, "lift")
        assert F(*got.radii[2]) == F(*full.radii[2]) == F(3, 16)
        assert got.radii == full.radii and got._cert == full._cert == attached_certificate(got)

    @pytest.mark.parametrize("near", ["changed point", "prev"])
    def test_a_radius_below_a_quarter_gets_the_full_check(self, near):
        # a grid carries a certificate only when every radius is 1/4: a lift whose changed
        # point lies 1/8 from a kept box, or a lift of a radius-1/16 prev, is the full check
        if near == "changed point":
            prev, g = self.fine_prev(), Graph(4, [(1, 2), (2, 3), (3, 4)])
            # 4 meets box 3 ((32, 48), (0, 16)) at x = 48, and its point is one step right of it
            new = {4: (((48, 56), (8, 16), (0, 32)), (49, 16, 0))}
            tails, changed = self.lift(prev, {1: (0, 32), 2: (0, 32), 3: (0, 32)}, extra=new)
        else:
            prev, g = self.near_prev(), self.PATH
            q = prev.scale // 8
            tails, changed = self.lift(prev, {1: (0, 16 * q), 2: (0, 16 * q), 3: (3 * q, 16 * q)})
        calls = []
        full = boxes.certify_grid

        def recording(*args):
            calls.append(args)
            return full(*args)

        with patch.object(boxes, "certify_grid", recording):
            got = certify_lift(g._adj, prev, tails, changed, "lift")
        assert calls == [(g._adj, prev.scale, *joined(prev, tails, changed), "lift")]
        want = full(g._adj, prev.scale, got.boxes, got.points, "lift")
        assert list(got.radii.items()) == list(want.radii.items())
        assert min(F(*r) for r in got.radii.values()) < QUARTER
        assert got._cert is None

    @pytest.mark.parametrize("edges, levels, at, reason", [
        # the lift meant to cut 1-2, but their appended intervals still overlap
        ([(2, 3)], {1: (0, 2), 2: (2, 5), 3: (0, 4)}, {}, "intersection pattern"),
        # an appended interval splits the kept edge 1-2
        ([(1, 2), (2, 3)], {1: (0, 1), 2: (2, 5), 3: (0, 4)}, {}, "intersection pattern"),
        # 1's witness leaves its own appended interval
        ([(1, 2), (2, 3)], {1: (0, 4), 2: (0, 4), 3: (0, 4)}, {1: 5}, "not on its boundary"),
        ([(1, 2), (2, 3)], {1: (0, 4), 2: (0, 4), 3: (4, 4)}, {}, "degenerate"),
    ])
    def test_each_fault_on_a_kept_box_raises(self, edges, levels, at, reason):
        prev = self.prev()
        tails, changed = self.lift(prev, levels, at)
        with pytest.raises(AssertionError, match=reason):
            certify_lift(Graph(3, edges)._adj, prev, tails, changed, "lift")

    def test_a_new_box_over_a_kept_witness_raises(self):
        # 4's box reaches 1's witness (0, 0, 0) at its corner, so 4 meets only 1
        prev = self.prev()
        new = {4: (((-1, 0), (-1, 0), (0, 1)), (-1, -1, 1))}
        tails, changed = self.lift(prev, {1: (0, 4), 2: (0, 4), 3: (0, 4)}, extra=new)
        with pytest.raises(AssertionError, match="witness point for 1 lies in another box"):
            certify_lift(Graph(4, [(1, 2), (2, 3), (1, 4)])._adj, prev, tails, changed, "lift")

    def test_a_changed_prefix_is_checked_in_full(self):
        # 3's old axes move onto box 1: 3 is changed, and its new meet with 1 is found
        prev = self.prev()
        moved = {3: (((1, 3), (0, 2), (0, 4)), (3, 0, 0))}
        tails, changed = self.lift(prev, {1: (0, 4), 2: (0, 4), 3: (0, 4)}, extra=moved)
        fault = r"intersection pattern fails at \[\(1, 3, 'unexpected'\)\]"
        with pytest.raises(AssertionError, match=fault):
            certify_lift(self.PATH._adj, prev, tails, changed, "lift")

    def test_a_changed_witness_off_its_boundary_raises(self):
        # 3's box is widened away from 1 and 2, and its point sits inside it, clear of every box
        prev = self.prev()
        box, inner = ((4, 8), (-2, 2), (0, 4)), (7, 0, 2)
        tails, changed = self.lift(prev, {1: (0, 4), 2: (0, 4)}, extra={3: (box, inner)})
        with pytest.raises(AssertionError, match="witness point for 3 is not on its boundary"):
            certify_lift(self.PATH._adj, prev, tails, changed, "lift")

    def test_a_changed_box_can_leave_a_neighbour(self):
        # 3 moves off 2: the kept box 2 loses the meet that prev's certificate lists
        prev = self.prev()
        far = {3: (((10, 12), (10, 12), (0, 4)), (10, 10, 0))}
        tails, changed = self.lift(prev, {1: (0, 4), 2: (0, 4)}, extra=far)
        g = Graph(3, [(1, 2)])
        got = certify_lift(g._adj, prev, tails, changed, "lift")
        full = certify_grid(g._adj, 1, got.boxes, got.points, "lift")
        assert list(got.radii.items()) == list(full.radii.items())
        assert got._cert == full._cert == attached_certificate(got)

    def test_a_lift_that_changes_two_boxes_raises(self):
        # every lift changes one box or none, so two changed boxes are a bug in the named lift
        prev = self.prev()
        two = {2: (((2, 4), (2, 4), (0, 4)), (2, 2, 0)), 3: (((4, 8), (-2, 2), (0, 4)), (8, 0, 0))}
        tails, changed = self.lift(prev, {1: (0, 4)}, extra=two)
        fault = r"two-box lift: a lift changes at most one box, not those of \[2, 3\]"
        with pytest.raises(AssertionError, match=fault):
            certify_lift(self.PATH._adj, prev, tails, changed, "two-box lift")

    @pytest.mark.parametrize("tails, changed, reason", [
        ({1: (((0, 4),), (0,)), 2: (((0, 4),), (0,))}, {}, "must cover"),  # 3 is left out
        ({1: (((0, 4),), (0,)), 2: (((0, 4),), (0,)), 3: (((0, 4),), (0,))},
         {3: (((4, 6),) * 3, (4, 4, 4))}, "must cover"),  # 3 both kept and changed
        ({v: (((0, 4),), (0,)) for v in (1, 2, 3, 4)}, {}, "no box or no point in the input"),
    ])
    def test_the_lift_must_cover_the_graph_once(self, tails, changed, reason):
        with pytest.raises(AssertionError, match=reason):
            certify_lift(Graph(4, [(1, 2), (2, 3)])._adj, self.prev(), tails, changed, "lift")

    def test_an_input_without_a_certificate_gets_the_full_check(self):
        prev = self.prev()
        bare = GridRep(prev.scale, prev.boxes, prev.points, prev.radii)
        g = Graph(3, [(2, 3)])
        tails, changed = self.lift(prev, {1: (0, 1), 2: (2, 5), 3: (0, 4)})
        calls = []
        full = boxes.certify_grid

        def recording(*args):
            calls.append(args)
            return full(*args)

        with patch.object(boxes, "certify_grid", recording):
            got = certify_lift(g._adj, bare, tails, changed, "lift")
        assert [args[2:] for args in calls] == [(got.boxes, got.points, "lift")]
        assert got == certify_lift(g._adj, prev, tails, changed, "lift")
        assert got._cert == attached_certificate(got)

    def test_only_a_certified_grid_carries_a_certificate(self):
        g = random_connected(9, 12, random.Random(3))
        certified = tree_pipeline(g)[1].grid
        assert certified._cert is not None and certified._cert == attached_certificate(certified)
        rep = certified.to_representation()
        assert GridRep.of(rep)._cert is None
        assert grid_from_json(rep_to_json(rep))._cert is None
        assert GridRep(certified.scale, certified.boxes, certified.points, certified.radii)._cert is None
        # a sweep re-bases the grid on 2 * scale, which would double every gap
        base = self.prev()
        swept = boxes._exposed_point(1, base)
        assert base.witnessed([1, 2, 3], {1: swept}).scale == 2
        assert base.witnessed([1, 2, 3], {1: swept})._cert is None
        assert base.witnessed([1, 2, 3], {})._cert is None

    def test_rename_maps_the_certificate(self):
        g = random_connected(9, 12, random.Random(3))
        certified = tree_pipeline(g)[1].grid
        for mapping in ({1: 2, 2: 1}, {4: 10}, {v: v + 1 for v in range(1, 10)}):
            renamed = certified.rename(mapping)
            assert renamed._cert is not None and renamed._cert == attached_certificate(renamed)

    def test_the_certificate_is_not_part_of_the_value(self):
        certified = self.prev()
        bare = GridRep(certified.scale, certified.boxes, certified.points, certified.radii)
        assert certified == bare and repr(certified) == repr(bare)
        assert certified._cert is not None and bare._cert is None


class TestInvariances:
    def test_translation_and_axis_permutation(self):
        rng = random.Random(4)
        g = Graph(4, [(1, 2), (2, 3), (3, 4)])
        for _ in range(20):
            rep = random_rep(rng, 2, 4)
            base_c1 = verify_c1(g, rep)
            base_c2 = verify_c2(g, rep)
            shifted = translate(rep, (F(7, 3), F(-5, 2)))
            flipped = permute(rep, (1, 0))
            for other in (shifted, flipped):
                moved = verify_c1(g, other)
                assert moved.ok == base_c1.ok
                assert moved.violations == base_c1.violations
                assert verify_c2(g, other).ok == base_c2.ok

    def test_boundary_product_rule(self):
        # a boundary point of the base box stays on the boundary after crossing
        rng = random.Random(8)
        for _ in range(50):
            rep = random_rep(rng, 2, 1)
            box = rep.boxes[1]
            (x0, x1), (y0, y1) = box.intervals
            edge_pt = (x0, y0 + (y1 - y0) / 3)
            assert box.on_boundary(edge_pt)
            lo, hi = F(rng.randrange(-3, 0)), F(rng.randrange(1, 4))
            tall = cross(box, (lo, hi))
            mid = lo + (hi - lo) * F(rng.randrange(0, 5), 4)
            assert tall.on_boundary(edge_pt + (mid,))


class TestJson:
    def test_round_trip(self):
        rep = fig_squares()
        g = Graph(3, [(1, 2), (2, 3)])
        enriched = Representation(rep.boxes, verify_c2(g, rep).witnesses)
        again = rep_from_json(rep_to_json(enriched))
        assert again.boxes == enriched.boxes
        assert again.witnesses == enriched.witnesses

    def test_bad_payloads(self):
        with pytest.raises(ParseError):
            rep_from_json({"dim": 2, "boxes": {"1": [["0", "1"]]}})
        with pytest.raises(ParseError):
            rep_from_json({"dim": 1, "boxes": {"1": [["2", "1"]]}})
        with pytest.raises(ParseError):
            rep_from_json({"dim": 1, "boxes": {"1": [["1/0", "2"]]}})

    def test_degenerate_rep_box_rejected(self):
        with pytest.raises(ValueError):
            Representation({1: Box.make((1, 1))})
