import copy
import itertools
import json
import random
from fractions import Fraction as F
from unittest.mock import patch

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from networkx.algorithms.threshold import is_threshold_graph

from minorkit import (
    Box,
    Contract,
    EdgeDelete,
    Graph,
    Representation,
    VertexDelete,
    Witness,
    apply_edit,
    apply_edits,
    brute_force_strong_boxicity,
    build_from_edit_sequence,
    build_threshold_rep,
    build_tree_rep,
    components,
    drop_edge,
    lift_edge_add,
    lift_uncontract,
    lift_vertex_add,
    reduce_to_spanning_tree,
    threshold_graph,
    trace_to_json,
    tree_pipeline,
    verify_c1,
    verify_c2,
)
from minorkit import boxes, build
from minorkit.boxes import GridRep, certify_grid, certify_lift, grid_to_json, rep_to_json, verify_grid
from minorkit.exceptions import (
    BadNesting,
    BadSnapshot,
    InvalidInput,
    NotATree,
    SequenceMismatch,
    TooLarge,
    TooSmall,
)
from minorkit.graph import spanning_tree_edges

from helpers import (
    attached_certificate,
    certify_grid_all_pairs,
    drop_edge_fraction,
    edges_of,
    full_certificate,
    full_radii,
    graph_of,
    is_bridge,
    joined,
    lift_uncontract_fraction,
    lift_vertex_add_fraction,
    oracle_exposed,
    pairwise_feasible,
    random_connected,
    random_tree,
    reference_chain,
    snapshot,
    span_without,
    swap_labels,
    translate,
)


def test_tree_pipeline_makes_one_grid_and_one_rep():
    # the tree base is laid out on the grid of scale 1 and certified there from scratch,
    # so nothing goes through boxes._grid and no rep is made; each lift certifies from
    # its input on that grid and makes neither; the final rep is made once, when
    # trace.final is read
    assert "_grid" not in vars(build)  # so patching boxes._grid counts every call
    init = Representation.__init__
    for n, m, steps in ((8, 7, 0), (10, 15, 6), (12, 22, 11)):
        g = random_connected(n, m, random.Random(4))
        reps = []

        def counted_init(self, *args, **kwargs):
            reps.append(1)
            init(self, *args, **kwargs)

        with patch.object(boxes, "_grid", wraps=boxes._grid) as grid, \
                patch.object(Representation, "__init__", counted_init), \
                patch.object(build, "certify_grid", wraps=certify_grid) as certified, \
                patch.object(build, "certify_lift", wraps=certify_lift) as lifted:
            seq, trace = tree_pipeline(g)
            assert grid.call_count == 0 and len(reps) == 0
            assert trace.final is trace.final
        assert len(seq.ops) == len(trace.steps) == steps
        assert grid.call_count == 0 and len(reps) == 1
        (base,) = certified.call_args_list
        assert base.args[1:] == (1,) + base.args[2:4] + ("tree builder",)  # scale 1, the full check
        lifts = lifted.call_args_list
        assert len(lifts) == steps and all(c.args[1].scale == 1 and c.args[1]._cert is not None for c in lifts)


def test_edit_pipeline_on_a_given_base_makes_one_grid_and_one_rep():
    # a Representation base goes onto its grid once and is verified there, a
    # witness-free one by the facet sweep on that grid; the final rep is made once
    assert "_grid" not in vars(build)
    init = Representation.__init__
    for n, m in ((8, 10), (12, 18)):
        g = random_connected(n, m, random.Random(5))
        seq = reduce_to_spanning_tree(g)
        witnessed = build_tree_rep(seq.base)
        for base in (witnessed, Representation(witnessed.boxes)):
            reps = []

            def counted_init(self, *args, **kwargs):
                reps.append(1)
                init(self, *args, **kwargs)

            with patch.object(boxes, "_grid", wraps=boxes._grid) as grid, \
                    patch.object(Representation, "__init__", counted_init):
                trace = build_from_edit_sequence(g, seq, base)
                assert grid.call_count == 1 and len(reps) == 0
                assert trace.final is trace.final
            assert len(trace.steps) == m - n + 1
            assert grid.call_count == 1 and len(reps) == 1


def assert_strong(g, rep):
    assert verify_c1(g, rep).ok
    assert verify_c2(g, rep).ok


def k2_line_rep():
    """Valid 1-D representation of a single edge, endpoints mutually exposed."""
    return Representation({1: Box.make((0, 2)), 2: Box.make((1, 3))})


class TestTreeBuilder:
    def test_path3_matches_the_planar_layout(self):
        g = Graph(3, [(1, 2), (2, 3)])
        rep = build_tree_rep(g)
        assert rep.dim == 2
        assert_strong(g, rep)
        assert not rep.boxes[1].intersects(rep.boxes[3])
        assert rep.boxes[2].intersects(rep.boxes[1])
        assert rep.boxes[2].intersects(rep.boxes[3])

    def test_star(self):
        g = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
        rep = build_tree_rep(g)
        assert_strong(g, rep)
        leaves = [rep.boxes[v] for v in (2, 3, 4, 5)]
        for i, a in enumerate(leaves):
            for b in leaves[i + 1:]:
                assert not a.intersects(b)

    def test_random_trees_are_planar_strong(self):
        rng = random.Random(21)
        for _ in range(15):
            t = random_tree(rng.randrange(3, 26), rng)
            rep = build_tree_rep(t)
            assert rep.dim == 2
            assert_strong(t, rep)

    def test_rejects_non_trees_and_tiny_trees(self):
        with pytest.raises(NotATree):
            build_tree_rep(Graph(3, [(1, 2), (2, 3), (1, 3)]))
        with pytest.raises(TooSmall):
            build_tree_rep(Graph(2, [(1, 2)]))


class TestThresholdBuilder:
    def test_reference_instance(self):
        g = threshold_graph(4, (3, 2))
        assert g.neighbors(5) == (1, 2, 3) and g.neighbors(6) == (1, 2)
        rep = build_threshold_rep(4, (3, 2))
        assert rep.dim == 2
        assert_strong(g, rep)
        # clique boxes are nested crosses around the origin: half-widths 2(n+1-i) and
        # half-heights K i, with K = 2(r+1) = 6 for r = 2 stable vertices
        assert rep.boxes[1] == Box.make((-8, 8), (-6, 6))
        assert rep.boxes[4] == Box.make((-2, 2), (-24, 24))
        assert rep.boxes[5] == Box.make((3, 10), (1, 2)) and rep.boxes[6] == Box.make((5, 10), (3, 4))

    def test_pure_clique_shares_origin(self):
        rep = build_threshold_rep(3, ())
        origin = (F(0), F(0))
        assert all(b.contains(origin) for b in rep.boxes.values())
        assert_strong(threshold_graph(3, ()), rep)

    def test_two_stable_vertices_on_k2(self):
        rep = build_threshold_rep(2, (1, 1))
        assert_strong(threshold_graph(2, (1, 1)), rep)
        assert not rep.boxes[3].intersects(rep.boxes[4])

    def test_bad_nesting(self):
        with pytest.raises(BadNesting):
            build_threshold_rep(4, (2, 3))
        with pytest.raises(BadNesting):
            build_threshold_rep(2, (3,))
        with pytest.raises(BadNesting):
            build_threshold_rep(3, (0,))


# -- the integer bases against the oracles ---------------------------------------------


@st.composite
def trees(draw):
    """A path, star, caterpillar or random recursive tree on 3..60 vertices, randomly labelled."""
    n = draw(st.integers(3, 60))
    kind = draw(st.sampled_from(["path", "star", "caterpillar", "recursive"]))
    if kind == "path":
        parents = [v - 1 for v in range(2, n + 1)]
    elif kind == "star":
        parents = [1] * (n - 1)
    elif kind == "caterpillar":
        spine = draw(st.integers(2, n - 1))
        legs = [draw(st.integers(1, spine)) for _ in range(n - spine)]
        parents = [v - 1 for v in range(2, spine + 1)] + legs
    else:
        parents = [draw(st.integers(1, v - 1)) for v in range(2, n + 1)]
    label = dict(zip(range(1, n + 1), draw(st.permutations(range(1, n + 1)))))
    return Graph(n, [(label[p], label[v]) for v, p in enumerate(parents, start=2)])


@st.composite
def threshold_cases(draw):
    """A clique of 1..12 vertices and 0..6 nested stable vertices."""
    n_clique = draw(st.integers(1, 12))
    sizes = draw(st.lists(st.integers(1, n_clique), max_size=6))
    return n_clique, sorted(sizes, reverse=True)


def overlap_graph(grid: GridRep) -> nx.Graph:
    """The intersection graph of grid's boxes, decided interval by interval."""
    h = nx.Graph()
    h.add_nodes_from(grid.boxes)
    for (u, a), (v, b) in itertools.combinations(grid.boxes.items(), 2):
        if all(max(a_lo, b_lo) <= min(a_hi, b_hi) for (a_lo, a_hi), (b_lo, b_hi) in zip(a, b)):
            h.add_edge(u, v)
    return h


def assert_base_on_the_grid(g: Graph, grid: GridRep, bound: int):
    """grid is a strong representation of g at scale 1 with every |coordinate| at most bound."""
    assert grid.scale == 1 and grid.dim == 2
    coords = [x for b in grid.boxes.values() for iv in b for x in iv]
    coords += [x for p in grid.points.values() for x in p]
    assert all(type(x) is int and abs(x) <= bound for x in coords)
    assert nx.utils.edges_equal(overlap_graph(grid).edges, g.edges)
    for rep in (grid, GridRep(1, grid.boxes, {}, {})):  # its witnesses, then the facet sweep
        c1, c2 = verify_grid(g, rep)
        assert c1.ok and c2.ok


@given(trees())
@settings(max_examples=80, deadline=None)
def test_tree_grid_against_the_oracles(t):
    grid = build._tree_grid(t)
    assert nx.is_tree(overlap_graph(grid))
    assert_base_on_the_grid(t, grid, 2 * t.n)


@given(threshold_cases())
@settings(max_examples=80, deadline=None)
def test_threshold_grid_against_the_oracles(case):
    n_clique, sizes = case
    g = threshold_graph(n_clique, sizes)
    grid = build._threshold_grid(n_clique, sizes)
    assert is_threshold_graph(overlap_graph(grid))
    assert_base_on_the_grid(g, grid, 2 * (len(sizes) + 1) * n_clique)


def test_a_deep_path_stays_on_the_unit_grid():
    # depth 2099: a layout that spent bits per level would pass GRID_MAX_BITS here and
    # be refused as TooLarge; the tree grid never scales a denominator
    n = 2100
    path = Graph(n, [(v, v + 1) for v in range(1, n)])
    with patch.object(boxes, "_on_grid", side_effect=AssertionError("_on_grid called")):
        grid = build._tree_grid(path)
    assert grid.scale == 1 and grid.radii[n] == (1, 4)
    coords = [x for b in grid.boxes.values() for iv in b for x in iv]
    assert all(type(x) is int and 0 <= x <= 2 * n for x in coords) and max(coords) == 2 * n


class TestVertexLift:
    def test_attach_leaf_to_line(self):
        g = Graph(3, [(1, 2), (1, 3)])
        rep = lift_vertex_add(k2_line_rep(), g, 3)
        assert rep.dim == 2
        assert_strong(g, rep)

    def test_attach_isolated_vertex(self):
        g = Graph(3, [(1, 2)])
        rep = lift_vertex_add(k2_line_rep(), g, 3)
        assert_strong(g, rep)

    def test_attach_dominating_vertex(self):
        g = Graph(3, [(1, 2), (1, 3), (2, 3)])
        rep = lift_vertex_add(k2_line_rep(), g, 3)
        assert_strong(g, rep)

    def test_negative_coordinates_are_fine(self):
        base = Representation({1: Box.make((-9, -7)), 2: Box.make((-8, -6))})
        g = Graph(3, [(1, 2), (1, 3)])
        assert_strong(g, lift_vertex_add(base, g, 3))

    def test_invalid_base_rejected(self):
        # boxes 1 and 2 intersect although (1,2) is not an edge of g minus 3
        bad = Representation({1: Box.make((0, 2)), 2: Box.make((1, 3))})
        g = Graph(3, [(1, 3)])
        with pytest.raises(InvalidInput):
            lift_vertex_add(bad, g, 3)

    def test_pattern_is_checked_before_the_sweep_gate(self):
        # a witness-free 5-D input failing C1 is rejected for its pattern, not by the sweep's TooLarge
        bad = Representation({1: Box(((F(0), F(2)),) * 5), 2: Box(((F(1), F(3)),) * 5)})
        with pytest.raises(InvalidInput, match="intersection pattern fails"):
            lift_vertex_add(bad, Graph(3, [(1, 3)]), 3)

    @pytest.mark.parametrize("boxes, message", [
        # boxes 1 and 3 meet, boxes 3 and 4 miss
        ({1: (0, 2), 3: (1, 3), 4: (5, 6)},
         "intersection pattern fails at ((1, 3, 'unexpected'), (3, 4, 'missing'))"),
        # box 4 lies inside box 3
        ({1: (0, 1), 3: (2, 5), 4: (3, 4)}, "vertices (4,) have no exclusive boundary point"),
    ], ids=["c1", "c2"])
    def test_rejection_names_the_callers_vertices(self, boxes, message):
        # vertex 2 of the path 1-2-3-4 is lifted in, so the input's vertices are 1, 3 and 4
        bad = Representation({v: Box.make(iv) for v, iv in boxes.items()})
        p4 = Graph(4, [(1, 2), (2, 3), (3, 4)])
        with pytest.raises(InvalidInput) as exc:
            lift_vertex_add(bad, p4, 2)
        assert str(exc.value) == f"vertex lift input: {message}"


class TestEdgeLift:
    def test_join_two_isolated(self):
        base = Representation({1: Box.make((0, 1)), 2: Box.make((2, 3))})
        g = Graph(2, [(1, 2)])
        rep = lift_edge_add(base, g, (1, 2))
        assert rep.dim == 2
        assert_strong(g, rep)

    def test_close_path_into_triangle(self):
        g = Graph(3, [(1, 2), (2, 3), (1, 3)])
        path = Graph(3, [(1, 2), (2, 3)])
        base = build_tree_rep(path)
        rep = lift_edge_add(base, g, (1, 3))
        assert rep.dim == 3
        assert_strong(g, rep)

    def test_endpoints_already_linked_elsewhere(self):
        g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
        sub = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        _, trace = tree_pipeline(sub)
        rep = lift_edge_add(trace.final, g, (1, 3))
        assert_strong(g, rep)

    def test_invalid_input_rejected(self):
        # boxes 1 and 3 touch, but g minus (2,3) has only the edge (1,2)
        bad = Representation({1: Box.make((0, 2)), 2: Box.make((1, 3)), 3: Box.make((2, 4))})
        with pytest.raises(InvalidInput):
            lift_edge_add(bad, Graph(3, [(1, 2), (2, 3)]), (2, 3))

    def test_buried_input_rejected(self):
        # a valid pattern for the path 1-2-3, but box 2's boundary is covered
        buried = Representation({1: Box.make((0, 2)), 2: Box.make((1, 4)), 3: Box.make((3, 5))})
        with pytest.raises(InvalidInput):
            lift_edge_add(buried, Graph(3, [(1, 2), (2, 3), (1, 3)]), (1, 3))


def coordinates(rep):
    """Every box endpoint and witness coordinate of rep."""
    ends = {x for b in rep.boxes.values() for iv in b.intervals for x in iv}
    return ends | {x for w in rep.witnesses.values() for x in w.point}


class TestWideBoxLift:
    def test_edge_lift_is_the_vertex_lift_without_v(self):
        rng = random.Random(29)
        for _ in range(8):
            n = rng.randrange(5, 10)
            h = random_connected(n, min(n + rng.randrange(0, 3), n * (n - 1) // 2 - 1), rng)
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            u, v = rng.choice([p for p in pairs if not h.has_edge(*p)])
            g = Graph(n, h.edges + ((u, v),))
            rep = tree_pipeline(h)[1].final
            without_v = Representation(
                {w: b for w, b in rep.boxes.items() if w != v},
                {w: x for w, x in rep.witnesses.items() if w != v},
            )
            by_edge = lift_edge_add(rep, g, (u, v))
            by_vertex = lift_vertex_add(without_v, g, v)
            assert by_edge.boxes == by_vertex.boxes
            assert by_edge.witnesses == by_vertex.witnesses

    def test_lifts_create_no_new_coordinates(self):
        # the wide box reuses the input's extreme endpoints, so only levels are new
        rng = random.Random(53)
        levels = {F(x) for x in (0, 2, 3, 4, 5, 6)}
        for _ in range(5):
            g = random_connected(24, 24 + rng.randrange(4, 9), rng)
            seq, trace = tree_pipeline(g)
            assert trace.final.dim > 6
            assert coordinates(trace.final) <= coordinates(build_tree_rep(seq.base)) | levels


class TestDropEdge:
    def test_k2_comes_apart(self):
        g = Graph(2, [(1, 2)])
        rep = drop_edge(k2_line_rep(), g, (1, 2))
        assert rep.dim == 2
        assert not rep.boxes[1].intersects(rep.boxes[2])
        assert_strong(Graph(2, []), rep)

    def test_triangle_minus_edge_is_a_path(self):
        g = Graph(3, [(1, 2), (2, 3), (1, 3)])
        base = build_threshold_rep(3, ())
        rep = drop_edge(base, g, (1, 3))
        assert_strong(Graph(3, [(1, 2), (2, 3)]), rep)

    def test_levels_cut_exactly_the_target_pair(self):
        assert not Box.make((1, 2)).intersects(Box.make((3, 5)))
        for level in ((1, 2), (3, 5)):
            assert Box.make((0, 4)).intersects(Box.make(level))

    def test_drop_then_lift_round_trip(self):
        rng = random.Random(31)
        for _ in range(8):
            n = rng.randrange(4, 9)
            g = random_connected(n, min(n + 1, n * (n - 1) // 2), rng)
            _, trace = tree_pipeline(g)
            e = g.edges[rng.randrange(len(g.edges))]
            dropped = drop_edge(trace.final, g, e)
            restored = lift_edge_add(dropped, g, e)
            assert restored.dim == trace.final.dim + 2
            assert_strong(g, restored)

    def test_invalid_input_rejected(self):
        # disjoint boxes cannot represent the edge being dropped
        bad = Representation({1: Box.make((0, 1)), 2: Box.make((2, 3))})
        with pytest.raises(InvalidInput):
            drop_edge(bad, Graph(2, [(1, 2)]), (1, 2))


class TestUncontract:
    def test_split_line_into_path(self):
        g = Graph(3, [(1, 2), (2, 3)])
        rep = lift_uncontract(k2_line_rep(), g, 2, 3, ((1, 3), (2,)))
        assert rep.dim == 3
        assert_strong(g, rep)

    def test_common_neighbour_takes_the_full_square(self):
        g = Graph(3, [(1, 2), (2, 3), (1, 3)])
        rep = lift_uncontract(k2_line_rep(), g, 1, 3, ((2, 3), (1, 2)))
        assert_strong(g, rep)
        # vertex 2 neighbours both halves, so it spans the whole 2-D factor
        assert rep.boxes[2].intervals[1:] == ((F(0), F(10)), (F(0), F(10)))

    def test_private_neighbour_separation_levels(self):
        assert not Box.make((0, 6)).intersects(Box.make((8, 10)))
        assert not Box.make((6, 10)).intersects(Box.make((0, 5)))

    def test_bad_split_rejected(self):
        g = Graph(3, [(1, 2), (2, 3)])
        with pytest.raises(BadSnapshot):
            lift_uncontract(k2_line_rep(), g, 2, 3, ((1,), (2,)))
        with pytest.raises(BadSnapshot):
            lift_uncontract(k2_line_rep(), g, 1, 2, ((2,), (1,)))

    def test_invalid_input_rejected(self):
        # the contracted graph is the edge (1,2), but the boxes are disjoint
        bad = Representation({1: Box.make((0, 1)), 2: Box.make((2, 3))})
        with pytest.raises(InvalidInput):
            lift_uncontract(bad, Graph(3, [(1, 2), (2, 3)]), 2, 3, ((1, 3), (2,)))


class TestPipeline:
    def test_empty_sequence_returns_base(self):
        t = random_tree(6, random.Random(3))
        seq = apply_edits(t, [])
        base = build_tree_rep(t)
        trace = build_from_edit_sequence(t, seq, base)
        assert trace.final.boxes == base.boxes and trace.steps == ()

    def test_single_contraction_costs_two_dimensions(self):
        g = Graph(4, [(1, 2), (2, 3), (3, 4)])
        seq = apply_edits(g, [Contract(3, 4)])
        base = build_tree_rep(seq.base)
        trace = build_from_edit_sequence(g, seq, base)
        assert trace.final.dim == base.dim + 2
        assert_strong(g, trace.final)

    def test_mixed_sequences_with_relabels(self):
        rng = random.Random(17)
        hits = 0
        for _ in range(12):
            n = rng.randrange(5, 9)
            m = min(n + rng.randrange(0, 3), n * (n - 1) // 2)
            g = random_connected(n, m, rng)
            cur, intents = g, []
            for _ in range(rng.randrange(1, 4)):
                kind = rng.choice(["v", "e", "c"])
                if kind == "v" and cur.n > 4:
                    op = VertexDelete(rng.randrange(1, cur.n + 1))
                elif cur.edges:
                    u, v = cur.edges[rng.randrange(len(cur.edges))]
                    op = EdgeDelete(u, v) if kind == "e" else Contract(*rng.sample([u, v], 2))
                else:
                    continue
                cur = apply_edit(cur, op)
                intents.append(op)
            seq = apply_edits(g, intents)
            from minorkit import is_tree

            if seq.base.n >= 3 and is_tree(seq.base):
                base = build_tree_rep(seq.base)
                trace = build_from_edit_sequence(g, seq, base)
                av, ae, bc = seq.counts()
                assert trace.final.dim == base.dim + av + ae + 2 * bc
                assert_strong(g, trace.final)
                hits += 1
        assert hits >= 1  # at least one sequence ended in a usable tree base

    def test_tree_pipeline_budget(self):
        rng = random.Random(41)
        for _ in range(6):
            n = rng.randrange(4, 10)
            r = rng.randrange(0, 4)
            m = min(n + r, n * (n - 1) // 2)
            g = random_connected(n, m, rng)
            seq, trace = tree_pipeline(g)
            assert trace.final.dim == 2 + (m - (n - 1))
            assert_strong(g, trace.final)

    def test_base_mismatch_detected(self):
        g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        seq = reduce_to_spanning_tree(g)
        wrong = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        with pytest.raises(SequenceMismatch):
            build_from_edit_sequence(wrong, seq, build_tree_rep(seq.base))

    def test_trace_serialises(self):
        g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        _, trace = tree_pipeline(g)
        blob = trace_to_json(trace)
        assert blob["base_dim"] == 2 and len(blob["steps"]) == 1
        assert blob["steps"][0]["op"]["kind"] == "edge_delete"


@st.composite
def connected_edit_cases(draw):
    """A connected graph and an edit list that mixes edge deletions, vertex
    deletions and contractions (with relabelling swaps), ending in a spanning tree."""
    n = draw(st.integers(4, 8))
    m = min(n - 1 + draw(st.integers(0, 5)), n * (n - 1) // 2)
    g = random_connected(n, m, random.Random(draw(st.integers(0, 2**16))))
    cur, intents = g, []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["edge", "vertex", "contract"]))
        if kind == "edge":
            cands = [EdgeDelete(*e) for e in cur.edges if not is_bridge(cur, e)]
        elif kind == "vertex" and cur.n > 3:
            cands = [VertexDelete(v) for v in cur.vertices()
                     if len(components(apply_edit(cur, VertexDelete(v)))) == 1]
        elif kind == "contract" and cur.n > 3:
            cands = [Contract(a, b) for u, v in cur.edges for a, b in ((u, v), (v, u))]
        else:
            cands = []
        if cands:
            op = draw(st.sampled_from(cands))
            cur = apply_edit(cur, op)
            intents.append(op)
    tree = spanning_tree_edges(cur)
    intents += [EdgeDelete(*e) for e in cur.edges if e not in tree]
    return g, apply_edits(g, intents)


def assert_same_rep(got, want):
    # key order too: it decides the order of the written JSON
    assert list(got.boxes.items()) == list(want.boxes.items())
    assert list(got.witnesses.items()) == list(want.witnesses.items())


def fraction_base(t):
    """build_tree_rep's layout of t, moved off the integers: a base whose grid has a scale of 21."""
    return translate(build_tree_rep(t), (F(1, 3), F(-2, 7)))


def near_base(t):
    """fraction_base(t) with the root's witness 1/8 of a unit from a box: a radius of 1/16.

    The root's box is [0, x] x [0, 2] and its first child's starts at (0, 2), so
    the point (0, 15/8) lies on the root's left facet, 1/8 below the child.
    """
    rep = build_tree_rep(t)
    rep = Representation(rep.boxes, rep.witnesses | {1: Witness((F(0), F(15, 8)), F(1, 16))})
    return translate(rep, (F(1, 3), F(-2, 7)))


@given(connected_edit_cases())
@settings(max_examples=60, deadline=None)
def test_pipeline_steps_match_the_fraction_lifts(case):
    g, seq = case
    reference = {
        build._lift_vertex_add: lift_vertex_add_fraction,
        build._lift_uncontract: lift_uncontract_fraction,
    }
    calls = []

    def recording(body):
        def recorded(rep, adj, *args):
            out = body(rep, adj, *args)
            calls.append((body, rep, (graph_of(adj), *args), out))
            return out
        return recorded

    with patch.object(build, "_lift_vertex_add", recording(build._lift_vertex_add)), \
            patch.object(build, "_lift_uncontract", recording(build._lift_uncontract)):
        trace = build_from_edit_sequence(g, seq, fraction_base(seq.base))
        assert len(calls) == len(seq.ops)
        for body, rep, args, out in calls:
            assert_same_rep(out.to_representation(), reference[body](rep.to_representation(), *args))
        e = g.edges[len(g.edges) // 2]
        assert_same_rep(drop_edge(trace.final, g, e), drop_edge_fraction(trace.final, g, *e))
    assert_strong(g, trace.final)


def recorders(steps: list, full=None, lift=None):
    """certify_grid and certify_lift for patching into build: each call appends (adj, what, prev,
    tails, changed, out) to steps, prev, tails and changed None for a full check.  full and lift
    run before each call of their kind, with its arguments."""

    def recording_full(h, scale, grid, scaled, what):
        if full is not None:
            full(h, scale, grid, scaled, what)
        out = certify_grid(h, scale, grid, scaled, what)
        steps.append((snapshot(h), what, None, None, None, out))
        return out

    def recording_lift(h, prev, tails, changed, what):
        if lift is not None:
            lift(h, prev, tails, changed, what)
        out = certify_lift(h, prev, tails, changed, what)
        steps.append((snapshot(h), what, prev, tails, changed, out))
        return out

    return patch.multiple(build, certify_grid=recording_full, certify_lift=recording_lift)


@given(connected_edit_cases(), st.sampled_from(["tree", "given", "near"]))
@settings(max_examples=60, deadline=None)
def test_each_step_certifies_as_the_full_check(case, base_kind):
    # every lift starts from its input's certificate; each step must give the radii and the
    # certificate of a check from scratch (certify_grid), which the old verifier pins.  The
    # tree base is such a check; a given base is verified rather than certified, so its
    # first lift checks every box in full.  A grid carries its meets as its certificate only
    # when every radius is 1/4, so a lift of the near base's radius-1/16 grid checks every
    # box in full until a lift clears that radius
    g, seq = case
    steps = []
    base = None if base_kind == "tree" else {"given": fraction_base, "near": near_base}[base_kind](seq.base)

    with recorders(steps):
        trace = build_from_edit_sequence(g, seq, base)
        e = g.edges[len(g.edges) // 2]
        build._drop_edge(trace.grid, g._adj, *e)  # from the pipeline's last grid
        drop_edge(trace.final, g, e)  # the public one: its verified input carries no certificate
        ops = len(seq.ops)
        certs = [None if prev is None else prev._cert is not None for _, _, prev, *_ in steps]
        kinds = {type(x) for *_, out in steps for b in out.boxes.values() for iv in b for x in iv}
        assert kinds == {int}
        if base_kind == "given":
            assert certs == [False] + [True] * ops + [False]
        elif base_kind == "tree":
            assert certs == [None] + [True] * (ops + 1) + [False]
        else:
            quarter = [set(out.radii.values()) == {(1, 4)} for *_, out in steps[:-2]]
            assert certs == [False] + quarter + [False]
        for h, what, prev, tails, changed, out in steps:
            scale, grid, scaled = out.scale, out.boxes, out.points
            if prev is not None:  # the certifier joins each kept box to prev's, in the order given
                assert scale == prev.scale
                assert (list(grid.items()), list(scaled.items())) == tuple(
                    list(part.items()) for part in joined(prev, tails, changed))
            full = certify_grid(h, scale, grid, scaled, what)
            assert list(out.radii.items()) == list(full.radii.items())
            assert out.radii == full_radii(out)
            assert out._cert == full._cert == attached_certificate(out)


def test_the_wide_box_spans_every_box_but_its_own():
    # tree_pipeline(K4) re-adds the edges 3-4, 2-4 and 2-3, each by a vertex lift of its larger
    # end.  At the second lift of 4 the input holds 4's first wide box, which reaches 6 on the
    # axis its lift appended; the boxes of 1, 2 and 3 reach only 5, and so must the new wide box
    k4 = Graph(4, list(itertools.combinations(range(1, 5), 2)))
    calls = []
    body = build._lift_vertex_add

    def recording(rep, adj, v):
        out = body(rep, adj, v)
        calls.append((rep, graph_of(adj), v, out))
        return out

    with patch.object(build, "_lift_vertex_add", recording):
        tree_pipeline(k4)
    assert [v for _, _, v, _ in calls] == [4, 4, 3]
    rep, g, v, out = calls[1]
    assert max(hi for b in rep.boxes.values() for _, hi in b) == 6 and span_without(rep, 4) == (0, 5)
    assert out.boxes[4] == ((0, 5),) * rep.dim + ((4, 6),) and out.points[4] == (5,) * rep.dim + (6,)
    assert_same_rep(out.to_representation(), lift_vertex_add_fraction(rep.to_representation(), g, 4))


@st.composite
def oracle_base_cases(draw):
    """(g, seq, base): g is taken back by seq to a small graph h whose `box oracle` file
    (ORACLE_REPS) is the base, on the grid of scale 2.  g has h's vertices and edges, chords
    among them, and new vertices, each with one to three earlier neighbours.  seq deletes the
    chords and some new vertices' edges in a drawn order, then the new vertices, last first."""
    h, text = draw(st.sampled_from(ORACLE_REPS))
    n, size = h.n, h.n + draw(st.integers(1, 4))
    missing = [e for e in itertools.combinations(range(1, n + 1), 2) if e not in h.edges]
    chords = draw(st.sets(st.sampled_from(missing))) if missing else set()
    new = set()
    for v in range(n + 1, size + 1):
        new |= {(u, v) for u in draw(st.sets(st.integers(1, v - 1), min_size=1, max_size=3))}
    deleted = draw(st.permutations(sorted(chords | draw(st.sets(st.sampled_from(sorted(new)))))))
    g = Graph(size, sorted(set(h.edges) | chords | new))
    seq = apply_edits(g, [EdgeDelete(*e) for e in deleted] + [VertexDelete(v) for v in range(size, n, -1)])
    assert seq.base.same_topology(h)
    return g, seq, boxes.grid_from_json(json.loads(text))


def uncontracted(adj: dict, u: int, sides: list) -> dict:
    """The neighbour map that contracting u with a new vertex r = len(adj) + 1 takes back to adj.

    sides[i] says whether u's i-th neighbour (in label order) stays with u, goes to r, or
    is a neighbour of both.
    """
    r = len(adj) + 1
    out = {v: set(ns) for v, ns in adj.items()} | {r: {u}}
    for w, side in zip(sorted(adj[u]), sides):
        if side != "u":
            out[w].add(r)
            out[r].add(w)
        if side == "r":
            out[w].discard(u)
            out[u].discard(w)
    out[u].add(r)
    return out


@given(oracle_base_cases(), st.data())
@settings(max_examples=60, deadline=None)
def test_lifts_carry_the_gaps_of_a_scale_two_base(case, data):
    # the oracle's witnesses lie half a unit from a neighbour's box, so on its grid of scale 2
    # the full check finds gaps below one unit, and every radius is still 1/4.  A given base
    # is verified, not certified, so the first lift is the full check, which attaches its
    # meets; each later lift, and an edge drop and an uncontraction of the last grid, carry
    # that certificate on, and their radii must stay those of the full check
    g, seq, base = case
    steps = []
    with recorders(steps):
        trace = build_from_edit_sequence(g, seq, base)
        build._drop_edge(trace.grid, g._adj, *data.draw(st.sampled_from(g.edges)))
        u = data.draw(st.sampled_from(list(g.vertices())))
        sides = data.draw(st.lists(st.sampled_from(["u", "r", "both"]), min_size=g.degree(u), max_size=g.degree(u)))
        build._lift_uncontract(trace.grid, uncontracted(g._adj, u, sides), u, g.n + 1)
    (first, *carried) = [step for step in steps if step[2] is not None]
    assert first[2]._cert is None and all(prev._cert is not None for _, _, prev, *_ in carried)
    assert any(any(map(full_certificate(prev)[1].get, tails)) for _, _, prev, tails, *_ in carried)
    for h, what, prev, tails, changed, out in [first, *carried]:
        assert out.scale == 2
        full = certify_grid(h, 2, out.boxes, out.points, what)
        assert list(out.radii.items()) == list(full.radii.items())
        assert out.radii == full_radii(out)
        assert out._cert == full._cert == attached_certificate(out)


@st.composite
def full_checks(draw):
    """certify_grid's arguments (adj, scale, grid, scaled, what) for a full check.

    A random integer grid (its points drawn on their boxes' boundaries, and adj
    its boxes' intersection graph), a tree or threshold base, or a pipeline's
    lifted grid, which is dense on every axis.
    """
    kind = draw(st.sampled_from(["random", "tree", "threshold", "lift"]))
    if kind == "random":
        n, d, scale = draw(st.integers(1, 12)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
        grid, scaled = {}, {}
        for v in range(1, n + 1):
            los = [draw(st.integers(-20, 20)) for _ in range(d)]
            box = tuple((lo, lo + draw(st.integers(1, 8))) for lo in los)
            p = [draw(st.integers(lo, hi)) for lo, hi in box]
            axis = draw(st.integers(0, d - 1))
            p[axis] = box[axis][draw(st.integers(0, 1))]
            grid[v], scaled[v] = box, tuple(p)
        meets, _ = full_certificate(GridRep(scale, grid, scaled, {}))
        return meets, scale, grid, scaled, "random grid"
    if kind == "tree":
        t = draw(trees())
        g, out = t, build._tree_grid(t)
    elif kind == "threshold":
        n_clique, sizes = draw(threshold_cases())
        g, out = threshold_graph(n_clique, sizes), build._threshold_grid(n_clique, sizes)
    else:
        g, seq = draw(connected_edit_cases())
        out = build_from_edit_sequence(g, seq).grid
    return g._adj, out.scale, out.boxes, out.points, kind


def full_check(certify, *args):
    """certify's certified grid, or the message of the AssertionError it raises."""
    try:
        return certify(*args)
    except AssertionError as exc:
        return str(exc)


@given(full_checks())
@settings(max_examples=200, deadline=None)
def test_the_full_check_is_the_all_pairs_one(case):
    # the full check reads its certificate off the verifier's tables; its meets, near gaps
    # and radii, or its failure, must be those of every pair tested
    got, want = full_check(certify_grid, *case), full_check(certify_grid_all_pairs, *case)
    if isinstance(want, str):
        assert got == want
    else:
        assert got._cert == want._cert
        assert list(got.radii.items()) == list(want.radii.items())
        assert boxes._Tables(got.boxes).certificate(got.points, got.scale) == full_certificate(got)


FULL_CHECK_FAULTS = ("overlap", "point in a far box", "point in a neighbour's box")


def full_check_faults(adj, grid, scaled, fault):
    """Every way to plant `fault` in a full check's grid: (grid, scaled) copies.

    An overlap puts v's box on a non-neighbour's.  A point in a far box is a
    non-neighbour's witness given to v: it lies outside v's box, maybe in a
    box the sweep never pairs with v's.  A point in a neighbour's box lies in
    both boxes and on v's boundary.
    """
    for v in grid:
        for u in grid:
            if u == v:
                continue
            if fault == "overlap" and u not in adj[v]:
                yield grid | {v: grid[u]}, scaled
            elif fault == "point in a far box" and u not in adj[v]:
                yield grid, scaled | {v: scaled[u]}
            elif fault == "point in a neighbour's box" and u in adj[v]:
                both = [(max(a_lo, b_lo), min(a_hi, b_hi))
                        for (a_lo, a_hi), (b_lo, b_hi) in zip(grid[v], grid[u])]
                for axis, (lo, hi) in enumerate(grid[v]):
                    for side, x in ((0, lo), (1, hi)):
                        if both[axis][side] == x:
                            p = tuple(b_lo for b_lo, _ in both)
                            yield grid, scaled | {v: p[:axis] + (x,) + p[axis + 1:]}


@given(full_checks(), st.sampled_from(FULL_CHECK_FAULTS), st.data())
@settings(max_examples=150, deadline=None)
def test_a_corrupted_full_check_fails_as_the_all_pairs_one(case, fault, data):
    # the boundary scan must name the first fault in vertex order, as the check of every pair
    # does, and the tables' certificate stays exact on the faulted grid: every meet and every
    # gap below a unit, a misplaced point's too
    adj, scale, grid, scaled, what = case
    planted = list(full_check_faults(adj, grid, scaled, fault))
    assume(planted)
    bad_grid, bad_scaled = data.draw(st.sampled_from(planted))
    args = (adj, scale, bad_grid, bad_scaled, what)
    want = full_check(certify_grid_all_pairs, *args)
    assert isinstance(want, str)
    assert full_check(certify_grid, *args) == want
    cert = boxes._Tables(bad_grid).certificate(bad_scaled, scale)
    assert cert == full_certificate(GridRep(scale, bad_grid, bad_scaled, {}))


@given(connected_edit_cases(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_a_certificate_never_changes_once_its_grid_exists(case, given_base):
    # a lift keeps each unchanged entry of its input's certificate as the same object, so
    # neither a lift nor a relabelling may change a certificate it was handed, or one it
    # made, at any later step of the pipeline
    g, seq = case
    base = fraction_base(seq.base) if given_base else None
    made = []
    rename = GridRep.rename

    def carried(grid):  # what a later step reads of grid: its certificate
        return copy.deepcopy(grid._cert)

    def full(h, scale, grid, scaled, what):
        out = certify_grid(h, scale, grid, scaled, what)
        made.append((out, carried(out)))
        return out

    def lift(h, prev, tails, changed, what):
        before = carried(prev)
        out = certify_lift(h, prev, tails, changed, what)
        assert carried(prev) == before
        made.append((out, carried(out)))
        return out

    def renaming(self, mapping):
        before = carried(self)
        out = rename(self, mapping)
        assert carried(self) == before
        made.append((out, carried(out)))
        return out

    with patch.multiple(build, certify_grid=full, certify_lift=lift), patch.object(GridRep, "rename", renaming):
        trace = build_from_edit_sequence(g, seq, base)
        e = g.edges[len(g.edges) // 2]
        build._drop_edge(trace.grid, g._adj, *e)
    assert len(made) >= len(seq.ops) + 1
    for out, before in made:
        assert carried(out) == before


@given(connected_edit_cases())
@settings(max_examples=60, deadline=None)
def test_each_lift_certifies_against_the_graph_chain_before_graph(case):
    # the walk on one adjacency hands each lift the graph the Graph-per-edit chain gave it:
    # the graph before the op, with a contraction's labels still swapped
    g, seq = case
    maps = []
    with recorders(maps):
        build_from_edit_sequence(g, seq)
    maps = [h for h, *_ in maps]
    want = [swap_labels(before, *op.swap) if isinstance(op, Contract) and op.swap else before
            for before, op, _ in reversed(reference_chain(g, seq.ops))]
    assert maps == [snapshot(seq.base._adj)] + [snapshot(w._adj) for w in want]


@st.composite
def built_grids(draw):
    """(graph, grid) from each path of box build: the tree and threshold bases, an edit
    pipeline from its tree base or from a given one, and a given base with no edits.  A
    given base keeps its stored witnesses or has none, so that they are swept when read."""
    kind = draw(st.sampled_from(["tree", "threshold", "edits", "base", "base, no edits"]))
    if kind == "tree":
        t = draw(trees())
        return t, build._tree_grid(t)
    if kind == "threshold":
        n_clique, sizes = draw(threshold_cases())
        return threshold_graph(n_clique, sizes), build._threshold_grid(n_clique, sizes)
    g, seq = draw(connected_edit_cases())
    if kind == "edits":
        return g, build_from_edit_sequence(g, seq).grid
    if kind == "base, no edits":
        g, seq = seq.base, apply_edits(seq.base, [])
    base = fraction_base(seq.base)
    if draw(st.booleans()):
        base = Representation(base.boxes)
    return g, build_from_edit_sequence(g, seq, base).grid


@given(built_grids())
@settings(max_examples=150, deadline=None)
def test_every_built_grid_passes_the_verifier_as_it_stands(case):
    # box build writes a builder's certified grid with no verify_grid of its own, so the
    # verifier stays the reference: it must pass the grid, keep every stored witness (a sweep
    # would move the witnesses onto the grid of twice the scale) and write the same file
    g, grid = case
    c1, c2 = verify_grid(g, grid)
    assert c1.ok and c2.ok
    kept = c2.rep
    assert kept.scale == grid.scale and kept.points == grid.points and kept.radii == grid.radii
    assert json.dumps(grid_to_json(kept)) == json.dumps(grid_to_json(grid))


FAULTS = ("degenerate kept box", "kept witness off its level", "changed box moved", "kept witness inside")


def corruptions(step, fault):
    """Every way to plant `fault` in one lift step's arguments: (tails, changed) copies.

    A kept vertex keeps prev's box and point on the first d0 axes; the faults on it
    touch only its appended part, so it stays kept.  A changed box moved onto a
    non-neighbour's old axes counts only where that breaks the pattern.
    """
    h, _, prev, tails, changed, _ = step
    d0, scale = prev.dim, prev.scale
    grid, _ = joined(prev, tails, changed)
    for v in tails if fault in FAULTS[:2] else changed:
        if fault == "degenerate kept box":
            box, p = tails[v]
            lo = box[0][0]
            yield tails | {v: (((lo, lo),) + box[1:], p)}, changed
        elif fault == "kept witness off its level":
            box, p = tails[v]
            yield tails | {v: (box, (box[0][1] + scale,) + p[1:])}, changed
        elif fault == "changed box moved":
            box, p = changed[v]
            for u in grid:
                moved = grid[u][:d0] + box[d0:]
                if u != v and u not in h[v] and boxes._Tables(grid | {v: moved}).c1(edges_of(h)):
                    yield tails, changed | {v: (moved, p)}
        else:
            box = changed[v][0]
            corner = tuple(lo for lo, _ in box[d0:])
            for u, (tail, _) in tails.items():
                if all(lo <= x <= hi for (lo, hi), x in zip(box, prev.points[u])):
                    yield tails | {u: (tail, corner)}, changed


def certify_message(certify, *args):
    try:
        certify(*args)
    except AssertionError as exc:
        return str(exc)
    return None


@given(connected_edit_cases(), st.sampled_from(FAULTS), st.data())
@settings(max_examples=80, deadline=None)
def test_a_corrupted_lift_fails_as_the_full_check(case, fault, data):
    # a lift's check from its input's certificate must catch every fault the full check
    # catches, and name it the same way
    g, seq = case
    steps = []
    with recorders(steps):
        build_from_edit_sequence(g, seq)
    planted = [(step, c) for step in steps if step[2] is not None for c in corruptions(step, fault)]
    assume(planted)
    (h, what, prev, *_), (tails, changed) = data.draw(st.sampled_from(planted))
    message = certify_message(certify_lift, h, prev, tails, changed, what)
    assert message is not None
    assert message == certify_message(certify_grid, h, prev.scale, *joined(prev, tails, changed), what)


@pytest.mark.parametrize("seed", [3, 7, 12])
def test_an_edge_lift_meets_the_wide_box_with_its_neighbours_only(seed):
    # the tree base's full check reads which boxes meet off the verifier's tables, with no
    # pair test.  An edge lift from a certified input keeps every box but the wide vertex v's,
    # in two classes (the two levels): one test for the pair of classes, one for v's box
    # against each class on the appended axis, and on the old axes only the members of the
    # class that axis leaves in reach, which are v's neighbours
    rng = random.Random(seed)
    g = random_connected(24, 34, rng)
    seq = reduce_to_spanning_tree(g)
    calls, counts = [0], []
    meet = boxes._meet

    def counted(a, b):
        calls[0] += 1
        return meet(a, b)

    def reset(*_):
        counts.append(calls[0])  # the calls before this one's
        calls[0] = 0

    steps = []
    with patch.object(boxes, "_meet", counted), recorders(steps, full=reset, lift=reset):
        build_from_edit_sequence(g, seq)
    counts = counts[1:] + [calls[0]]  # each call's own count
    (base, *counts), (_, *steps) = counts, steps  # the tree base is the full check
    assert base == 0
    assert len(counts) == len(steps) == len(seq.ops) == 11
    wide = [max(op.u, op.v) for op in reversed(seq.ops)]
    for c, (h, *_), v in zip(counts, steps, wide):
        assert c <= len(h[v]) + 3


@pytest.mark.parametrize("shape", ["path", "star"])
def test_a_long_path_or_star_base_tests_at_most_2n_pairs(shape):
    # the full check tests no pair of boxes for meeting, and takes one gap per box that the
    # tables leave within a grid unit of a witness, not all n(n-1) of them
    n = 400
    t = Graph(n, [(v - 1 if shape == "path" else 1, v) for v in range(2, n + 1)])
    calls = {"_meet": 0, "_gap": 0}
    pair_tests = {name: getattr(boxes, name) for name in calls}

    def counter(name):
        def counted(*args):
            calls[name] += 1
            return pair_tests[name](*args)
        return counted

    with patch.object(boxes, "_meet", counter("_meet")), patch.object(boxes, "_gap", counter("_gap")):
        grid = build._tree_grid(t)
    assert calls["_meet"] == 0
    assert calls["_gap"] == sum(map(len, full_certificate(grid)[1].values())) <= 2 * n
    assert grid._cert == attached_certificate(grid)


@st.composite
def partial_assignments(draw):
    """(d, boxes): up to five d-dimensional boxes with ends on the grid 0..2n-1, n the box count."""
    d, n = draw(st.integers(1, 2)), draw(st.integers(1, 5))
    pair = st.lists(st.integers(0, 2 * n - 1), min_size=2, max_size=2, unique=True).map(sorted).map(tuple)
    return d, {v: tuple(draw(pair) for _ in range(d)) for v in range(1, n + 1)}


# the oracle's files on four small graphs: any change to the search order changes them
ORACLE_REPS = [
    (Graph(3, [(1, 2), (2, 3)]),
     '{"dim": 2, "boxes": {"2": [["0", "5"], ["0", "4"]], "1": [["0", "3"], ["0", "5"]], "3": [["4", '
     '"5"], ["0", "5"]]}, "witnesses": {"1": {"point": ["0", "9/2"], "radius": "1/4"}, '
     '"2": {"point": ["7/2", "0"], "radius": "1/4"}, "3": {"point": ["4", "9/2"], "radius": "1/4"}}}'),
    (Graph(3, [(1, 2), (2, 3), (1, 3)]),
     '{"dim": 2, "boxes": {"1": [["0", "5"], ["0", "4"]], "2": [["0", "4"], ["0", "5"]], "3": [["1", '
     '"5"], ["1", "5"]]}, "witnesses": {"1": {"point": ["5", "1/2"], "radius": "1/4"}, '
     '"2": {"point": ["0", "9/2"], "radius": "1/4"}, "3": {"point": ["5", "9/2"], "radius": "1/4"}}}'),
    (Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
     '{"dim": 2, "boxes": {"1": [["0", "7"], ["0", "5"]], "2": [["0", "5"], ["0", "7"]], "3": [["0", '
     '"7"], ["6", "7"]], "4": [["6", "7"], ["0", "7"]]}, "witnesses": {"1": {"point": ["11/2", "0"], '
     '"radius": "1/4"}, "2": {"point": ["0", "11/2"], "radius": "1/4"}, "3": {"point": ["11/2", "6"], '
     '"radius": "1/4"}, "4": {"point": ["6", "11/2"], "radius": "1/4"}}}'),
    (Graph(4, [(1, 2), (1, 3), (1, 4)]),
     '{"dim": 2, "boxes": {"1": [["0", "7"], ["0", "6"]], "2": [["0", "3"], ["0", "7"]], "3": [["4", '
     '"5"], ["0", "7"]], "4": [["6", "7"], ["0", "7"]]}, "witnesses": {"1": {"point": ["7/2", "0"], '
     '"radius": "1/4"}, "2": {"point": ["0", "13/2"], "radius": "1/4"}, "3": {"point": ["4", "13/2"], '
     '"radius": "1/4"}, "4": {"point": ["6", "13/2"], "radius": "1/4"}}}'),
]


class TestBruteForceOracle:
    @given(partial_assignments())
    @settings(max_examples=500, deadline=None)
    def test_facet_sweep_exposure_matches_segment_cover(self, case):
        d, assign = case
        for v in assign:
            swept = any(
                boxes._facet_uncovered(v, axis, side, assign) is not None for axis in range(d) for side in (0, 1)
            )
            assert swept == oracle_exposed(v, assign, d)

    @given(partial_assignments(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_meet_masks_keep_the_pairwise_filter_and_its_order(self, case, data):
        # one more vertex with a drawn neighbour set: the candidates that the meet masks leave
        # are those that the pairwise _meet filter passes, in candidate order (wide first)
        d, assign = case
        nbrs = data.draw(st.sets(st.sampled_from(sorted(assign))))
        grid = 2 * (len(assign) + 1)  # the oracle's grid once the new vertex is counted
        pairs = sorted(itertools.combinations(range(grid), 2), key=lambda p: (p[0] - p[1], p[0]))
        candidates = list(itertools.product(pairs, repeat=d))
        meets = dict(zip(candidates, boxes._Tables(dict(enumerate(candidates)))._met()))
        got = build._feasible(candidates, meets, assign, nbrs)
        assert got == pairwise_feasible(candidates, assign, nbrs)

    def test_c5_needs_the_plane(self):
        g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        res = brute_force_strong_boxicity(g)
        c1, c2 = verify_grid(g, res.grid)
        assert res.dim == 2 and c1.ok and c2.ok

    def test_the_vertex_gate_is_five(self):
        with pytest.raises(TooLarge, match="oracle gated at 5 vertices"):
            brute_force_strong_boxicity(Graph(6, [(1, 2)]))
        with pytest.raises(TypeError):
            brute_force_strong_boxicity(Graph(6, [(1, 2)]), max_n=6)

    @pytest.mark.parametrize("g, text", ORACLE_REPS)
    def test_search_order_is_pinned(self, g, text):
        res = brute_force_strong_boxicity(g)
        assert res.dim == 2 and json.dumps(rep_to_json(res.rep)) == text

    def test_path3_needs_the_plane(self):
        res = brute_force_strong_boxicity(Graph(3, [(1, 2), (2, 3)]))
        assert res.dim == 2
        g = Graph(3, [(1, 2), (2, 3)])
        assert_strong(g, res.rep)

    def test_k2_fits_on_the_line(self):
        res = brute_force_strong_boxicity(Graph(2, [(1, 2)]))
        assert res.dim == 1

    def test_k3_needs_the_plane(self):
        res = brute_force_strong_boxicity(Graph(3, [(1, 2), (2, 3), (1, 3)]))
        assert res.dim == 2

    def test_edge_plus_isolated_vertex_stays_on_the_line(self):
        res = brute_force_strong_boxicity(Graph(3, [(1, 2)]))
        assert res.dim == 1

    def test_connected_two_edge_graphs_never_fit_on_the_line(self):
        for edges in ([(1, 2), (2, 3)], [(1, 2), (2, 3), (1, 3)], [(1, 2), (1, 3), (1, 4)]):
            g = Graph(max(max(e) for e in edges), edges)
            assert brute_force_strong_boxicity(g, max_dim=1).dim is None

    def test_gates(self):
        with pytest.raises(TooLarge):
            brute_force_strong_boxicity(Graph(6, []))
        with pytest.raises(TooLarge):
            brute_force_strong_boxicity(Graph(2, [(1, 2)]), max_dim=3)

    @pytest.mark.parametrize("max_dim", [0, -1])
    def test_dimension_bound_below_one_is_rejected(self, max_dim):
        with pytest.raises(ValueError, match=f"max_dim must be at least 1, got {max_dim}"):
            brute_force_strong_boxicity(Graph(2, [(1, 2)]), max_dim=max_dim)

    def test_sandwich_against_edge_deletion(self):
        # removing edges from a verified construction can cost at most one
        # dimension each way; the constructed pipeline realises the upper arm
        g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        seq = reduce_to_spanning_tree(g)
        base = build_tree_rep(seq.base)
        trace = build_from_edit_sequence(g, seq, base)
        (av, ae, bc) = seq.counts()
        assert trace.final.dim == base.dim + av + ae + 2 * bc
        s_base = brute_force_strong_boxicity(seq.base).dim
        assert s_base is not None and s_base - ae <= trace.final.dim
