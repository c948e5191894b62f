import random
from dataclasses import replace
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from minorkit import (
    Contract,
    EdgeDelete,
    Graph,
    VertexDelete,
    apply_edit,
    apply_edits,
    components,
    enumerate_cycles,
    graph_from_json,
    invert_edit,
    is_connected,
    is_tree,
    reduce_to_spanning_tree,
    replay_edits,
)
from minorkit.exceptions import (
    Disconnected,
    InvalidEdit,
    OracleTooLarge,
    ParseError,
    SequenceMismatch,
)
from minorkit.graph import bfs_order, bfs_path, spanning_tree_edges

from helpers import (
    components_reference,
    graph_from_json_reference,
    graph_state,
    invert_edit_reference,
    is_bridge,
    random_connected,
    random_tree,
    record_edit,
    reference_chain,
)


def path3():
    return Graph(3, [(1, 2), (2, 3)])


def triangle():
    return Graph(3, [(1, 2), (2, 3), (1, 3)])


def k4():
    return Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])


class TestComponents:
    def test_no_removal(self):
        assert components(path3()) == [(1, 2, 3)]

    def test_bridge_split(self):
        assert components(path3(), [(1, 2)]) == [(1,), (2, 3)]

    def test_triangle_stays_connected(self):
        assert components(triangle(), [(1, 2)]) == [(1, 2, 3)]

    def test_removed_must_be_edges(self):
        with pytest.raises(ValueError):
            components(path3(), [(1, 3)])

    @given(st.integers(min_value=1, max_value=12), st.integers(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_reference_walk(self, n, seed, non_edge):
        # unsorted edge lists, removed pairs in either orientation, and a removed non-edge
        rng = random.Random(seed)
        g = random_connected(n, rng.randrange(n - 1, n * (n - 1) // 2 + 1), rng)
        edges = list(g.edges)
        rng.shuffle(edges)
        g = Graph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges])
        removed = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges if rng.random() < 0.4]
        absent = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if not g.has_edge(u, v)]
        if non_edge and absent:
            removed.insert(rng.randrange(len(removed) + 1), rng.choice(absent))
            with pytest.raises(ValueError, match="is not in the graph"):
                components_reference(g, removed)
            with pytest.raises(ValueError, match="is not in the graph"):
                components(g, removed)
        else:
            assert components(g, removed) == components_reference(g, removed)


class TestBfsOrder:
    def test_order_and_parents(self):
        g = Graph(6, [(1, 3), (1, 2), (2, 4), (3, 4), (4, 5)])  # 6 is isolated
        parent = {}
        assert bfs_order(g, 1, parent=parent) == [1, 2, 3, 4, 5]
        assert parent == {1: None, 2: 1, 3: 1, 4: 2, 5: 4}  # smaller neighbour first
        parent = {}
        assert bfs_order(g, 1, {(2, 4)}, parent) == [1, 2, 3, 4, 5]
        assert parent == {1: None, 2: 1, 3: 1, 4: 3, 5: 4}
        assert bfs_order(g, 4, {(2, 4), (3, 4)}) == [4, 5]
        assert bfs_order(g, 6) == [6]

    def test_shared_map_across_roots(self):
        g = Graph(6, [(1, 2), (3, 4), (4, 5), (2, 5), (5, 6)])
        parent = {}
        assert bfs_order(g, 1, {(2, 5)}, parent) == [1, 2]
        assert bfs_order(g, 3, {(2, 5)}, parent) == [3, 4, 5, 6]
        assert parent == {1: None, 2: 1, 3: None, 4: 3, 5: 4, 6: 5}
        # a second walk that may cross (2, 5) still skips 2, which the first walk recorded
        parent = {}
        bfs_order(g, 1, {(2, 5)}, parent)
        assert bfs_order(g, 3, parent=parent) == [3, 4, 5, 6]
        assert parent[2] == 1 and parent[5] == 4


@st.composite
def graphs_with_removed(draw):
    """A graph on 0..9 vertices, its edges in a random order, and some of them, either way round."""
    n = draw(st.integers(min_value=0, max_value=9))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    picked = draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
    removed = [e[::-1] if draw(st.booleans()) else e for e in picked]
    return Graph(n, edges), removed


@given(graphs_with_removed())
@settings(max_examples=150, deadline=None)
def test_walks_match_networkx(case):
    g, removed = case
    full = nx.Graph()
    full.add_nodes_from(g.vertices())
    full.add_edges_from(g.edges)
    cut = full.copy()
    cut.remove_edges_from(removed)
    assert components(g, removed) == sorted(tuple(sorted(c)) for c in nx.connected_components(cut))
    assert is_connected(g) == (g.n <= 1 or nx.is_connected(full))
    for s in g.vertices():
        for t in g.vertices():
            path = bfs_path(g, s, t, removed)
            if not nx.has_path(cut, s, t):
                assert path is None
                continue
            assert path[0] == s and path[-1] == t
            assert all(cut.has_edge(a, b) for a, b in zip(path, path[1:]))
            assert len(path) - 1 == nx.shortest_path_length(cut, s, t)
    if g.n and not nx.is_connected(full):
        with pytest.raises(Disconnected):
            spanning_tree_edges(g)
        return
    tree = spanning_tree_edges(g)
    assert len(tree) == max(g.n - 1, 0) and tree <= set(g.edges)
    if g.n:  # a BFS tree: every vertex as far from 1 in the tree as in the graph
        walk = nx.Graph(tree)
        walk.add_node(1)
        assert nx.single_source_shortest_path_length(walk, 1) == nx.single_source_shortest_path_length(full, 1)


class TestBridges:
    def test_path_edge(self):
        assert is_bridge(path3(), (1, 2))

    def test_triangle_edges(self):
        for e in triangle().edges:
            assert not is_bridge(triangle(), e)

    def test_two_triangles_joined(self):
        g = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (3, 4)])
        assert is_bridge(g, (3, 4))
        assert not is_bridge(g, (1, 2))


class TestCycles:
    def test_triangle(self):
        assert len(enumerate_cycles(triangle())) == 1

    def test_k4_has_seven(self):
        # 4 triangles plus 3 quadrilaterals
        cycles = enumerate_cycles(k4())
        assert len(cycles) == 7
        assert sorted(len(c) for c in cycles) == [3, 3, 3, 3, 4, 4, 4]

    def test_tree_has_none(self):
        assert enumerate_cycles(random_tree(8, random.Random(1))) == []

    def test_vertex_gate(self):
        with pytest.raises(OracleTooLarge):
            enumerate_cycles(Graph(11, []))

    def test_count_gate(self):
        with pytest.raises(OracleTooLarge):
            enumerate_cycles(k4(), limit=3)


class TestApplyEdit:
    def test_contract_path_to_edge(self):
        g = apply_edit(path3(), Contract(2, 3))
        assert g.n == 2 and g.edges == ((1, 2),)

    def test_edge_delete_triangle(self):
        g = apply_edit(triangle(), EdgeDelete(1, 2))
        assert g.n == 3 and set(g.edges) == {(1, 3), (2, 3)}

    def test_delete_isolated_max_vertex(self):
        g = Graph(4, [(1, 2), (2, 3)])
        h = apply_edit(g, VertexDelete(4))
        assert h.n == 3 and h.edges == g.edges

    def test_delete_relabels_max_into_gap(self):
        h = apply_edit(path3(), VertexDelete(2))
        # old vertex 3 takes label 2; no edges survive
        assert h.n == 2 and h.edges == ()

    def test_contract_avoids_parallel_edges(self):
        g = triangle()
        h = apply_edit(g, Contract(1, 3))
        assert h.n == 2 and h.edges == ((1, 2),)

    def test_missing_targets(self):
        with pytest.raises(InvalidEdit):
            apply_edit(path3(), EdgeDelete(1, 3))
        with pytest.raises(InvalidEdit):
            apply_edit(path3(), VertexDelete(5))
        with pytest.raises(InvalidEdit):
            apply_edit(path3(), Contract(1, 3))


def _random_intent(g, rng):
    kind = rng.choice(["v", "e", "c"]) if g.edges else "v"
    if kind == "v":
        return VertexDelete(rng.randrange(1, g.n + 1))
    u, v = g.edges[rng.randrange(len(g.edges))]
    return EdgeDelete(u, v) if kind == "e" else Contract(*(rng.sample([u, v], 2)))


class TestEditRoundTrip:
    def test_invert_reproduces_original(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randrange(3, 12)
            m = rng.randrange(n - 1, min(n * (n - 1) // 2, n + 4) + 1)
            g = random_connected(n, m, rng)
            intent = _random_intent(g, rng)
            h, op = record_edit(g, intent)
            back = invert_edit(h, op)
            assert back.same_topology(g), (g.edges, op, h.edges, back.edges)

    def test_replay_detects_tampered_base(self):
        g = random_connected(6, 8, random.Random(3))
        seq = reduce_to_spanning_tree(g)
        tampered = type(seq)(base=Graph(seq.base.n, []), ops=seq.ops)
        with pytest.raises(SequenceMismatch):
            replay_edits(g, tampered)

    def test_replay_rejects_a_start_one_edge_away(self):
        # matching snapshots and base pin every intermediate graph, so a start one edge off fails
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randrange(3, 9)
            g = random_connected(n, rng.randrange(n - 1, n * (n - 1) // 2 + 1), rng)
            intents, cur = [], g
            for _ in range(rng.randrange(1, 4)):
                if cur.n < 2:
                    break
                intents.append(_random_intent(cur, rng))
                cur = apply_edit(cur, intents[-1])
            seq = apply_edits(g, intents)
            replay_edits(g, seq)
            for u in g.vertices():
                for v in range(u + 1, n + 1):
                    edges = [e for e in g.edges if e != (u, v)]
                    g2 = Graph(n, edges if g.has_edge(u, v) else [*edges, (u, v)])
                    with pytest.raises((SequenceMismatch, InvalidEdit)):
                        replay_edits(g2, seq)

    @pytest.mark.parametrize("op", [
        # a merged label 4 is right, but the kept endpoint 7 is past it
        Contract(1, 3, u_post=7, merged=4, nbrs_kept=(4,), nbrs_merged=(1,)),
        EdgeDelete(1, 4),  # out of range: h has no vertex 4
        VertexDelete(2, neighbors=(9,), swap=(2, 4)),  # out of range
        EdgeDelete(1, 2),  # h already has the edge
        VertexDelete(4, neighbors=(1, 1)),  # a duplicate edge
        VertexDelete(4, neighbors=(4,)),  # a self-loop
        EdgeDelete(2, 2),  # a self-loop
        Contract(1, 4, u_post=1, merged=4, nbrs_kept=(1, 4), nbrs_merged=(1,)),  # a self-loop
    ], ids=["contract-past-n+1", "edge-out-of-range", "vertex-out-of-range", "edge-present",
            "duplicate-neighbour", "vertex-self-loop", "edge-self-loop", "kept-self-loop"])
    def test_invert_rejects_an_op_h_cannot_have_come_from(self, op):
        with pytest.raises(SequenceMismatch):
            invert_edit(path3(), op)


@st.composite
def edit_lists(draw):
    """A random connected graph and a valid edit list for it: any vertex deletion,
    edge deletion or contraction (swaps included), each edge named in either order."""
    n = draw(st.integers(1, 9))
    m = draw(st.integers(n - 1, n * (n - 1) // 2)) if n > 1 else 0
    g = random_connected(n, m, random.Random(draw(st.integers(0, 2**16))))
    cur, intents = g, []
    for _ in range(draw(st.integers(0, 7))):
        if cur.n == 0:
            break
        kind = draw(st.sampled_from(["vertex", "edge", "contract"] if cur.edges else ["vertex"]))
        if kind == "vertex":
            op = VertexDelete(draw(st.integers(1, cur.n)))
        else:
            u, v = draw(st.permutations(draw(st.sampled_from(cur.edges))))
            op = EdgeDelete(u, v) if kind == "edge" else Contract(u, v)
        cur = record_edit(cur, op)[0]
        intents.append(op)
    return g, intents


def tampered(op, field):
    """op with one snapshot tuple changed: its last label dropped, or a label added to an empty one."""
    t = getattr(op, field)
    return replace(op, **{field: t[:-1] if t else (1,)})


@given(edit_lists(), st.data())
@settings(max_examples=200, deadline=None)
def test_the_edit_walk_matches_the_graph_per_edit_chain(case, data):
    # the one-adjacency walk against the chain that built a fresh Graph per edit
    g, intents = case
    chain = reference_chain(g, intents)
    seq = apply_edits(g, intents)
    assert seq.ops == tuple(op for _, op, _ in chain)
    assert seq.base.same_topology(chain[-1][2] if chain else g)
    assert list(seq.base.edges) == sorted(seq.base.edges)
    replay_edits(g, seq)
    for before, op, after in chain:
        back = invert_edit(after, op)
        assert back.same_topology(invert_edit_reference(after, op)) and back.same_topology(before)
    snapshots = [(i, f) for i, op in enumerate(seq.ops)
                 for f in {VertexDelete: ("neighbors",), Contract: ("nbrs_kept", "nbrs_merged")}.get(type(op), ())]
    if snapshots:
        i, field = data.draw(st.sampled_from(snapshots))
        ops = seq.ops[:i] + (tampered(seq.ops[i], field),) + seq.ops[i + 1:]
        with pytest.raises(SequenceMismatch):
            replay_edits(g, replace(seq, ops=ops))
    base = seq.base
    other = Graph(base.n, set(base.edges) ^ {(1, 2)}) if base.n >= 2 else Graph(base.n + 1, base.edges)
    with pytest.raises(SequenceMismatch):
        replay_edits(g, replace(seq, base=other))


@given(edit_lists(), st.data())
@settings(max_examples=200, deadline=None)
def test_invert_on_any_op_in_range_rebuilds_a_graph_or_raises_sequence_mismatch(case, data):
    # snapshots drawn at random over 1..n+1: the rebuilt graph must map back to h under op
    g, intents = case
    chain = reference_chain(g, intents)
    assume(chain)
    _, op, h = data.draw(st.sampled_from(chain))
    labels = st.integers(1, h.n + 1)
    nbrs = st.lists(labels, max_size=4).map(tuple)
    swap = st.none() | st.tuples(labels, labels)
    if isinstance(op, VertexDelete):
        op = VertexDelete(data.draw(labels), data.draw(nbrs), data.draw(swap))
    elif isinstance(op, Contract):
        op = Contract(*(data.draw(labels) for _ in range(2)), data.draw(swap), data.draw(labels),
                      h.n + 1, data.draw(nbrs), data.draw(nbrs))
    else:
        assume(h.n >= 2)
        op = EdgeDelete(*data.draw(st.lists(st.integers(1, h.n), min_size=2, max_size=2)))
    try:
        back = invert_edit(h, op)
    except SequenceMismatch:
        return
    assert apply_edits(back, [op]).ops == (op,)
    assert apply_edit(back, op).same_topology(h)


class TestSpanningTreeReduction:
    def test_tree_input_is_noop(self):
        t = random_tree(9, random.Random(2))
        seq = reduce_to_spanning_tree(t)
        assert seq.ops == () and seq.base.same_topology(t)

    def test_cycle_needs_one_deletion(self):
        c5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        assert len(reduce_to_spanning_tree(c5).ops) == 1

    def test_base_is_spanning_tree(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randrange(3, 12)
            r = rng.randrange(0, 5)
            m = min(n + r, n * (n - 1) // 2)
            g = random_connected(n, m, rng)
            seq = reduce_to_spanning_tree(g)
            assert len(seq.ops) == m - (n - 1)
            assert is_tree(seq.base)
            replay_edits(g, seq)  # snapshots and base line up

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            reduce_to_spanning_tree(Graph(4, [(1, 2), (3, 4)]))


class TestComponentCycleAgreement:
    def test_target_edge_in_one_component_iff_cycle_spares_it(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randrange(3, 8)
            m = min(n + rng.randrange(0, 4), n * (n - 1) // 2)
            g = random_connected(n, m, rng)
            cycles = enumerate_cycles(g)
            f_set = {e for e in g.edges if rng.random() < 0.4}
            comp_of = {}
            for i, comp in enumerate(components(g, f_set)):
                for v in comp:
                    comp_of[v] = i
            for u, v in f_set:
                same = comp_of[u] == comp_of[v]
                lone_cycle = any((u, v) in c and len(c & f_set) == 1 for c in cycles)
                assert same == lone_cycle


@given(st.integers(min_value=2, max_value=30), st.integers())
@settings(max_examples=40, deadline=None)
def test_random_trees_are_trees(n, seed):
    t = random_tree(n, random.Random(seed))
    assert is_tree(t) and is_connected(t) and len(t.edges) == n - 1


class TestGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            Graph(2, [(1, 2), (2, 1)])

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(ValueError):
            Graph(2, [(1, 2)], gains={3: 0})
        with pytest.raises(ValueError):
            Graph(2, [(1, 2)], gains={3: "-0/5"})

    def test_json_gains_are_parsed_once_after_the_edges(self):
        g = graph_from_json({"n": 2, "edges": [{"u": 1, "v": 2, "gain": "6/4"}]})
        assert g.gains == {3: Fraction(3, 2)}
        # a bad gain and a bad edge in one file: the edge is reported (exit 2 either way)
        bad = {"n": 2, "edges": [{"u": 1, "v": 2, "gain": "x"}, {"u": 2, "v": 2, "gain": "1"}]}
        with pytest.raises(ParseError, match="self-loop"):
            graph_from_json(bad)

    def test_edge_indices_follow_positions(self):
        g = Graph(3, [(1, 3), (1, 2)])
        assert g.edge_index(1, 3) == 4 and g.edge_index(2, 1) == 5 and g.t == 5


# -- the one-pass reader against the per-edge reader -----------------------------------------

_GAIN_TEXTS = ["2", "4/2", "2/1", "3/2", "6/4", "1/3", "7", "2"]
_FAULTS = {
    "no u": lambda e: e.pop("u"),
    "no v": lambda e: e.pop("v"),
    "bool u": lambda e: e.update(u=True),
    "str v": lambda e: e.update(v=str(e["v"])),
    "float u": lambda e: e.update(u=float(e["u"])),
    "self-loop": lambda e: e.update(v=e["u"]),
    "out of range": lambda e: e.update(v=e["v"] + 20),
    "vertex 0": lambda e: e.update(u=0),
    "zero gain": lambda e: e.update(gain="0"),
    "negative gain": lambda e: e.update(gain="-3/2"),
    "float gain": lambda e: e.update(gain=1.5),
    "null gain": lambda e: e.update(gain=None),
    "bad gain text": lambda e: e.update(gain="x"),
}


@st.composite
def graph_objects(draw):
    """A graph file's object with up to two faults, each in its own entry, or in n or the entry list."""
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    gained = draw(st.sampled_from(["all", "all", "some", "none"]))
    edges = []
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=9)):
        entry = {"u": u, "v": v} if draw(st.booleans()) else {"u": v, "v": u}
        if gained == "all" or (gained == "some" and draw(st.booleans())):
            entry["gain"] = draw(st.sampled_from(_GAIN_TEXTS))
        edges.append(entry)
    obj = {"n": n, "edges": edges}
    spots = draw(st.lists(st.integers(0, len(edges) - 1), unique=True, max_size=2))
    for pos in spots:
        fault = draw(st.sampled_from(sorted(_FAULTS) + ["duplicate", "not an object", "no n", "n = -1"]))
        if fault == "duplicate":
            u, v = edges[pos]["u"], edges[pos]["v"]
            edges.insert(pos + 1, {"u": v, "v": u, "gain": "1"})
        elif fault == "not an object":
            edges[pos] = draw(st.sampled_from([[1, 2], "1-2", 7, None]))
        elif fault == "no n":
            obj.pop("n", None)
        elif fault == "n = -1":
            obj["n"] = -1
        else:
            _FAULTS[fault](edges[pos])
    return obj


def _outcome(read, obj):
    try:
        return read(obj)
    except Exception as exc:  # compared by class and message
        return exc


@given(graph_objects())
@example({"n": 3, "edges": []})
@example({"n": 4, "edges": [{"u": 1, "v": 2, "gain": "2"}, {"u": 2, "v": 3, "gain": "4/2"},
                            {"u": 3, "v": 1, "gain": "2/1"}, {"u": 4, "v": 1, "gain": "2"}]})
@example({"n": 4, "edges": [{"u": 1, "v": 2, "gain": "x"}, {"u": 3, "v": 3, "gain": "1"}]})
@example({"n": 4, "edges": [{"u": 1, "v": 2, "gain": "0"}, {"u": 2, "v": 3, "gain": "-1"}]})
@example({"n": 4, "edges": [{"u": 1, "v": 9}, {"u": True, "v": 2}]})
@example({"n": 4, "edges": [{"u": 2, "v": 1}, {"u": 1, "v": 2}, {"v": 3}]})
@example({"n": -1, "edges": [{"u": 1, "v": 2}]})
@example({"n": 2, "edges": {"u": 1, "v": 2}})
@settings(max_examples=400, deadline=None)
def test_reader_matches_the_per_edge_reference(obj):
    """The same graph state, or the same exception class and message, as the per-edge reader."""
    want = _outcome(graph_from_json_reference, obj)
    got = _outcome(graph_from_json, obj)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert graph_state(got) == want
    # each distinct gain text is parsed once: equal texts share one Fraction
    by_text = {}
    for pos, entry in enumerate(obj["edges"]):
        if "gain" in entry:
            assert by_text.setdefault(entry["gain"], got.gains[obj["n"] + 1 + pos]) is got.gains[obj["n"] + 1 + pos]


@pytest.mark.parametrize("edges, message", [
    ([(1, 2), (3, 3), (5, 1)], "self-loop at vertex 3"),
    ([(1, 2), (5, 1), (3, 3)], "edge (5,1) out of vertex range 1..4"),
    ([(2, 1), (1, 2), (0, 1)], "duplicate edge (1, 2)"),
    (iter([(2, 1), (4, 4)]), "self-loop at vertex 4"),
])
def test_graph_names_the_first_bad_edge(edges, message):
    with pytest.raises(ValueError) as info:
        Graph(4, edges)
    assert str(info.value) == message


@pytest.mark.parametrize("gains, message", [
    ({4: "1", 5: "0", 9: "1"}, "gain for edge index 5 must be positive"),
    ({4: "1", 9: "1", 5: "0"}, "gain key 9 is not an edge index"),
    ({"5": "-1", 4: "x"}, "gain for edge index 5 must be positive"),
])
def test_graph_names_the_first_bad_gain(gains, message):
    with pytest.raises(ValueError) as info:
        Graph(3, [(1, 2), (2, 3)], gains=gains)
    assert str(info.value) == message
