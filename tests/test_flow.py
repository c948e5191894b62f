import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorkit import (
    Graph,
    assemble_gain_matrix,
    flows,
    matrix_to_json,
    recover_states,
    vector_from_json,
    vector_to_json,
)
from minorkit.exceptions import (
    BadBounds,
    DimensionMismatch,
    Disconnected,
    Inconsistent,
    MissingGain,
    ParseError,
)
from minorkit.flow import GainMatrix, recover_pairs
from minorkit.ratio import fmt_ratio

from helpers import dense_product, is_bridge, random_connected, recover_states_fraction


def k2(gain=F(1)):
    return Graph(2, [(1, 2)], gains={3: gain})


class TestAssembly:
    def test_k2_rows(self):
        h = assemble_gain_matrix(k2())
        assert h.rows == (
            (F(1), F(-1)),
            (F(-1), F(1)),
            (F(1), F(-1)),
        )

    def test_isolated_vertex_row_is_zero(self):
        g = Graph(3, [(1, 2)], gains={4: F(2)})
        h = assemble_gain_matrix(g)
        assert h.rows[2] == (F(0), F(0), F(0))

    def test_row_sums_vanish(self):
        rng = random.Random(6)
        for _ in range(25):
            n = rng.randrange(2, 9)
            m = rng.randrange(n - 1, n * (n - 1) // 2 + 1)
            g = random_connected(n, m, rng, gains=True)
            h = assemble_gain_matrix(g)
            assert all(s == 0 for s in h.row_sums())

    def test_edge_row_orientation(self):
        g = Graph(3, [(2, 3), (1, 3)], gains={4: F(5), 5: F(7)})
        h = assemble_gain_matrix(g)
        assert h.row(4) == (F(0), F(5), F(-5))  # +gain at the smaller endpoint
        assert h.row(5) == (F(7), F(0), F(-7))

    def test_missing_gain(self):
        with pytest.raises(MissingGain):
            assemble_gain_matrix(Graph(2, [(1, 2)]))

    @pytest.mark.parametrize("gain", [F(0), F(-3, 2)])
    def test_non_positive_gain_rejected(self, gain):
        # root avoidance needs positive gains; a direct build must not get past here
        with pytest.raises(BadBounds):
            GainMatrix(n=2, t=3, gains=(gain,), edges=((1, 2),))

    @pytest.mark.parametrize("t, gains", [(3, ()), (9, (F(1),)), (2, (F(1),)), (3, (F(1), F(2)))],
                             ids=["no-gain", "t-too-large", "t-too-small", "extra-gain"])
    def test_gains_and_edges_must_fit(self, t, gains):
        # t rows are n vertex rows and one row per edge, and each edge has one gain
        with pytest.raises(DimensionMismatch):
            GainMatrix(n=2, t=t, gains=gains, edges=((1, 2),))


class TestFlows:
    def test_constant_state_flows_nowhere(self):
        g = random_connected(6, 8, random.Random(2), gains=True)
        h = assemble_gain_matrix(g)
        assert all(v == 0 for v in flows(h, [F(9, 7)] * 6))

    def test_k2_hand_product(self):
        h = assemble_gain_matrix(k2())
        assert flows(h, (F(3), F(1))) == (F(2), F(-2), F(2))

    def test_linearity(self):
        rng = random.Random(10)
        g = random_connected(5, 7, rng, gains=True)
        h = assemble_gain_matrix(g)
        x = tuple(F(rng.randrange(-9, 9), rng.randrange(1, 5)) for _ in range(5))
        y = tuple(F(rng.randrange(-9, 9), rng.randrange(1, 5)) for _ in range(5))
        xy = tuple(a + b for a, b in zip(x, y))
        assert flows(h, xy) == tuple(a + b for a, b in zip(flows(h, x), flows(h, y)))

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            flows(assemble_gain_matrix(k2()), (F(1),))


class TestRecovery:
    def test_round_trip(self):
        rng = random.Random(18)
        for _ in range(20):
            n = rng.randrange(2, 9)
            m = rng.randrange(n - 1, n * (n - 1) // 2 + 1)
            g = random_connected(n, m, rng, gains=True)
            h = assemble_gain_matrix(g)
            x = tuple(F(rng.randrange(-12, 12), rng.randrange(1, 6)) for _ in range(n))
            assert recover_states(h, flows(h, x), g, x[0]) == x

    def test_cycle_perturbation_detected(self):
        g = Graph(3, [(1, 2), (2, 3), (1, 3)], gains={4: F(1), 5: F(1), 6: F(1)})
        h = assemble_gain_matrix(g)
        z = list(flows(h, (F(1), F(2), F(3))))
        z[3] += F(1, 2)  # corrupt one edge flow
        with pytest.raises(Inconsistent):
            recover_states(h, z, g, F(1))

    def test_disconnected_rejected(self):
        g = Graph(4, [(1, 2), (3, 4)], gains={5: F(1), 6: F(1)})
        h = assemble_gain_matrix(g)
        with pytest.raises(Disconnected):
            recover_states(h, [F(0)] * 6, g, F(0))

    def test_reference_only_shifts(self):
        g = random_connected(5, 6, random.Random(4), gains=True)
        h = assemble_gain_matrix(g)
        x = (F(1), F(5), F(-2), F(0), F(3))
        z = flows(h, x)
        moved = recover_states(h, z, g, F(10))
        assert tuple(v - F(9) for v in moved) == x


class TestRecoveryWalk:
    def test_empty_graph(self):
        assert recover_pairs(GainMatrix(n=0, t=0, gains=(), edges=()), [], Graph(0), (0, 1)) == ()

    def test_disconnected_before_dimension_errors(self):
        g = Graph(4, [(1, 2), (3, 4)], gains={5: F(1), 6: F(1)})
        h = assemble_gain_matrix(g)
        with pytest.raises(Disconnected, match="connected graph"):
            recover_pairs(h, [(0, 1)] * 2, g, (0, 1))  # the flow vector is 4 short too

    def test_walks_without_components(self, monkeypatch):
        import minorkit.graph

        def refuse(*args, **kwargs):
            raise AssertionError("recovery walks the graph once, without components()")

        monkeypatch.setattr(minorkit.graph, "components", refuse)
        g = random_connected(7, 11, random.Random(5), gains=True)
        h = assemble_gain_matrix(g)
        x = tuple(F(i, 3) for i in range(7))
        assert recover_states(h, flows(h, x), g, x[0]) == x


@given(st.integers(min_value=1, max_value=10), st.integers())
@settings(max_examples=40, deadline=None)
def test_row_builds_the_dense_row(n, seed):
    rng = random.Random(seed)
    g = random_connected(n, rng.randrange(n - 1, n * (n - 1) // 2 + 1), rng, gains=True)
    h = assemble_gain_matrix(g)
    dense = [[F(0)] * n for _ in range(h.t)]  # the matrix cell by cell, from the edge list
    for pos, ((u, v), b) in enumerate(zip(h.edges, h.gains)):
        for a, c in ((u, v), (v, u)):
            dense[a - 1][a - 1] += b
            dense[a - 1][c - 1] -= b
        dense[n + pos][u - 1], dense[n + pos][v - 1] = b, -b
    assert [h.row(i) for i in range(1, h.t + 1)] == [tuple(r) for r in dense] == list(h.rows)
    for bad in (0, h.t + 1):
        with pytest.raises(ValueError):
            h.row(bad)


PRIMES = tuple(p for p in range(2, 400) if all(p % q for q in range(2, int(p ** 0.5) + 1)))


@given(st.integers(min_value=2, max_value=10), st.integers())
@settings(max_examples=80, deadline=None)
def test_int_recovery_matches_fraction_reference(n, seed):
    """Distinct prime denominators in x and in the gains keep every lcm honest."""
    rng = random.Random(seed)
    m = rng.randrange(n - 1, n * (n - 1) // 2 + 1)
    edges = random_connected(n, m, rng).edges
    primes = list(PRIMES)
    rng.shuffle(primes)
    gains = {n + 1 + i: F(rng.randrange(1, 40), primes[n + i]) for i in range(m)}
    g = Graph(n, edges, gains=gains)
    h = assemble_gain_matrix(g)
    draws = (
        tuple(F(rng.randrange(-50, 51), primes[i]) for i in range(n)),
        tuple(F(rng.choice((0, 3, -7)), rng.choice((1, 5))) for _ in range(n)),  # many zero steps
    )
    for x in draws:
        z = flows(h, x)
        ref = rng.choice((x[0], F(2, 3)))
        assert recover_states(h, z, g, ref) == recover_states_fraction(h, z, g, ref)
        assert recover_states(h, z, g, x[0]) == x
        cyclic = [pos for pos, e in enumerate(g.edges) if not is_bridge(g, e)]
        if not cyclic:
            continue
        bad = list(z)
        bad[n + rng.choice(cyclic)] += F(1, primes[-1])
        with pytest.raises(Inconsistent) as fast:
            recover_states(h, bad, g, ref)
        with pytest.raises(Inconsistent) as slow:
            recover_states_fraction(h, bad, g, ref)
        assert str(fast.value) == str(slow.value)


@given(st.integers(min_value=2, max_value=9), st.integers())
@settings(max_examples=80, deadline=None)
def test_pair_recovery_on_unreduced_pairs_matches_fraction_reference(n, seed):
    """recover_pairs reads pairs scaled by random factors, (0, k) included, as their values."""
    rng = random.Random(seed)
    m = rng.randrange(n - 1, n * (n - 1) // 2 + 1)
    g = random_connected(n, m, rng, gains=True)
    h = assemble_gain_matrix(g)
    x = tuple(F(rng.choice((0, rng.randrange(-30, 31))), rng.randrange(1, 9)) for _ in range(n))
    z = list(flows(h, x))
    cyclic = [n + pos for pos, e in enumerate(g.edges) if not is_bridge(g, e)]
    if cyclic and rng.random() < 0.4:
        z[rng.choice(cyclic)] += F(1, rng.randrange(1, 9))

    def unreduced(v):
        k = rng.randrange(1, 7)
        return v.numerator * k, v.denominator * k

    ref = F(rng.randrange(-9, 10), rng.randrange(1, 6))
    try:
        slow = recover_states_fraction(h, z, g, ref)
    except Inconsistent as exc:
        with pytest.raises(Inconsistent) as fast:
            recover_pairs(h, [unreduced(v) for v in z], g, unreduced(ref))
        assert str(fast.value) == str(exc)
        return
    pairs = recover_pairs(h, [unreduced(v) for v in z], g, unreduced(ref))
    assert all(den > 0 for _, den in pairs)
    assert tuple(F(num, den) for num, den in pairs) == slow


class TestJson:
    def test_matrix_payload(self):
        h = assemble_gain_matrix(k2(F(3, 2)))
        blob = matrix_to_json(h)
        assert blob["t"] == 3 and blob["rows"][2] == ["3/2", "-3/2"]

    def test_vector_round_trip(self):
        vec = (F(1, 3), F(-2), F(0))
        assert vector_from_json(vector_to_json(vec)) == vec

    @pytest.mark.parametrize("obj", [{"values": "00000"}, {"values": ["1", True]}, ["1"], {}])
    def test_malformed_vector_rejected(self, obj):
        with pytest.raises(ParseError):
            vector_from_json(obj)


class TestFlowRecoveryIdentities:
    def test_flows_after_recovery_reproduce_the_flow_vector(self):
        rng = random.Random(77)
        for _ in range(15):
            n = rng.randrange(2, 9)
            m = rng.randrange(n - 1, n * (n - 1) // 2 + 1)
            g = random_connected(n, m, rng, gains=True)
            h = assemble_gain_matrix(g)
            x = tuple(F(rng.randrange(-15, 15), rng.randrange(1, 7)) for _ in range(n))
            z = flows(h, x)
            assert flows(h, recover_states(h, z, g, x[0])) == z


@given(st.integers(min_value=2, max_value=10), st.integers())
@settings(max_examples=60, deadline=None)
def test_sparse_engine_matches_dense_rows(n, seed):
    rng = random.Random(seed)
    m = rng.randrange(n - 1, n * (n - 1) // 2 + 1)
    h = assemble_gain_matrix(random_connected(n, m, rng, gains=True))
    rows = h.rows
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    draws = (
        tuple(F(rng.randrange(-20, 21), rng.randrange(1, 8)) for _ in range(n)),
        tuple(F(rng.randrange(-20, 21), p) for p in primes[:n]),  # distinct prime denominators
        tuple(rng.randrange(-20, 21) for _ in range(n)),  # plain ints
        tuple(F(rng.choice((0, 0, rng.randrange(-9, 10))), rng.randrange(1, 8)) for _ in range(n)),
    )
    for x in draws:
        assert h.multiply(x) == tuple(sum(c * xi for c, xi in zip(row, x)) for row in rows)
    assert matrix_to_json(h)["rows"] == [[fmt_ratio(c) for c in row] for row in rows]
    assert h.row_sums() == tuple(sum(row) for row in rows)


@given(
    st.integers(min_value=1, max_value=10),
    st.integers(),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=10, max_size=10),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_product_kernel_matches_dense_rows(n, seed, levels, flat):
    # any int state per vertex, ties and all-equal levels included, on coprime gain denominators
    rng = random.Random(seed)
    g = random_connected(n, rng.randrange(n - 1, n * (n - 1) // 2 + 1), rng)
    gains = {n + 1 + i: F(rng.randrange(1, 9), rng.choice((1, 2, 3, 5, 7))) for i in range(len(g.edges))}
    h = assemble_gain_matrix(Graph(n, g.edges, gains=gains))
    level = [levels[0]] * n if flat else levels[:n]
    entries = h._product(level)
    assert all(type(x) is int for pair in entries.values() for x in pair)
    assert all(den > 0 for _, den in entries.values())
    assert {i: F(num, den) for i, (num, den) in entries.items()} == dense_product(h.rows, level)
    if flat:
        assert entries == {}
