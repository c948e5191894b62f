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
    DimensionMismatch,
    Disconnected,
    Inconsistent,
    MissingGain,
)
from minorkit.ratio import fmt_ratio

from helpers import random_connected


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


class TestJson:
    def test_matrix_payload(self):
        h = assemble_gain_matrix(k2(F(3, 2)))
        blob = matrix_to_json(h)
        assert blob["t"] == 3 and blob["rows"][2] == ["3/2", "-3/2"]

    def test_vector_round_trip(self):
        vec = (F(1, 3), F(-2), F(0))
        assert vector_from_json(vector_to_json(vec)) == vec


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
    x = tuple(F(rng.randrange(-20, 21), rng.randrange(1, 8)) for _ in range(n))
    assert h.multiply(x) == tuple(sum(c * xi for c, xi in zip(row, x)) for row in h.rows)
    assert matrix_to_json(h)["rows"] == [[fmt_ratio(c) for c in row] for row in h.rows]
    assert h.row_sums() == tuple(sum(row) for row in h.rows)
