import random
from fractions import Fraction as F

import pytest

from minorkit import (
    AttackSpec,
    Graph,
    Infeasibility,
    assemble_gain_matrix,
    best_constructive_ratio,
    build_robust_stealth,
    build_stealth,
    build_stealth_colored,
    color_assignment,
    component_graph,
    enumerate_cycles,
    feasibility,
    flows,
    is_bridge,
    ratio_bound,
    recover_states,
    robust_attack_audit,
    robust_lambda_threshold,
    theta_bounds,
    theta_oracle,
    variation_limit_schedule,
    variation_ratio,
)
from minorkit.exceptions import (
    BadBounds,
    EmptyF,
    ImproperColoring,
    InfeasibleSpec,
    ScheduleStalled,
    TooLarge,
)

from helpers import random_connected, random_cut_targets, random_gain


def gained(g, rng=None, value=F(1)):
    rng = rng or random.Random(0)
    gains = {g.n + 1 + i: random_gain(rng) for i in range(len(g.edges))}
    return Graph(g.n, g.edges, gains=gains)


def cycle_graph(k, rng=None):
    edges = [(i, i + 1) for i in range(1, k)] + [(1, k)]
    g = Graph(k, edges)
    return gained(g, rng)


def triangle():
    return Graph(3, [(1, 2), (2, 3), (1, 3)], gains={4: F(1), 5: F(1), 6: F(1)})


class TestFeasibility:
    def test_triangle_single_edge_yields_witness(self):
        out = feasibility(triangle(), [(1, 2)])
        assert isinstance(out, Infeasibility)
        assert out.edge == (1, 2)
        assert len(out.cycle_edges) == 3 and len(out.cycle_edges & {(1, 2)}) == 1

    def test_bridge_is_feasible(self):
        g = Graph(3, [(1, 2), (2, 3)], gains={4: F(1), 5: F(1)})
        spec = feasibility(g, [(1, 2)])
        assert isinstance(spec, AttackSpec) and spec.k == 2

    def test_empty_targets_vacuously_feasible(self):
        spec = feasibility(triangle(), [])
        assert isinstance(spec, AttackSpec) and spec.k == 1

    def test_crossing_property_on_random_cuts(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randrange(3, 9)
            m = rng.randrange(n - 1, n * (n - 1) // 2 + 1)
            g = random_connected(n, m, rng)
            targets = random_cut_targets(g, rng)
            spec = feasibility(g, targets)
            assert isinstance(spec, AttackSpec)
            # an edge crosses components exactly when it is a target
            for u, v in g.edges:
                crosses = spec.comp_of[u] != spec.comp_of[v]
                assert crosses == ((u, v) in spec.targets)

    def test_matches_cycle_oracle_on_random_subsets(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randrange(3, 8)
            m = rng.randrange(n - 1, n * (n - 1) // 2 + 1)
            g = random_connected(n, m, rng)
            f_set = {e for e in g.edges if rng.random() < 0.45}
            if not f_set:
                continue
            verdict = isinstance(feasibility(g, f_set), AttackSpec)
            oracle = all(len(c & f_set) != 1 for c in enumerate_cycles(g))
            assert verdict == oracle
            if len(f_set) == 1:
                assert verdict == is_bridge(g, next(iter(f_set)))


class TestBuildStealth:
    def test_k2_hand_values(self):
        g = Graph(2, [(1, 2)], gains={3: F(1)})
        spec = feasibility(g, [(1, 2)])
        sv, av = build_stealth(spec, assemble_gain_matrix(g), F(1, 2))
        assert sv.values == (F(1), F(1, 2))
        assert av.values == (F(1, 2), F(-1, 2), F(1, 2))
        assert av.support == {1, 2, 3}

    def test_path_attack_touches_only_the_cut(self):
        g = Graph(3, [(1, 2), (2, 3)], gains={4: F(1), 5: F(1)})
        spec = feasibility(g, [(1, 2)])
        sv, av = build_stealth(spec, assemble_gain_matrix(g))
        assert sv.values[1] == sv.values[2]  # constant on the far component
        assert av.values[2] == 0 and av.values[4] == 0  # vertex 3 and edge (2,3)
        assert av.support == {1, 2, 4}

    def test_all_ones_vector_is_degenerate(self):
        g = cycle_graph(5)
        h = assemble_gain_matrix(g)
        assert all(v == 0 for v in h.multiply([F(1)] * g.n))

    def test_root_hint_is_dodged(self):
        # gains tuned so the default hint 1/2 zeroes the middle vertex's entry
        g = Graph(3, [(1, 2), (2, 3)], gains={4: F(1), 5: F(2)})
        spec = feasibility(g, g.edges)
        h = assemble_gain_matrix(g)
        a2_at_half = h.multiply((F(1), F(1, 2), F(1, 4)))[1]
        assert a2_at_half == 0
        sv, av = build_stealth(spec, h, F(1, 2))
        assert sv.lam == F(1, 4)  # first deterministic shrink
        assert av.support == spec.expected_support()

    def test_support_exact_on_random_cuts(self):
        rng = random.Random(37)
        for _ in range(25):
            n = rng.randrange(3, 9)
            m = rng.randrange(n - 1, n * (n - 1) // 2 + 1)
            g = random_connected(n, m, rng, gains=True)
            spec = feasibility(g, random_cut_targets(g, rng))
            sv, av = build_stealth(spec, assemble_gain_matrix(g))
            assert av.support == spec.expected_support()

    def test_infeasible_spec_refused(self):
        out = feasibility(triangle(), [(1, 2)])
        with pytest.raises(InfeasibleSpec):
            build_stealth(out, assemble_gain_matrix(triangle()))


class TestVariationRatio:
    def test_two_components_always_unit(self):
        g = Graph(4, [(1, 2), (2, 3), (3, 4)], gains={5: F(1), 6: F(1), 7: F(1)})
        spec = feasibility(g, [(2, 3)])
        sv, _ = build_stealth(spec, assemble_gain_matrix(g), F(7, 9))
        assert variation_ratio(sv) == 1

    def test_triangle_reference_value(self):
        spec = feasibility(triangle(), triangle().edges)
        h = assemble_gain_matrix(triangle())
        from minorkit.stealth import _build

        sv, _ = _build(spec, h, {1: 0, 2: 1, 3: 2}, F(9, 10))
        assert variation_ratio(sv) == F(19, 9)

    def test_never_below_one(self):
        rng = random.Random(43)
        for _ in range(15):
            n = rng.randrange(3, 8)
            g = random_connected(n, rng.randrange(n - 1, n * (n - 1) // 2 + 1), rng, gains=True)
            spec = feasibility(g, random_cut_targets(g, rng))
            sv, _ = build_stealth(spec, assemble_gain_matrix(g))
            assert variation_ratio(sv) >= 1

    def test_empty_targets_rejected(self):
        spec = feasibility(triangle(), [])
        h = assemble_gain_matrix(triangle())
        sv, _ = build_stealth(spec, h)
        with pytest.raises(EmptyF):
            variation_ratio(sv)


class TestSchedule:
    def test_component_cycle_converges_from_above(self):
        for k in (3, 4, 5):
            g = cycle_graph(k, random.Random(k))
            spec = feasibility(g, g.edges)
            h = assemble_gain_matrix(g)
            sv, ratio = variation_limit_schedule(spec, h, F(1, 100))
            assert abs(ratio - (k - 1)) <= F(1, 100)
            assert ratio <= ratio_bound(k, sv.lam)

    def test_two_components_finish_immediately(self):
        g = Graph(2, [(1, 2)], gains={3: F(4, 3)})
        spec = feasibility(g, [(1, 2)])
        sv, ratio = variation_limit_schedule(spec, assemble_gain_matrix(g), F(1, 100))
        assert ratio == 1 and sv.lam == F(1, 2)

    def test_three_component_path_crosses_the_target(self):
        # ratio 1/lambda sweeps down through c-1 = 2, hitting it exactly at 1/2
        g = Graph(3, [(1, 2), (2, 3)], gains={4: F(1), 5: F(1)})
        spec = feasibility(g, g.edges)
        sv, ratio = variation_limit_schedule(spec, assemble_gain_matrix(g), F(1, 100))
        assert ratio == 2 and sv.lam == F(1, 2)

    def test_path_structure_stalls(self):
        # four-component path: ratio is 1/lambda**2, which steps from 4 to 9/4
        # over the ladder and then sinks to 1, never within 1/100 of c-1 = 3
        g = Graph(4, [(1, 2), (2, 3), (3, 4)], gains={5: F(1), 6: F(1), 7: F(1)})
        spec = feasibility(g, g.edges)
        with pytest.raises(ScheduleStalled):
            variation_limit_schedule(spec, assemble_gain_matrix(g), F(1, 100), max_steps=300)

    def test_ratio_respects_per_lambda_bound(self):
        rng = random.Random(51)
        for _ in range(10):
            n = rng.randrange(3, 8)
            g = random_connected(n, rng.randrange(n - 1, n * (n - 1) // 2 + 1), rng, gains=True)
            spec = feasibility(g, random_cut_targets(g, rng))
            h = assemble_gain_matrix(g)
            lam, ratio = best_constructive_ratio(spec, h, steps=60)
            assert ratio <= ratio_bound(spec.k, lam)


class TestComponentGraphAndColoring:
    def test_bridge_gives_k2(self):
        g = Graph(3, [(1, 2), (2, 3)], gains={4: F(1), 5: F(1)})
        gc = component_graph(feasibility(g, [(1, 2)]))
        assert gc.n == 2 and gc.edges == ((1, 2),)

    def test_star_cut(self):
        g = Graph(4, [(1, 2), (1, 3), (1, 4)], gains={5: F(1), 6: F(1), 7: F(1)})
        gc = component_graph(feasibility(g, g.edges))
        assert gc.n == 4 and set(gc.edges) == {(1, 2), (1, 3), (1, 4)}

    def test_cycle_cut(self):
        g = cycle_graph(4)
        gc = component_graph(feasibility(g, g.edges))
        assert set(gc.edges) == {(1, 2), (2, 3), (3, 4), (1, 4)}

    def test_coloring_small_exact(self):
        assert color_assignment(Graph(2, [(1, 2)]))[1:] == (2, True)
        even = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
        assert color_assignment(even)[1:] == (2, True)
        odd = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        colors, c, exact = color_assignment(odd)
        assert (c, exact) == (3, True)
        assert all(colors[u] != colors[v] for u, v in odd.edges)

    def test_coloring_greedy_beyond_limit(self):
        edges = [(i, i + 1) for i in range(1, 14)]
        big = Graph(14, edges)
        colors, c, exact = color_assignment(big)
        assert not exact and c <= 3
        assert all(colors[u] != colors[v] for u, v in big.edges)

    def test_colors_never_exceed_component_count(self):
        rng = random.Random(61)
        for _ in range(15):
            n = rng.randrange(3, 9)
            g = random_connected(n, rng.randrange(n - 1, n * (n - 1) // 2 + 1), rng, gains=True)
            spec = feasibility(g, random_cut_targets(g, rng))
            _, c, _ = color_assignment(component_graph(spec))
            assert c <= spec.k


class TestColoredStealth:
    def test_even_cycle_reaches_unit_ratio(self):
        g = cycle_graph(4)
        spec = feasibility(g, g.edges)
        h = assemble_gain_matrix(g)
        colors, chi, _ = color_assignment(component_graph(spec))
        assert chi == 2
        sv, av = build_stealth_colored(spec, h, colors)
        assert set(sv.exponents.values()) <= {0, 1}
        assert variation_ratio(sv) == 1
        assert av.support == spec.expected_support()

    def test_identity_coloring_reduces_to_basic(self):
        g = cycle_graph(5)
        spec = feasibility(g, g.edges)
        h = assemble_gain_matrix(g)
        identity = {i: i for i in range(1, spec.k + 1)}
        sv_c, _ = build_stealth_colored(spec, h, identity, F(2, 5))
        sv_b, _ = build_stealth(spec, h, F(2, 5))
        assert sv_c.values == sv_b.values

    def test_odd_cycle_colored_limit(self):
        g = cycle_graph(5, random.Random(5))
        spec = feasibility(g, g.edges)
        h = assemble_gain_matrix(g)
        colors, chi, _ = color_assignment(component_graph(spec))
        assert chi == 3
        sv, ratio = variation_limit_schedule(spec, h, F(1, 100), colors=colors)
        assert abs(ratio - 2) <= F(1, 100)

    def test_improper_coloring_rejected(self):
        g = cycle_graph(4)
        spec = feasibility(g, g.edges)
        h = assemble_gain_matrix(g)
        with pytest.raises(ImproperColoring):
            build_stealth_colored(spec, h, {1: 1, 2: 1, 3: 2, 4: 2})

    def test_bipartite_colored_no_worse_than_basic(self):
        rng = random.Random(67)
        for k in (3, 4, 5):
            g = Graph(k + 1, [(i, k + 1) for i in range(1, k + 1)])
            g = gained(g, rng)
            spec = feasibility(g, g.edges)  # star cut: bipartite component graph
            h = assemble_gain_matrix(g)
            colors, chi, _ = color_assignment(component_graph(spec))
            assert chi == 2
            _, colored = best_constructive_ratio(spec, h, colors=colors)
            _, basic = best_constructive_ratio(spec, h)
            assert colored <= basic


class TestRobust:
    def test_threshold_formula(self):
        assert robust_lambda_threshold(3, F(1), F(2)) == 13
        assert robust_lambda_threshold(4, F(1), F(1)) == 9  # 2k+1 for equal bounds

    def test_triangle_cut_uses_the_formula_lambda(self):
        spec = feasibility(triangle(), triangle().edges)
        sv, threshold = build_robust_stealth(spec, triangle(), 1, 2)
        assert threshold == 13 and sv.lam == 13

    def test_sampled_audit_respects_the_floor(self):
        rng = random.Random(71)
        for _ in range(8):
            n = rng.randrange(3, 8)
            g = random_connected(n, min(n + 1, n * (n - 1) // 2), rng)
            spec = feasibility(g, random_cut_targets(g, rng))
            sv, _ = build_robust_stealth(spec, g, 1, 2)
            worst = robust_attack_audit(spec, sv, 1, 2, samples=40, seed=rng.randrange(999))
            assert worst >= F(1, 2)

    def test_high_degree_cancellation_forces_escalation(self):
        # vertex 21 sits between a heavy low-power side and one high-power edge;
        # gains inside [1,2] can cancel its entry at the closed-form lambda, so
        # the exact certificate must push lambda higher
        n = 22
        edges = [(i, i + 1) for i in range(1, 20)]  # component {1..20}
        edges += [(i, 21) for i in range(1, 21)] + [(21, 22)]
        g = Graph(n, edges)
        spec = feasibility(g, [(i, 21) for i in range(1, 21)] + [(21, 22)])
        assert spec.k == 3
        sv, threshold = build_robust_stealth(spec, g, 1, 2)
        assert threshold == 13
        assert sv.lam == 52  # 13 -> 26 -> 52 before the certificate holds
        worst = robust_attack_audit(spec, sv, 1, 2, samples=30, seed=3)
        assert worst >= F(1, 2)

    def test_bad_bounds(self):
        spec = feasibility(triangle(), triangle().edges)
        with pytest.raises(BadBounds):
            build_robust_stealth(spec, triangle(), 2, 1)
        with pytest.raises(BadBounds):
            build_robust_stealth(spec, triangle(), 0, 1)

    def test_audit_rejects_bad_bounds(self):
        spec = feasibility(triangle(), triangle().edges)
        sv, _ = build_robust_stealth(spec, triangle(), 1, 2)
        with pytest.raises(BadBounds):
            robust_attack_audit(spec, sv, 0, 1, samples=1, seed=0)


class TestThetaOracle:
    def test_single_bridge_is_unit(self):
        g = Graph(2, [(1, 2)], gains={3: F(1)})
        spec = feasibility(g, [(1, 2)])
        assert theta_oracle(spec, assemble_gain_matrix(g)) == 1

    def test_estimates_stay_in_band(self):
        rng = random.Random(83)
        for _ in range(10):
            n = rng.randrange(3, 8)
            g = random_connected(n, rng.randrange(n - 1, n * (n - 1) // 2 + 1), rng, gains=True)
            spec = feasibility(g, random_cut_targets(g, rng))
            if spec.k > 4:
                continue
            h = assemble_gain_matrix(g)
            est = theta_oracle(spec, h)
            _, chi, _ = color_assignment(component_graph(spec))
            assert 1 <= est <= F(chi - 1 if chi >= 2 else 1) + F(1, 20)

    def test_gate(self):
        g = cycle_graph(6)
        spec = feasibility(g, g.edges)
        with pytest.raises(TooLarge):
            theta_oracle(spec, assemble_gain_matrix(g))

    def test_bounds_report(self):
        g = cycle_graph(4)
        spec = feasibility(g, g.edges)
        rpt = theta_bounds(spec, assemble_gain_matrix(g))
        assert rpt["lower"] == 1 and rpt["chi"] == 2
        assert rpt["oracle"] <= rpt["constructive_colored"]
        assert rpt["oracle_within_colored_bound"]
        assert rpt["support_policy"] == "full-attack-support"


class TestStealthMeansConsistent:
    def test_corrupted_flows_recover_with_expected_jumps(self):
        rng = random.Random(91)
        for _ in range(10):
            n = rng.randrange(3, 8)
            m = rng.randrange(n - 1, n * (n - 1) // 2 + 1)
            g = random_connected(n, m, rng, gains=True)
            spec = feasibility(g, random_cut_targets(g, rng))
            h = assemble_gain_matrix(g)
            sv, av = build_stealth(spec, h)
            x = tuple(F(rng.randrange(-9, 9), rng.randrange(1, 4)) for _ in range(n))
            corrupted = tuple(z + a for z, a in zip(flows(h, x), av.values))
            xb = recover_states(h, corrupted, g, x[0])  # no Inconsistent: stealth
            for u, v in g.edges:
                jump = (xb[u - 1] - xb[v - 1]) - (x[u - 1] - x[v - 1])
                expected = sv.values[u - 1] - sv.values[v - 1]
                assert jump == expected
                assert (jump != 0) == ((u, v) in spec.targets)


class TestDegeneracyAtOne:
    def test_boundary_polynomials_vanish_at_lambda_one(self):
        from minorkit.stealth import _boundary_polys, _poly_value

        rng = random.Random(101)
        for _ in range(20):
            n = rng.randrange(3, 9)
            m = rng.randrange(n - 1, n * (n - 1) // 2 + 1)
            g = random_connected(n, m, rng, gains=True)
            spec = feasibility(g, random_cut_targets(g, rng))
            h = assemble_gain_matrix(g)
            exponents = {i: i - 1 for i in range(1, spec.k + 1)}
            for terms in _boundary_polys(spec, h).values():
                assert _poly_value(terms, F(1), exponents) == 0
