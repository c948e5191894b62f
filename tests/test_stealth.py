import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from minorkit import (
    AttackSpec,
    Graph,
    Infeasibility,
    StealthVector,
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

from helpers import (
    attack_fraction,
    certified_fraction,
    component_levels,
    count_fractions,
    dense_entries,
    dense_product,
    is_bridge,
    random_connected,
    random_cut_targets,
    random_gain,
    robust_attack_audit_fraction,
    root_trap_graph,
)


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


def unit_cycle(k):
    edges = [(i, i + 1) for i in range(1, k)] + [(1, k)]
    return Graph(k, edges, gains={k + 1 + i: F(1) for i in range(k)})


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

    def test_root_count_bounds_the_candidate_walk(self):
        # 23 boundary polynomials kill the first 21 candidates; one of 24 must be clean
        g, targets, candidates = root_trap_graph()
        spec = feasibility(g, targets)
        assert len(spec.boundary_vertices()) == 23
        sv, av = build_stealth(spec, assemble_gain_matrix(g))
        assert sv.lam == candidates[-1] * (1 - F(1, 73))
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
        from minorkit.stealth import _power_vectors, _root_free, _scaled_powers

        exponents = {1: 0, 2: 1, 3: 2}
        sv, _ = _power_vectors(spec, exponents, F(9, 10), _root_free(spec, h, _scaled_powers(9, 10, exponents)))
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


def best_labelling_ratio(k, pairs):
    """The least max/min jump |labels[i] - labels[j]| over the pairs, over every labelling
    of 1..k by 0..k-1 with no zero jump.  A (p, q)-colouring has p <= k colours, so these
    labels reach chi_c - 1.  Mirroring x -> k - 1 - x keeps every jump, so vertex 1 takes
    only the lower half of the labels."""
    ends = [(i - 1, j - 1) for i, j in pairs]
    top, low = None, None
    for labels in product(range((k + 1) // 2), *[range(k)] * (k - 1)):
        lo, hi = k, 0
        for i, j in ends:
            d = abs(labels[i] - labels[j])
            if d < lo:
                lo = d
            if d > hi:
                hi = d
        if lo and (top is None or hi * low < top * lo):
            top, low = hi, lo
    return F(top, low)


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
        g = cycle_graph(13)
        spec = feasibility(g, g.edges)
        with pytest.raises(TooLarge):
            theta_oracle(spec, assemble_gain_matrix(g))

    def test_bounds_keep_the_gate(self):
        g = cycle_graph(13)
        spec = feasibility(g, g.edges)
        with pytest.raises(TooLarge, match="value search gated at 12 components"):
            theta_bounds(spec, assemble_gain_matrix(g))

    def test_bounds_colour_the_component_graph_once(self, monkeypatch):
        # the oracle's Farey scan reads chi off the bracket's own colouring of G_F
        from minorkit import stealth

        calls = []
        for name in ("component_graph", "color_assignment"):
            def counted(*args, _name=name, _real=getattr(stealth, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(stealth, name, counted)
        g = unit_cycle(5)
        spec = feasibility(g, g.edges)
        h = assemble_gain_matrix(g)
        assert theta_bounds(spec, h)["oracle"] == F(3, 2)
        assert calls == ["component_graph", "color_assignment"]

    def test_bounds_report(self):
        g = cycle_graph(4)
        spec = feasibility(g, g.edges)
        rpt = theta_bounds(spec, assemble_gain_matrix(g))
        assert rpt["lower"] == 1 and rpt["chi"] == 2
        assert rpt["oracle"] <= rpt["constructive_colored"]
        assert rpt["oracle_within_colored_bound"]
        assert rpt["support_policy"] == "full-attack-support"

    def test_exact_hand_cases(self):
        # unit triangle: chi_c = 3, so theta = 2, but unit gains zero the middle
        # vertex's entry at every ratio-2 tuple such as (0, 1/2, 1): not attained
        g = triangle()
        spec = feasibility(g, g.edges)
        h = assemble_gain_matrix(g)
        assert theta_oracle(spec, h) == 2
        assert fraction_theta(spec, h.rows, 6) > 2
        # unit C5, every edge targeted: chi_c = 5/2; the (5, 2)-colouring
        # 0, 1, 2, 1/2, 3/2 perturbed by 1/1000 has full support at ratio 1501/999
        g = unit_cycle(5)
        spec = feasibility(g, g.edges)
        h = assemble_gain_matrix(g)
        assert theta_oracle(spec, h) == F(3, 2)
        eps = F(1, 1000)
        values = (F(0), 1 + eps, F(2), F(1, 2) - eps, F(3, 2))
        support = {i + 1 for i, a in enumerate(h.multiply(values)) if a != 0}
        assert support == spec.expected_support()
        sv = StealthVector(values=values, lam=F(1, 2), exponents={}, targets=spec.targets)
        assert variation_ratio(sv) == F(1501, 999)

    @pytest.mark.parametrize("k, theta", [(6, F(1)), (7, F(4, 3))], ids=["C6", "C7"])
    def test_cycles_past_five_components(self, k, theta):
        # every edge of the unit C_k targeted: chi_c is 2 for even k and 2 + 1/((k - 1)/2) for odd k
        g = unit_cycle(k)
        spec = feasibility(g, g.edges)
        assert theta_oracle(spec, assemble_gain_matrix(g)) == theta

    @given(hst.integers(min_value=2, max_value=5), hst.integers(min_value=1, max_value=2 ** 10 - 1))
    @settings(max_examples=100, deadline=None)
    def test_theta_is_best_integer_labelling(self, k, mask):
        # every edge targeted: the components are the k vertices, G_F is the graph
        pairs = [e for i, e in enumerate(combinations(range(1, k + 1), 2)) if mask >> i & 1]
        assume(pairs)
        g = gained(Graph(k, pairs), random.Random(mask))
        spec = feasibility(g, g.edges)
        assert theta_oracle(spec, assemble_gain_matrix(g)) == best_labelling_ratio(k, pairs)

    @given(hst.sets(hst.sampled_from(list(combinations(range(1, 7), 2))), min_size=1, max_size=7))
    @settings(max_examples=25, deadline=None)
    def test_theta_is_best_integer_labelling_at_six_components(self, pairs):
        # 6^6 labellings each: a few sparse component graphs, at most 7 of the 15 pairs
        pairs = sorted(pairs)
        g = gained(Graph(6, pairs), random.Random(len(pairs)))
        spec = feasibility(g, g.edges)
        assert theta_oracle(spec, assemble_gain_matrix(g)) == best_labelling_ratio(6, pairs)

    @pytest.mark.parametrize("pairs, theta", [
        ([(7, i) for i in range(1, 7)] + [(i, i % 6 + 1) for i in range(1, 7)], F(2)),
        ([(i, i % 5 + 1) for i in range(1, 6)] + [(5, 6), (6, 7)], F(3, 2)),
    ], ids=["wheel-W6", "C5-with-a-tail"])
    def test_seven_components_by_hand(self, pairs, theta):
        # the wheel's hub leaves its even rim an arc shorter than q when p/q < 3, so chi_c = 3;
        # a tail adds nothing to chi_c(C5) = 5/2.  Both are checked against all 7^7 labellings too
        g = gained(Graph(7, pairs), random.Random(7))
        spec = feasibility(g, g.edges)
        assert theta_oracle(spec, assemble_gain_matrix(g)) == theta == best_labelling_ratio(7, pairs)

    @pytest.mark.parametrize("gc, chi_c", [
        (Graph(7, [(i, i % 7 + 1) for i in range(1, 8)]), F(7, 3)),
        (Graph(10, [(i, i % 5 + 1) for i in range(1, 6)] + [(i, i + 5) for i in range(1, 6)]
               + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]), F(3)),
        (Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]), F(4)),
    ], ids=["C7", "Petersen", "K4"])
    def test_circular_colouring_backtracker(self, gc, chi_c):
        from minorkit.stealth import _try_color

        p, q = chi_c.numerator, chi_c.denominator
        colors = _try_color(gc, p, q)
        assert colors is not None and set(colors) == set(gc.vertices())
        assert all(1 <= c <= p for c in colors.values())
        assert all(q <= abs(colors[u] - colors[v]) <= p - q for u, v in gc.edges)
        below = {F(a, b) for a in range(1, gc.n + 1) for b in range(1, a + 1) if F(a, b) < chi_c}
        assert all(_try_color(gc, r.numerator, r.denominator) is None for r in below)


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
        # each boundary entry of H*s, a polynomial in lambda, has lambda = 1 as a root
        from minorkit.stealth import _root_free, _scaled_powers

        rng = random.Random(101)
        for _ in range(20):
            n = rng.randrange(3, 9)
            m = rng.randrange(n - 1, n * (n - 1) // 2 + 1)
            g = random_connected(n, m, rng, gains=True)
            spec = feasibility(g, random_cut_targets(g, rng))
            h = assemble_gain_matrix(g)
            exponents = {i: i - 1 for i in range(1, spec.k + 1)}
            assert not any(dense_entries(spec, h.rows, dict.fromkeys(exponents, F(1))).values())
            value = _scaled_powers(1, 1, exponents)
            assert h._product(component_levels(spec, value)) == {}
            assert _root_free(spec, h, value) is None


# -- integer fast paths against the Fraction formulas they replace ---------------------


def fraction_ladder(spec, rows, exponents, steps):
    out = []
    pairs = set(spec.crossing.values())
    for q in range(1, steps + 1):
        lam = F(q, q + 1)
        values = {c: lam ** e for c, e in exponents.items()}
        if any(a == 0 for a in dense_entries(spec, rows, values).values()):
            continue
        jumps = [abs(values[i] - values[j]) for i, j in pairs]
        out.append((lam, max(jumps) / min(jumps)))
    return out


def fraction_theta(spec, rows, grid):
    """Best full-support ratio found by both ladders and every grid tuple: an
    upper bound on theta, searched in plain Fractions."""
    colors, _, _ = color_assignment(component_graph(spec))
    k = spec.k
    found = [
        r
        for expmap in ({i: i - 1 for i in range(1, k + 1)}, {i: colors[i] - 1 for i in range(1, k + 1)})
        for _, r in fraction_ladder(spec, rows, expmap, 199)
    ]
    pairs = set(spec.crossing.values())
    for combo in product([F(j, grid) for j in range(grid + 1)], repeat=k - 1):
        values = {1: F(0), **{i + 2: v for i, v in enumerate(combo)}}
        jumps = [abs(values[i] - values[j]) for i, j in pairs]
        if min(jumps) == 0 or any(a == 0 for a in dense_entries(spec, rows, values).values()):
            continue
        found.append(max(jumps) / min(jumps))
    return min(found)


def spec_and_exponent_maps(n, seed):
    rng = random.Random(seed)
    g = random_connected(n, rng.randrange(n - 1, n * (n - 1) // 2 + 1), rng, gains=True)
    spec = feasibility(g, random_cut_targets(g, rng))
    colors, _, _ = color_assignment(component_graph(spec))
    basic = {i: i - 1 for i in range(1, spec.k + 1)}
    colored = {i: colors[i] - 1 for i in range(1, spec.k + 1)}
    return spec, assemble_gain_matrix(g), (basic, colored)


class TestIntegerFastPaths:
    @given(
        hst.integers(min_value=3, max_value=9),
        hst.integers(),
        hst.fractions(min_value=0, max_value=1, max_denominator=40).filter(lambda x: 0 < x < 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_root_verdicts_ladders_and_ratios(self, n, seed, lam):
        from minorkit.stealth import _ladder, _root_free, _scaled_powers, _stealth_values

        spec, h, expmaps = spec_and_exponent_maps(n, seed)
        rows = h.rows
        for exponents in expmaps:
            stealth = _stealth_values(spec, lam, exponents)
            value = _scaled_powers(lam.numerator, lam.denominator, exponents)
            entries = h._product(component_levels(spec, value))
            assert all(type(x) is int for pair in entries.values() for x in pair)
            dense = dense_entries(spec, rows, {c: lam ** e for c, e in exponents.items()})
            for l in spec.boundary_vertices():
                assert (l in entries) == (dense[l] != 0)
            assert (_root_free(spec, h, value) is not None) == all(dense.values())
            # each entry is the true one times S = q**top
            scale = lam.denominator ** max(exponents.values())
            assert {i: F(num, den * scale) for i, (num, den) in entries.items()} == dense_product(rows, stealth)
            kept = [
                (F(q, q + 1), F(top, low))
                for q, top, low in _ladder(spec, exponents, 30)
                if _root_free(spec, h, _scaled_powers(q, q + 1, exponents)) is not None
            ]
            assert kept == fraction_ladder(spec, rows, exponents, 30)
            sv = StealthVector(values=stealth, lam=lam, exponents=exponents, targets=spec.targets)
            jumps = [abs(stealth[u - 1] - stealth[v - 1]) for u, v in spec.targets]
            assert variation_ratio(sv) == max(jumps) / min(jumps)

        # any values, not just powers of one lambda: coprime denominators and ties
        rng = random.Random(seed)
        values = tuple(F(rng.randrange(-6, 7), rng.choice((1, 2, 3, 5, 7))) for _ in range(n))
        sv = StealthVector(values=values, lam=lam, exponents=expmaps[0], targets=spec.targets)
        jumps = [abs(values[u - 1] - values[v - 1]) for u, v in spec.targets]
        if min(jumps) == 0:
            with pytest.raises(EmptyF):
                variation_ratio(sv)
        else:
            assert variation_ratio(sv) == max(jumps) / min(jumps)

    @given(
        hst.integers(min_value=2, max_value=9),
        hst.integers(),
        hst.lists(hst.integers(min_value=-3, max_value=3), min_size=9, max_size=9),
    )
    @settings(max_examples=80, deadline=None)
    def test_entries_are_the_nonzero_entries_of_the_product(self, n, seed, levels):
        # arbitrary int values per component, ties included, on coprime gain denominators
        from minorkit.stealth import _root_free

        rng = random.Random(seed)
        g = random_connected(n, rng.randrange(n - 1, n * (n - 1) // 2 + 1), rng)
        gains = {n + 1 + i: F(rng.randrange(1, 9), rng.choice((1, 2, 3, 5, 7))) for i in range(len(g.edges))}
        g = Graph(n, g.edges, gains=gains)
        spec = feasibility(g, random_cut_targets(g, rng))
        h = assemble_gain_matrix(g)
        value = {c: levels[c - 1] for c in range(1, spec.k + 1)}
        entries = h._product(component_levels(spec, value))
        assert all(den > 0 for _, den in entries.values())
        product = dense_product(h.rows, component_levels(spec, value))
        assert {i: F(num, den) for i, (num, den) in entries.items()} == product
        dense = dense_entries(spec, h.rows, {c: F(x) for c, x in value.items()})
        assert (_root_free(spec, h, value) is not None) == all(dense.values())

    def test_build_rejects_a_target_between_equal_values(self):
        # components 1 and 2 share exponent 0 across the target (1,2): its entry is 0
        from minorkit.stealth import _build, _scaled_powers

        g = Graph(3, [(1, 2), (2, 3)], gains={4: F(1), 5: F(2, 3)})
        spec = feasibility(g, g.edges)
        exponents = {1: 0, 2: 0, 3: 1}
        entries = assemble_gain_matrix(g)._product(component_levels(spec, _scaled_powers(1, 2, exponents)))
        assert 4 not in entries and 5 in entries
        with pytest.raises(AssertionError, match="deviates from"):
            _build(spec, 2, entries)  # S = 2**1 for lambda = 1/2 and top exponent 1

    def test_root_verdicts_at_known_roots(self):
        # each candidate zeroes the boundary entry of exactly one path vertex
        from minorkit.stealth import _scaled_powers

        g, targets, candidates = root_trap_graph()
        spec = feasibility(g, targets)
        h = assemble_gain_matrix(g)
        rows = h.rows
        boundary = set(spec.boundary_vertices())
        exponents = {i: i - 1 for i in range(1, spec.k + 1)}
        for lam in candidates:
            entries = h._product(component_levels(spec, _scaled_powers(lam.numerator, lam.denominator, exponents)))
            zero = boundary - entries.keys()
            assert len(zero) == 1
            dense = dense_entries(spec, rows, {c: lam ** e for c, e in exponents.items()})
            assert zero == {l for l, a in dense.items() if a == 0}

    @given(hst.integers(min_value=3, max_value=7), hst.integers())
    @settings(max_examples=25, deadline=None)
    def test_theta_below_fraction_grid_search(self, n, seed):
        spec, h, _ = spec_and_exponent_maps(n, seed)
        assume(spec.k <= 5)
        assert theta_oracle(spec, h) <= fraction_theta(spec, h.rows, 6)


# -- the int attack path against the Fraction path it replaced -----------------------------


class TestIntAttackPath:
    @given(
        hst.integers(min_value=3, max_value=9),
        hst.integers(),
        hst.fractions(min_value=0, max_value=1, max_denominator=40).filter(lambda x: 0 < x < 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_lazy_values_and_pair_text_match_the_fraction_build(self, n, seed, lam):
        from minorkit.cli import _attack_text
        from minorkit.stealth import _power_vectors, _root_free, _scaled_powers

        spec, h, expmaps = spec_and_exponent_maps(n, seed)
        for exponents in expmaps:
            entries = _root_free(spec, h, _scaled_powers(lam.numerator, lam.denominator, exponents))
            if entries is None:  # lambda is a root for this map: nothing to build
                continue
            values, support, text = attack_fraction(spec, exponents, lam, entries)
            _, av = _power_vectors(spec, exponents, lam, entries)
            assert all(type(x) is int for pair in av.entries.values() for x in pair)
            assert "values" not in vars(av)  # no Fraction until values is read
            assert _attack_text(av) == text
            assert "values" not in vars(av)
            assert av.t == spec.graph.t and av.support == support == frozenset(av.entries)
            assert av.values == values
            assert av.values is av.values  # built once

    @given(
        hst.integers(min_value=3, max_value=9),
        hst.integers(),
        hst.fractions(min_value=0, max_value=1, max_denominator=40).filter(lambda x: 0 < x < 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_int_jump_ratio_is_the_variation_ratio(self, n, seed, lam):
        from minorkit.stealth import _jump_range, _scaled_powers, _stealth_values

        spec, _, expmaps = spec_and_exponent_maps(n, seed)
        for exponents in expmaps:  # basic and coloured
            sv = StealthVector(
                values=_stealth_values(spec, lam, exponents), lam=lam, exponents=exponents, targets=spec.targets
            )
            value = _scaled_powers(lam.numerator, lam.denominator, exponents)
            assert F(*_jump_range(value, spec.crossing.values())) == variation_ratio(sv)

        # any int component values over a common factor S, not only lambda powers
        rng = random.Random(seed)
        value = {c: rng.randrange(-40, 41) for c in range(1, spec.k + 1)}
        scale = rng.randrange(1, 30)
        values = tuple(F(value[spec.comp_of[v]], scale) for v in spec.graph.vertices())
        sv = StealthVector(values=values, lam=lam, exponents=expmaps[0], targets=spec.targets)
        top, low = _jump_range(value, spec.crossing.values())
        if low == 0:
            with pytest.raises(EmptyF):
                variation_ratio(sv)
        else:
            assert F(top, low) == variation_ratio(sv)

    @given(
        hst.integers(min_value=3, max_value=9),
        hst.integers(),
        hst.fractions(min_value=0, max_value=1, max_denominator=40).filter(lambda x: 0 < x < 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_stealth_attack_reports_the_variation_ratio(self, n, seed, lam):
        from minorkit.stealth import _stealth_attack

        spec, h, _ = spec_and_exponent_maps(n, seed)
        assume(spec.targets)
        colors, _, _ = color_assignment(component_graph(spec))
        for picked, built in ((None, build_stealth(spec, h, lam)), (colors, build_stealth_colored(spec, h, colors, lam))):
            sv, av, ratio = _stealth_attack(spec, h, picked, lam)
            assert (sv.lam, sv.values, sv.exponents) == (built[0].lam, built[0].values, built[0].exponents)
            assert av.entries == built[1].entries and av.support == built[1].support
            assert ratio == variation_ratio(sv)


# -- ranked ladders and the int-mass audit against their Fraction references ------------


def ladder_trap_graph(steps: int, roots: int):
    """Gains that make the `roots` best-ranked basic ladder steps roots.

    Removing the targets leaves the components {1}, the path 2..roots+1 and
    {roots+2}, with exponents 0, 1 and 2.  The jumps are 1 - lam and
    lam (1 - lam), so the ratio 1/lam ranks the steps q = steps, steps - 1, ...
    Path vertex l joins both ends by target edges with gains q and q + 1 for
    q = steps + 2 - l, so its boundary polynomial (lam - 1)(q - (q + 1) lam)
    has lambda_q = q/(q+1) as its root.
    """
    far = roots + 2
    path = [(l, l + 1) for l in range(2, roots + 1)]
    ends = [(1, l) for l in range(2, far)] + [(l, far) for l in range(2, far)]
    gains = [F(1)] * len(path)
    gains += [F(steps + 2 - l) for l in range(2, far)] + [F(steps + 3 - l) for l in range(2, far)]
    edges = path + ends
    return Graph(far, edges, gains={far + 1 + i: b for i, b in enumerate(gains)}), ends


def counted_root_tests(monkeypatch):
    """A one-item list that counts every ladder root test from now on."""
    from minorkit import stealth

    tests = [0]
    root_free = stealth._root_free

    def counted(*args):
        tests[0] += 1
        return root_free(*args)

    monkeypatch.setattr(stealth, "_root_free", counted)
    return tests


class TestRankedLadders:
    @given(
        hst.integers(min_value=3, max_value=8),
        hst.integers(),
        hst.integers(min_value=1, max_value=25),
        hst.fractions(min_value=0, max_value=2, max_denominator=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_picks_match_the_fraction_ladder(self, n, seed, steps, gap):
        spec, h, (basic, colored) = spec_and_exponent_maps(n, seed)
        for colors, exponents in ((None, basic), ({i: e + 1 for i, e in colored.items()}, colored)):
            ladder = fraction_ladder(spec, h.rows, exponents, steps)
            if ladder:
                # least ratio, ties to the smallest q (lambda_q grows with q)
                best = min(ladder, key=lambda pair: (pair[1], pair[0]))
                assert best_constructive_ratio(spec, h, colors=colors, steps=steps) == best
            else:
                with pytest.raises(AssertionError):
                    best_constructive_ratio(spec, h, colors=colors, steps=steps)
            c = len(set(exponents.values()))
            target = c - 1 if c >= 2 else 1
            first = next(((lam, r) for lam, r in ladder if abs(r - target) <= gap), None)
            if first is None:
                with pytest.raises(ScheduleStalled):
                    variation_limit_schedule(spec, h, gap, colors=colors, max_steps=steps)
            else:
                sv, ratio = variation_limit_schedule(spec, h, gap, colors=colors, max_steps=steps)
                assert (sv.lam, ratio) == first

    def test_ranked_roots_are_skipped_in_order(self, monkeypatch):
        steps, roots = 30, 6
        g, targets = ladder_trap_graph(steps, roots)
        spec = feasibility(g, targets)
        h = assemble_gain_matrix(g)
        assert spec.k == 3 and len(spec.boundary_vertices()) == roots + 2
        ladder = fraction_ladder(spec, h.rows, {1: 0, 2: 1, 3: 2}, steps)
        assert [lam.numerator for lam, _ in ladder] == list(range(1, steps - roots + 1))
        tests = counted_root_tests(monkeypatch)
        lam, ratio = best_constructive_ratio(spec, h, steps=steps)
        assert (lam, ratio) == (F(steps - roots, steps - roots + 1), F(steps - roots + 1, steps - roots))
        assert tests == [roots + 1]

    def test_root_tests_bounded_by_the_polynomials(self, monkeypatch):
        # each boundary vertex's entry is a polynomial in lambda with at most one root in (0, 1)
        tests = counted_root_tests(monkeypatch)
        rng = random.Random(83)
        for _ in range(25):
            n = rng.randrange(3, 10)
            g = random_connected(n, rng.randrange(n - 1, n * (n - 1) // 2 + 1), rng, gains=True)
            spec = feasibility(g, random_cut_targets(g, rng))
            h = assemble_gain_matrix(g)
            colors, _, _ = color_assignment(component_graph(spec))
            for c in (None, colors):
                tests[0] = 0
                best_constructive_ratio(spec, h, colors=c)
                assert 1 <= tests[0] <= len(spec.boundary_vertices()) + 1


def path_spec():
    """The path 1-2-3-4-5 cut at (2,3): boundary 2 and 3, required zeros 1, 4, 5 and two edges."""
    g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)], gains={6: F(1), 7: F(1), 8: F(1), 9: F(1)})
    return g, feasibility(g, [(2, 3)])


class TestIntAudit:
    @given(
        hst.integers(min_value=3, max_value=9),
        hst.integers(),
        hst.fractions(min_value=0, max_value=3, max_denominator=12).filter(lambda x: x > 0),
        hst.fractions(min_value=1, max_value=4, max_denominator=9),
        hst.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_worst_as_the_fraction_audit(self, n, seed, eps1, widen, samples):
        spec, h, _ = spec_and_exponent_maps(n, seed)
        eps2 = eps1 * widen
        robust, _ = build_robust_stealth(spec, spec.graph, eps1, eps2)
        powers, _ = build_stealth(spec, h)  # lambda <= 1/2: non-integer values
        for sv in (robust, powers):
            got = robust_attack_audit(spec, sv, eps1, eps2, samples=samples, seed=seed)
            assert got == robust_attack_audit_fraction(spec, sv, eps1, eps2, samples, seed)
        assert robust_attack_audit(spec, robust, eps1, eps2, samples, seed) >= eps1 / 2

    @given(
        hst.integers(min_value=3, max_value=9),
        hst.integers(),
        hst.integers(min_value=1, max_value=200),
        hst.fractions(min_value=0, max_value=3, max_denominator=12).filter(lambda x: x > 0),
        hst.fractions(min_value=1, max_value=4, max_denominator=9),
    )
    @settings(max_examples=80, deadline=None)
    def test_int_certificate_matches_the_fraction_one(self, n, seed, lam, eps1, widen):
        from minorkit.stealth import _certified

        spec, _, _ = spec_and_exponent_maps(n, seed)
        eps2 = eps1 * widen
        assert _certified(spec, lam, eps1, eps2) == certified_fraction(spec, F(lam), eps1, eps2)

    @pytest.mark.parametrize("eps", [(1, 2), (F(1, 3), F(5, 7)), (2, 9), (F(3, 2), 3)])
    def test_escalated_lambda_matches_the_fraction_certificate(self, eps):
        # the high-degree hub of TestRobust, whose certificate needs doublings
        edges = [(i, i + 1) for i in range(1, 20)] + [(i, 21) for i in range(1, 21)] + [(21, 22)]
        g = Graph(22, edges)
        spec = feasibility(g, [(i, 21) for i in range(1, 21)] + [(21, 22)])
        eps1, eps2 = F(eps[0]), F(eps[1])
        lam = threshold = robust_lambda_threshold(spec.k, eps1, eps2)
        while not certified_fraction(spec, F(lam), eps1, eps2):
            lam *= 2
        sv, _ = build_robust_stealth(spec, g, eps1, eps2)
        assert sv.lam == lam > threshold

    def test_coprime_bound_denominators(self):
        g = cycle_graph(6)
        spec = feasibility(g, [(1, 2), (3, 4), (5, 6)])
        eps1, eps2 = F(1, 3), F(5, 7)
        sv, _ = build_robust_stealth(spec, g, eps1, eps2)
        got = robust_attack_audit(spec, sv, eps1, eps2, samples=25, seed=9)
        assert got == robust_attack_audit_fraction(spec, sv, eps1, eps2, 25, 9)
        assert got >= eps1 / 2
        assert (21 * 64) % got.denominator == 0  # on D = lcm(3, 7) * 64, with S = 1

    def test_non_integer_stealth_values(self):
        g, spec = path_spec()
        for values in (
            (F(2, 3), F(2, 3), F(-5, 7), F(-5, 7), F(-5, 7)),
            (F(1, 6), F(1, 6), F(11, 10), F(11, 10), F(11, 10)),
        ):
            sv = StealthVector(values=values, lam=F(1, 2), exponents={1: 0, 2: 1}, targets=spec.targets)
            for eps1, eps2 in ((F(1), F(2)), (F(1, 3), F(5, 7))):
                got = robust_attack_audit(spec, sv, eps1, eps2, samples=12, seed=4)
                assert got == robust_attack_audit_fraction(spec, sv, eps1, eps2, 12, 4)
                assert got > 0

    @pytest.mark.parametrize(
        "values",
        [
            (F(1, 2), F(1, 3), F(3, 4), F(3, 4), F(3, 4)),  # vertex 1 and edge (1,2) nonzero
            (F(1, 3), F(1, 3), F(3, 4), F(3, 4), F(5, 4)),  # vertices 4, 5 and edge (4,5)
            (F(1, 3), F(1, 3), F(3, 4), F(2, 5), F(2, 5)),  # vertex 4 cancels only for some gains
        ],
    )
    def test_planted_required_zero_entry(self, values):
        g, spec = path_spec()
        sv = StealthVector(values=values, lam=F(1, 2), exponents={1: 0, 2: 1}, targets=spec.targets)
        for eps1, eps2 in ((F(1), F(2)), (F(1, 3), F(5, 7))):
            with pytest.raises(AssertionError) as ref:
                robust_attack_audit_fraction(spec, sv, eps1, eps2, 5, 1)
            with pytest.raises(AssertionError) as got:
                robust_attack_audit(spec, sv, eps1, eps2, samples=5, seed=1)
            assert str(got.value) == str(ref.value)
            assert str(got.value).startswith("required-zero entry ")

    def test_fraction_count_does_not_grow_with_samples(self, monkeypatch):
        rng = random.Random(29)
        g = random_connected(30, 60, rng, gains=True)
        spec = feasibility(g, random_cut_targets(g, rng))
        eps1, eps2 = F(1, 3), F(5, 7)
        sv, _ = build_robust_stealth(spec, g, eps1, eps2)
        made = count_fractions(monkeypatch)
        counts = []
        for samples in (1, 10, 40):
            made[0] = 0
            robust_attack_audit(spec, sv, eps1, eps2, samples=samples, seed=2)
            counts.append(made[0])
        # the two bounds as Fractions and the result
        assert counts == [3, 3, 3]
