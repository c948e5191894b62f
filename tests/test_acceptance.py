"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import random
from fractions import Fraction as F

import networkx as nx

from minorkit import (
    AttackSpec,
    Contract,
    Graph,
    apply_edits,
    assemble_gain_matrix,
    boundary_covered,
    build_from_edit_sequence,
    build_robust_stealth,
    build_stealth,
    build_threshold_rep,
    build_tree_rep,
    color_assignment,
    component_graph,
    enumerate_cycles,
    exposed_witness,
    feasibility,
    flows,
    ratio_bound,
    recover_states,
    robust_attack_audit,
    theta_oracle,
    threshold_graph,
    tree_pipeline,
    variation_limit_schedule,
    verify_c1,
    verify_c2,
)
from minorkit.stealth import _boundary_polys

from helpers import (
    is_bridge,
    poly_value,
    random_connected,
    random_cut_targets,
    random_gain,
    random_rep,
    random_tree,
    sampled_uncovered_point,
)


def report(num: int, label: str, failures: list) -> None:
    verdict = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(f"ACCEPTANCE {num:02d} {verdict} - {label}")
    assert not failures, failures[:5]


def strong_ok(g, rep) -> bool:
    return verify_c1(g, rep).ok and verify_c2(g, rep).ok


def test_01_coverage_checker_vs_sampling_oracle():
    rng = random.Random(2024)
    failures = []
    for case in range(1000):
        dim = rng.randrange(1, 4)
        rep = random_rep(rng, dim, rng.randrange(2, 11))
        for v in rep.vertices():
            covered = boundary_covered(v, rep)
            sampled = sampled_uncovered_point(rep, v)
            if sampled is not None and covered:
                failures.append((case, v, "sampler found a hole the checker missed"))
            if not covered:
                w = exposed_witness(v, rep)
                if w is None:
                    failures.append((case, v, "checker could not produce its point"))
                elif any(b.contains(w.point) for u, b in rep.boxes.items() if u != v):
                    failures.append((case, v, "checker's point is not exclusive"))
    report(1, "exact coverage checker vs dense sampling oracle, 1000 configs", failures)


def test_02_trees_get_planar_strong_representations():
    rng = random.Random(7)
    failures = []
    for case in range(200):
        n = rng.randrange(3, 51)
        t = random_tree(n, rng)
        rep = build_tree_rep(t)
        if rep.dim != 2 or not strong_ok(t, rep):
            failures.append((case, n))
    report(2, "200 random trees, dimension 2, full verification", failures)


def test_03_threshold_graphs_get_planar_strong_representations():
    rng = random.Random(31)
    cases = [(4, (3, 2))]  # the reference clique-4, sizes (3,2) instance
    while len(cases) < 100:
        n_clique = rng.randrange(1, 9)
        r = rng.randrange(0, 7)
        sizes = tuple(sorted((rng.randrange(1, n_clique + 1) for _ in range(r)), reverse=True))
        if n_clique + r >= 2:
            cases.append((n_clique, sizes))
    failures = []
    for case, (n_clique, sizes) in enumerate(cases):
        g = threshold_graph(n_clique, sizes)
        rep = build_threshold_rep(n_clique, sizes)
        if rep.dim != 2 or not strong_ok(g, rep):
            failures.append((case, n_clique, sizes))
    report(3, "100 threshold parameter sets, dimension 2, full verification", failures)


def test_04_spanning_tree_pipeline_hits_its_dimension_budget():
    rng = random.Random(44)
    failures = []
    for case in range(100):
        n = rng.randrange(4, 13)
        r = rng.randrange(0, min(6, n * (n - 1) // 2 - n) + 1)
        g = random_connected(n, n + r, rng)
        _, trace = tree_pipeline(g)
        rep = trace.final
        if rep.dim != 2 + (r + 1) or not strong_ok(g, rep):
            failures.append((case, n, r, rep.dim))
    report(4, "100 spanning-tree pipelines, dimension exactly r+3, verified", failures)


def test_05_uncontraction_lift_costs_two_dimensions():
    rng = random.Random(55)
    failures = []
    done = 0
    while done < 100:
        n = rng.randrange(4, 11)
        m = rng.randrange(n - 1, min(n + 3, n * (n - 1) // 2) + 1)
        g = random_connected(n, m, rng)
        u, v = g.edges[rng.randrange(len(g.edges))]
        seq = apply_edits(g, [Contract(u, v)])
        if seq.base.n < 3:
            continue
        _, base_trace = tree_pipeline(seq.base)
        base_rep = base_trace.final
        trace = build_from_edit_sequence(g, seq, base_rep)
        if trace.final.dim != base_rep.dim + 2 or not strong_ok(g, trace.final):
            failures.append((done, n, m, (u, v)))
        done += 1
    report(5, "100 uncontraction lifts, dimension base+2, verified", failures)


def _atlas_connected_up_to_6():
    graphs = []
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if 2 <= n <= 6 and nx.is_connected(G):
            relabel = {node: i + 1 for i, node in enumerate(sorted(G.nodes()))}
            graphs.append(Graph(n, [(relabel[u], relabel[v]) for u, v in G.edges()]))
    return graphs


def test_06_feasibility_matches_cycle_oracle_and_bridges():
    failures = []
    for g in _atlas_connected_up_to_6():
        cycles = enumerate_cycles(g)
        for size in range(1, min(4, len(g.edges)) + 1):
            for fs in itertools.combinations(g.edges, size):
                f_set = set(fs)
                verdict = isinstance(feasibility(g, f_set), AttackSpec)
                oracle = all(len(c & f_set) != 1 for c in cycles)
                if verdict != oracle:
                    failures.append((g.edges, fs, "cycle oracle"))
                if size == 1 and verdict != is_bridge(g, fs[0]):
                    failures.append((g.edges, fs, "bridge"))
    rng = random.Random(66)
    for _ in range(500):
        n = rng.randrange(3, 9)
        m = rng.randrange(n - 1, n * (n - 1) // 2 + 1)
        g = random_connected(n, m, rng)
        f_set = {e for e in g.edges if rng.random() < 0.4} or {g.edges[0]}
        verdict = isinstance(feasibility(g, f_set), AttackSpec)
        oracle = all(len(c & f_set) != 1 for c in enumerate_cycles(g))
        if verdict != oracle:
            failures.append((g.edges, tuple(f_set), "random case"))
    report(6, "feasibility == cycle oracle (exhaustive n<=6 + 500 random), == bridge test", failures)


def test_07_attack_support_is_exact():
    rng = random.Random(37)
    failures = []
    for case in range(200):
        n = rng.randrange(3, 9)
        m = rng.randrange(n - 1, n * (n - 1) // 2 + 1)
        g = random_connected(n, m, rng, gains=True)
        spec = feasibility(g, random_cut_targets(g, rng))
        h = assemble_gain_matrix(g)
        sv, av = build_stealth(spec, h)
        expected = spec.expected_support()
        zeros_exact = all(av.values[i - 1] == 0 for i in range(1, g.t + 1) if i not in expected)
        if av.support != expected or not zeros_exact:
            failures.append((case, sorted(av.support), sorted(expected)))
    report(7, "200 stealth builds, attack support exactly targets + boundary vertices", failures)


def _cycle_flow_graph(k: int, rng: random.Random) -> Graph:
    edges = [(i, i + 1) for i in range(1, k)] + [(1, k)]
    gains = {k + 1 + i: random_gain(rng) for i in range(len(edges))}
    return Graph(k, edges, gains=gains)


def test_08_variation_ratio_bounds_and_limits():
    rng = random.Random(70)
    gap = F(1, 100)
    failures = []

    # k = 2: a bridge target finishes at ratio exactly 1 on the first lambda
    bridge = Graph(4, [(1, 2), (2, 3), (3, 4)], gains={5: F(1), 6: F(3, 2), 7: F(2)})
    spec2 = feasibility(bridge, [(2, 3)])
    h2 = assemble_gain_matrix(bridge)
    sv2, ratio2 = variation_limit_schedule(spec2, h2, gap)
    if ratio2 != 1 or sv2.lam != F(1, 2):
        failures.append(("k=2", ratio2))

    for k in (3, 4, 5, 6):
        g = _cycle_flow_graph(k, rng)
        spec = feasibility(g, g.edges)
        h = assemble_gain_matrix(g)

        sv, ratio = variation_limit_schedule(spec, h, gap)
        if abs(ratio - (k - 1)) > gap:
            failures.append((k, "basic limit", ratio))

        colors, chi, exact = color_assignment(component_graph(spec))
        sv_c, ratio_c = variation_limit_schedule(spec, h, gap, colors=colors)
        target_c = chi - 1
        if abs(ratio_c - target_c) > gap:
            failures.append((k, "colored limit", ratio_c))

        # every tested lambda respects the per-lambda ceiling for its exponent count
        for exponents, c in (
            ({i: i - 1 for i in range(1, k + 1)}, k),
            ({i: colors[i] - 1 for i in range(1, k + 1)}, chi),
        ):
            polys = _boundary_polys(spec, h)
            pairs = set(spec.crossing.values())
            for q in range(1, 80):
                lam = F(q, q + 1)
                if any(poly_value(t, lam, exponents) == 0 for t in polys.values()):
                    continue
                jumps = [abs(lam ** exponents[a] - lam ** exponents[b]) for a, b in pairs]
                achieved = max(jumps) / min(jumps)
                if achieved > ratio_bound(c, lam):
                    failures.append((k, "per-lambda bound", lam))
    report(8, "schedule reaches k-1 / chi-1 within 1/100; ratios respect per-lambda bound", failures)


def test_09_theta_oracle_stays_in_band():
    rng = random.Random(83)
    failures = []
    tested = 0
    while tested < 25:
        n = rng.randrange(3, 9)
        m = rng.randrange(n - 1, n * (n - 1) // 2 + 1)
        g = random_connected(n, m, rng, gains=True)
        spec = feasibility(g, random_cut_targets(g, rng))
        if spec.k > 4:
            continue
        h = assemble_gain_matrix(g)
        est = theta_oracle(spec, h)
        _, chi, _ = color_assignment(component_graph(spec))
        hi = F(min(spec.k, chi) - 1) + F(1, 20)
        if not (1 <= est <= hi):
            failures.append((tested, spec.k, chi, est))
        tested += 1
    report(9, "25 specs with k<=4: oracle estimate within [1, chi-1 + 0.05]", failures)


def test_10_robust_attacks_survive_every_sampled_gain_matrix():
    rng = random.Random(71)
    failures = []
    done = 0
    while done < 50:
        n = rng.randrange(3, 9)
        m = rng.randrange(n - 1, min(n + 2, n * (n - 1) // 2) + 1)
        g = random_connected(n, m, rng)
        spec = feasibility(g, random_cut_targets(g, rng))
        sv, threshold = build_robust_stealth(spec, g, 1, 2)
        if threshold != 2 * spec.k * 2 + 1:
            failures.append((done, "threshold", threshold, spec.k))
        worst = robust_attack_audit(spec, sv, 1, 2, samples=100, seed=done)
        if worst < F(1, 2):
            failures.append((done, "floor", worst))
        done += 1
    report(10, "50 robust cases x 100 sampled matrices: |entries| >= 1/2, zeros exact", failures)


def test_11_corruption_replay_reproduces_the_exact_jumps():
    rng = random.Random(91)
    failures = []
    for case in range(100):
        n = rng.randrange(3, 9)
        m = rng.randrange(n - 1, n * (n - 1) // 2 + 1)
        g = random_connected(n, m, rng, gains=True)
        spec = feasibility(g, random_cut_targets(g, rng))
        h = assemble_gain_matrix(g)
        sv, av = build_stealth(spec, h)
        x = tuple(F(rng.randrange(-20, 20), rng.randrange(1, 6)) for _ in range(n))
        corrupted = tuple(z + a for z, a in zip(flows(h, x), av.values))
        xb = recover_states(h, corrupted, g, x[0])
        for u, v in g.edges:
            jump = (xb[u - 1] - xb[v - 1]) - (x[u - 1] - x[v - 1])
            want = sv.values[u - 1] - sv.values[v - 1] if (u, v) in spec.targets else F(0)
            if jump != want:
                failures.append((case, (u, v)))
    report(11, "100 corrupted recoveries: per-edge jumps match the stealth vector exactly", failures)


def test_12_every_gain_matrix_row_sums_to_zero():
    rng = random.Random(12)
    failures = []
    for case in range(100):
        n = rng.randrange(2, 10)
        m = rng.randrange(max(0, n - 1), n * (n - 1) // 2 + 1)
        edges = list(itertools.combinations(range(1, n + 1), 2))
        rng.shuffle(edges)
        gains = {n + 1 + i: random_gain(rng) for i in range(m)}
        g = Graph(n, edges[:m], gains=gains)
        h = assemble_gain_matrix(g)
        if any(s != 0 for s in h.row_sums()):
            failures.append(case)
    report(12, "100 assembled gain matrices: every row sums to exactly zero", failures)
