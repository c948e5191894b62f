"""Stealthy-attack analysis on flow graphs.

A target edge set F admits a stealthy corruption exactly when every cycle
meets F in zero or at least two edges; equivalently, every F-edge must cross
between distinct components of the graph with F removed.  Stealth vectors are
constant per component, with values chosen as powers of a rational lambda so
that every required attack entry is provably nonzero - zeros elsewhere are
exact, never approximate.

The edge variation factor of a stealth vector is the ratio of the largest to
the smallest state jump across the attacked edges.  Pushing lambda towards one
drives the power construction's ratio to (number of distinct exponents) - 1,
and colouring the component graph first shrinks that exponent count to the
chromatic number.  A robust variant picks an integer lambda large enough to
work for every gain matrix inside known bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

from .exceptions import (
    BadBounds,
    DimensionMismatch,
    EmptyF,
    ImproperColoring,
    InfeasibleSpec,
    ScheduleStalled,
    TooLarge,
)
from .flow import GainMatrix
from .graph import Edge, Graph, bfs_path, components, norm_edge

F = Fraction


# -- feasibility --------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AttackSpec:
    """Feasible target set with the component structure of g minus F."""

    graph: Graph
    targets: frozenset[Edge]
    comps: tuple[tuple[int, ...], ...]  # ordered by smallest vertex
    comp_of: dict[int, int]  # vertex -> 1-based component index
    crossing: dict[Edge, tuple[int, int]]  # F-edge -> component index pair

    @property
    def k(self) -> int:
        return len(self.comps)

    def boundary_vertices(self) -> tuple[int, ...]:
        return tuple(sorted({v for e in self.targets for v in e}))

    def target_indices(self) -> frozenset[int]:
        return frozenset(self.graph.edge_index(u, v) for u, v in self.targets)

    def expected_support(self) -> frozenset[int]:
        return self.target_indices() | frozenset(self.boundary_vertices())


@dataclass(frozen=True)
class Infeasibility:
    """A witness cycle containing exactly one target edge."""

    edge: Edge
    cycle_vertices: tuple[int, ...]
    cycle_edges: frozenset[Edge]


def feasibility(g: Graph, targets) -> AttackSpec | Infeasibility:
    """Decide stealth-attackability of a target edge set.

    Feasible iff every target edge joins distinct components of g minus the
    targets; a violation yields a cycle through exactly one target edge (the
    within-component path closed by that edge).
    """
    f_set = {norm_edge(u, v) for u, v in targets}
    for e in f_set:
        if not g.has_edge(*e):
            raise ValueError(f"target {e} is not an edge")
    comps = components(g, f_set)
    comp_of = {v: i for i, comp in enumerate(comps, start=1) for v in comp}
    crossing: dict[Edge, tuple[int, int]] = {}
    for e in sorted(f_set):
        u, v = e
        cu, cv = comp_of[u], comp_of[v]
        if cu == cv:
            path = bfs_path(g, u, v, removed=f_set)
            assert path is not None  # same component, so a path avoiding F exists
            cyc_edges = frozenset(
                norm_edge(path[i], path[i + 1]) for i in range(len(path) - 1)
            ) | {e}
            return Infeasibility(edge=e, cycle_vertices=tuple(path), cycle_edges=cyc_edges)
        crossing[e] = (min(cu, cv), max(cu, cv))
    return AttackSpec(
        graph=g,
        targets=frozenset(f_set),
        comps=tuple(comps),
        comp_of=comp_of,
        crossing=crossing,
    )


def require_spec(spec) -> AttackSpec:
    if isinstance(spec, Infeasibility):
        raise InfeasibleSpec(f"cycle {spec.cycle_vertices} meets the targets only at {spec.edge}")
    if not isinstance(spec, AttackSpec):
        raise InfeasibleSpec(f"expected a feasible attack spec, got {type(spec).__name__}")
    return spec


# -- stealth construction ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StealthVector:
    values: tuple[Fraction, ...]  # one state offset per vertex
    lam: Fraction
    exponents: dict[int, int]  # component index -> exponent of lambda
    targets: frozenset[Edge]


@dataclass(frozen=True, eq=False)
class AttackVector:
    values: tuple[Fraction, ...]  # length t
    support: frozenset[int]  # 1-based flow indices with nonzero entries


def _check_matrix(spec: AttackSpec, h: GainMatrix) -> None:
    g = spec.graph
    if h.n != g.n or h.t != g.t or h.edges != g.edges:
        raise DimensionMismatch("gain matrix does not match the spec's graph")


def _stealth_values(spec: AttackSpec, lam: Fraction, exponents: dict[int, int]) -> tuple[Fraction, ...]:
    powers = {i: lam ** e for i, e in exponents.items()}
    return tuple(powers[spec.comp_of[v]] for v in spec.graph.vertices())


def _boundary_polys(spec: AttackSpec, h: GainMatrix) -> dict[int, list[tuple[int, Fraction]]]:
    """Per boundary vertex: [(component index of itself/neighbour, signed gain mass)].

    The attack entry at vertex l is sum of gain * (own power - neighbour power);
    grouping by component gives a short polynomial in lambda for exact root tests.
    """
    g = spec.graph
    polys: dict[int, list[tuple[int, Fraction]]] = {}
    for l in spec.boundary_vertices():
        own = spec.comp_of[l]
        mass: dict[int, Fraction] = {}
        for q in g.neighbors(l):
            b = h.gains[g.edge_index(l, q) - g.n - 1]
            cq = spec.comp_of[q]
            if cq != own:
                mass[cq] = mass.get(cq, F(0)) + b
        # same-component gains cancel, so the own coefficient is the crossing mass
        terms = [(own, sum(mass.values()))]
        terms += [(c, -m) for c, m in sorted(mass.items())]
        polys[l] = terms
    return polys


def _poly_value(terms, lam: Fraction, exponents: dict[int, int]) -> Fraction:
    return sum(m * lam ** exponents[c] for c, m in terms)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def _root_free_lambda(
    spec: AttackSpec, h: GainMatrix, exponents: dict[int, int], hint: Fraction
) -> Fraction:
    """First lambda, starting from the hint, that zeroes no boundary polynomial.

    lambda = 1 always fails (every polynomial's coefficients cancel), so the
    hint must be in (0,1); deterministic shrinks lam *= 1 - 1/p step past the
    finitely many roots.
    """
    if not (0 < hint < 1):
        raise ValueError("lambda hint must lie strictly between 0 and 1")
    polys = _boundary_polys(spec, h)
    lam = hint

    def clean(lam: Fraction) -> bool:
        return all(_poly_value(terms, lam, exponents) != 0 for terms in polys.values())

    if clean(lam):
        return lam
    for p in _PRIMES:
        lam = lam * (1 - F(1, p))
        if clean(lam):
            return lam
    # 20 distinct values already exceed any root count seen at desk scale
    raise AssertionError("could not steer clear of the boundary-polynomial roots")


def _build(
    spec: AttackSpec, h: GainMatrix, exponents: dict[int, int], lam: Fraction
) -> tuple[StealthVector, AttackVector]:
    s = _stealth_values(spec, lam, exponents)
    a = h.multiply(s)
    support = frozenset(i + 1 for i, val in enumerate(a) if val != 0)
    expected = spec.expected_support()
    if support != expected:
        raise AssertionError(
            f"attack support {sorted(support)} deviates from {sorted(expected)}"
        )
    sv = StealthVector(values=s, lam=lam, exponents=dict(exponents), targets=spec.targets)
    return sv, AttackVector(values=a, support=support)


def build_stealth(
    spec: AttackSpec, h: GainMatrix, lambda_hint: Fraction = F(1, 2)
) -> tuple[StealthVector, AttackVector]:
    """Power stealth vector: component i gets lambda**(i-1), lambda root-free."""
    spec = require_spec(spec)
    _check_matrix(spec, h)
    exponents = {i: i - 1 for i in range(1, spec.k + 1)}
    lam = _root_free_lambda(spec, h, exponents, Fraction(lambda_hint))
    return _build(spec, h, exponents, lam)


def variation_ratio(s: StealthVector, targets=None) -> Fraction:
    """Largest over smallest state jump across the attacked edges, exact."""
    f_set = s.targets if targets is None else {norm_edge(u, v) for u, v in targets}
    if not f_set:
        raise EmptyF("variation factor needs a non-empty target set")
    jumps = [abs(s.values[u - 1] - s.values[v - 1]) for u, v in f_set]
    if any(j == 0 for j in jumps):
        raise EmptyF("stealth vector does not separate some target edge")
    return max(jumps) / min(jumps)


def ratio_bound(c: int, lam: Fraction) -> Fraction:
    """Per-lambda ceiling (1 - lam**(c-1)) / (lam**(c-2) (1 - lam)) for exponents 0..c-1.

    The largest possible jump is 1 - lam**(c-1) and the smallest possible is
    lam**(c-2)(1 - lam), so no pair structure can exceed this; it decreases to
    c - 1 as lam approaches one.
    """
    if c < 2:
        return F(1)
    return (1 - lam ** (c - 1)) / (lam ** (c - 2) * (1 - lam))


def _exponent_map(spec: AttackSpec, colors: dict[int, int] | None) -> dict[int, int]:
    if colors is None:
        return {i: i - 1 for i in range(1, spec.k + 1)}
    for e, (ci, cj) in spec.crossing.items():
        if colors[ci] == colors[cj]:
            raise ImproperColoring(f"components {ci} and {cj} share colour across {e}")
    return {i: colors[i] - 1 for i in range(1, spec.k + 1)}


def variation_limit_schedule(
    spec: AttackSpec,
    h: GainMatrix,
    epsilon_gap: Fraction,
    colors: dict[int, int] | None = None,
    max_steps: int = 20_000,
) -> tuple[StealthVector, Fraction]:
    """Walk lambda_q = q/(q+1) upward until the ratio is within the gap of c-1.

    c is the number of distinct exponents in use.  Root-rejected lambdas are
    skipped.  The limit c-1 is only attained when the crossing structure
    realises both the extreme exponent gap and a unit gap; otherwise the
    schedule stalls and says so rather than looping forever.
    """
    spec = require_spec(spec)
    _check_matrix(spec, h)
    if not spec.targets:
        raise EmptyF("schedule needs a non-empty target set")
    exponents = _exponent_map(spec, colors)
    c = len(set(exponents.values()))
    target = F(c - 1) if c >= 2 else F(1)
    polys = _boundary_polys(spec, h)
    epsilon_gap = Fraction(epsilon_gap)

    crossing_pairs = set(spec.crossing.values())
    for q in range(1, max_steps + 1):
        lam = F(q, q + 1)
        if any(_poly_value(terms, lam, exponents) == 0 for terms in polys.values()):
            continue
        jumps = [
            abs(lam ** exponents[ci] - lam ** exponents[cj]) for ci, cj in crossing_pairs
        ]
        ratio = max(jumps) / min(jumps)
        if abs(ratio - target) <= epsilon_gap:
            sv, _ = _build(spec, h, exponents, lam)
            return sv, ratio
    raise ScheduleStalled(
        f"ratio did not come within {epsilon_gap} of {target}; "
        "the crossing structure does not realise the extreme exponent gaps"
    )


def best_constructive_ratio(
    spec: AttackSpec,
    h: GainMatrix,
    colors: dict[int, int] | None = None,
    steps: int = 400,
) -> tuple[Fraction, Fraction]:
    """Best (lambda, ratio) over the ladder, without demanding convergence to c-1."""
    spec = require_spec(spec)
    _check_matrix(spec, h)
    if not spec.targets:
        raise EmptyF("variation needs a non-empty target set")
    exponents = _exponent_map(spec, colors)
    polys = _boundary_polys(spec, h)
    crossing_pairs = set(spec.crossing.values())
    best: tuple[Fraction, Fraction] | None = None
    for q in range(1, steps + 1):
        lam = F(q, q + 1)
        if any(_poly_value(terms, lam, exponents) == 0 for terms in polys.values()):
            continue
        jumps = [
            abs(lam ** exponents[ci] - lam ** exponents[cj]) for ci, cj in crossing_pairs
        ]
        ratio = max(jumps) / min(jumps)
        if best is None or ratio < best[1]:
            best = (lam, ratio)
    assert best is not None  # the ladder always contains root-free values
    return best


# -- component graph and colouring -----------------------------------------------------


def component_graph(spec: AttackSpec) -> Graph:
    """One node per component, one edge per crossing component pair."""
    spec = require_spec(spec)
    return Graph(spec.k, sorted(set(spec.crossing.values())))


def color_assignment(gc: Graph, exact_limit: int = 12) -> tuple[dict[int, int], int, bool]:
    """Proper colouring: exact chromatic number by backtracking up to the limit,
    greedy on a degeneracy order beyond it."""
    if gc.n <= exact_limit:
        for c in range(1, gc.n + 1):
            colors = _try_color(gc, c)
            if colors is not None:
                return colors, c, True
        raise AssertionError("n colours always suffice")
    # peel minimum-degree vertices, colour greedily in reverse
    remaining = set(gc.vertices())
    degree = {v: gc.degree(v) for v in remaining}
    order: list[int] = []
    while remaining:
        v = min(remaining, key=lambda x: (degree[x], x))
        order.append(v)
        remaining.remove(v)
        for w in gc.neighbors(v):
            if w in remaining:
                degree[w] -= 1
    colors: dict[int, int] = {}
    for v in reversed(order):
        used = {colors[w] for w in gc.neighbors(v) if w in colors}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    return colors, max(colors.values()), False


def _try_color(gc: Graph, c: int) -> dict[int, int] | None:
    order = sorted(gc.vertices(), key=lambda v: (-gc.degree(v), v))
    colors: dict[int, int] = {}

    def dfs(pos: int, used: int) -> bool:
        if pos == len(order):
            return True
        v = order[pos]
        taken = {colors[w] for w in gc.neighbors(v) if w in colors}
        # capping fresh colours at used+1 kills colour-permutation symmetry
        for col in range(1, min(used + 1, c) + 1):
            if col in taken:
                continue
            colors[v] = col
            if dfs(pos + 1, max(used, col)):
                return True
            del colors[v]
        return False

    return colors if dfs(0, 0) else None


def build_stealth_colored(
    spec: AttackSpec,
    h: GainMatrix,
    colors: dict[int, int],
    lambda_hint: Fraction = F(1, 2),
) -> tuple[StealthVector, AttackVector]:
    """Stealth vector with exponents colour-1: fewer distinct powers, smaller ratio limit."""
    spec = require_spec(spec)
    _check_matrix(spec, h)
    exponents = _exponent_map(spec, colors)
    lam = _root_free_lambda(spec, h, exponents, Fraction(lambda_hint))
    return _build(spec, h, exponents, lam)


# -- robustness under gain bounds --------------------------------------------------------


def robust_lambda_threshold(k: int, eps1: Fraction, eps2: Fraction) -> int:
    """ceil(2 k eps2/eps1) + 1: the closed-form schedule start."""
    return math.ceil(F(2 * k) * eps2 / eps1) + 1


def _certified(
    spec: AttackSpec, lam: Fraction, eps1: Fraction, eps2: Fraction
) -> bool:
    """Exact interval check: does every gain matrix in the box keep |a_l| >= eps1/2?

    The attack entry at a boundary vertex is linear in the gains with fixed
    coefficients (own power minus neighbour power), so its range over the gain
    box is an exact interval.
    """
    g = spec.graph
    floor = eps1 / 2
    for l in spec.boundary_vertices():
        own = spec.comp_of[l]
        lo = F(0)
        hi = F(0)
        for q in g.neighbors(l):
            coeff = lam ** (own - 1) - lam ** (spec.comp_of[q] - 1)
            if coeff > 0:
                lo += coeff * eps1
                hi += coeff * eps2
            elif coeff < 0:
                lo += coeff * eps2
                hi += coeff * eps1
        magnitude = lo if lo > 0 else (-hi if hi < 0 else F(0))
        if magnitude < floor:
            return False
    return True


def build_robust_stealth(
    spec: AttackSpec, g: Graph, eps1, eps2
) -> tuple[StealthVector, Fraction]:
    """Stealth vector valid for every gain matrix with gains in [eps1, eps2].

    Starts at the closed-form threshold lambda = ceil(2k eps2/eps1)+1 and doubles
    until the exact interval certificate holds (high-degree vertices with
    neighbours both above and below their own power level can defeat the
    closed form, so the certificate is what carries the guarantee).  Returns
    the vector and the closed-form threshold; the lambda actually used is on
    the vector.
    """
    spec = require_spec(spec)
    eps1, eps2 = Fraction(eps1), Fraction(eps2)
    if not (0 < eps1 <= eps2):
        raise BadBounds(f"need 0 < eps1 <= eps2, got {eps1}, {eps2}")
    if g is not spec.graph and not g.same_topology(spec.graph):
        raise ValueError("topology does not match the spec")
    threshold = robust_lambda_threshold(spec.k, eps1, eps2)
    lam = threshold
    while not _certified(spec, F(lam), eps1, eps2):
        lam *= 2
    exponents = {i: i - 1 for i in range(1, spec.k + 1)}
    s = _stealth_values(spec, F(lam), exponents)
    sv = StealthVector(values=s, lam=F(lam), exponents=exponents, targets=spec.targets)
    return sv, F(threshold)


def robust_attack_audit(
    spec: AttackSpec, sv: StealthVector, eps1, eps2, samples: int, seed: int
) -> Fraction:
    """Smallest boundary-vertex attack magnitude over sampled gain matrices.

    Also asserts that required-zero entries vanish exactly for every sample.
    """
    import random

    rng = random.Random(seed)
    eps1, eps2 = Fraction(eps1), Fraction(eps2)
    if not (0 < eps1 <= eps2):
        raise BadBounds(f"need 0 < eps1 <= eps2, got {eps1}, {eps2}")
    g = spec.graph
    expected = spec.expected_support()
    worst: Fraction | None = None
    for _ in range(samples):
        # uniform rationals in [eps1, eps2] on a 1/64 grid
        gains = tuple(eps1 + (eps2 - eps1) * F(rng.randrange(0, 65), 64) for _ in g.edges)
        h = GainMatrix(n=g.n, t=g.t, gains=gains, edges=g.edges)
        a = h.multiply(sv.values)
        for i, val in enumerate(a, start=1):
            if i not in expected and val != 0:
                raise AssertionError(f"required-zero entry {i} is {val}")
        for l in spec.boundary_vertices():
            mag = abs(a[l - 1])
            worst = mag if worst is None else min(worst, mag)
    if worst is None:
        raise EmptyF("audit needs at least one sample and one boundary vertex")
    return worst


# -- variation-factor oracle ----------------------------------------------------------


def theta_oracle(spec: AttackSpec, h: GainMatrix, grid: int = 12) -> Fraction:
    """Upper estimate of the edge variation factor by exhaustive value search.

    Component value tuples come from a rational grid plus the constructive
    ladders (power and coloured assignments); a tuple counts only if it
    separates every crossing pair and keeps every boundary-vertex entry of the
    given gain matrix nonzero, i.e. it generates a full-support attack vector.
    Returns the best ratio found: an upper bound on the infimum.
    """
    spec = require_spec(spec)
    _check_matrix(spec, h)
    if not spec.targets:
        raise EmptyF("variation oracle needs a non-empty target set")
    k = spec.k
    if k > 5:
        raise TooLarge("value search gated at 5 components")
    polys = _boundary_polys(spec, h)
    crossing_pairs = sorted(set(spec.crossing.values()))

    def ratio_of(values: dict[int, Fraction]) -> Fraction | None:
        jumps = [abs(values[ci] - values[cj]) for ci, cj in crossing_pairs]
        if any(j == 0 for j in jumps):
            return None
        for terms in polys.values():
            if sum(m * values[c] for c, m in terms) != 0:
                continue
            return None
        return max(jumps) / min(jumps)

    best: Fraction | None = None

    def consider(values: dict[int, Fraction]) -> None:
        nonlocal best
        r = ratio_of(values)
        if r is not None and (best is None or r < best):
            best = r

    # constructive seeds: power and coloured ladders
    colors, _, _ = color_assignment(component_graph(spec))
    for expmap in ({i: i - 1 for i in range(1, k + 1)}, {i: colors[i] - 1 for i in range(1, k + 1)}):
        for q in range(1, 200):
            lam = F(q, q + 1)
            consider({i: lam ** expmap[i] for i in range(1, k + 1)})

    # grid tuples, first component pinned (ratios are shift/scale-free)
    levels = [F(step, grid) for step in range(grid + 1)]
    for combo in iter_product(levels, repeat=k - 1):
        consider({1: F(0), **{i + 2: val for i, val in enumerate(combo)}})

    assert best is not None  # the root-free ladder always yields a valid tuple
    return best


def theta_bounds(spec: AttackSpec, h: GainMatrix, grid: int = 12) -> dict:
    """Bracket the variation factor: trivial floor, constructive values, oracle estimate.

    The oracle insists on full attack support (boundary entries nonzero for the
    given gains), which is the stricter reading of which vectors compete for
    the infimum; the report carries that policy so consumers can tell.
    """
    spec = require_spec(spec)
    gc = component_graph(spec)
    colors, chi, exact = color_assignment(gc)
    lam_b, basic = best_constructive_ratio(spec, h)
    lam_c, colored = best_constructive_ratio(spec, h, colors=colors)
    oracle = theta_oracle(spec, h, grid=grid)
    return {
        "lower": F(1),
        "constructive_basic": basic,
        "constructive_basic_lambda": lam_b,
        "constructive_colored": colored,
        "constructive_colored_lambda": lam_c,
        "oracle": oracle,
        "k": spec.k,
        "chi": chi,
        "chi_exact": exact,
        "bound_k": F(spec.k - 1) if spec.k >= 2 else F(1),
        "bound_chi": F(chi - 1) if chi >= 2 else F(1),
        "oracle_within_colored_bound": oracle <= (F(chi - 1) if chi >= 2 else F(1)),
        "support_policy": "full-attack-support",
    }
