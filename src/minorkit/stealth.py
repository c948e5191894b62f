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
chromatic number.  The infimum over all separating component values is exact:
chi_c - 1, for chi_c the circular chromatic number of the component graph.  A
robust variant picks an integer lambda large enough to work for every gain
matrix inside known bounds.

Every zero test runs on Python ints.  The root test of a candidate lambda is
the attack product itself: ``GainMatrix._product`` of one int per component
(lambda = p/q enters as p**e * q**(E-e), lambda**e times the common factor
q**E).  A lambda is root-free when every boundary vertex gets a nonzero
entry, and the entries of the accepted lambda are the attack.  ``_build``
takes them over any int component values and their common factor S (q**E
for the powers) and keeps each as the int pair (num, den * S): an
``AttackVector`` builds its Fractions only when its ``values`` are read, and
the CLI writes the attack text from the pairs.  The reported ratio comes
from the int jumps of the component values across the crossing component
pairs (``_jump_range``).

Each loop runs its cheap int test before any root test: the lambda ladder
(``_ladder``) yields every step's jumps unfiltered, the schedule root-tests
only a step inside its gap, and the best constructive ratio root-tests the
steps in (ratio, q) order, where each boundary vertex's entry can reject at
most one step.  The sampled robust audit runs H*s as int masses on one
denominator, D * S for the gains' D and the stealth values' S, in its own
loop over the crossing edges (see there), and the robust certificate sums
each boundary vertex's int coefficients for its int lambda, the positive
and the negative ones apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key

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
from .graph import Edge, Graph, _components, bfs_path, norm_edge

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
        return self._boundary

    def target_indices(self) -> frozenset[int]:
        return frozenset(map(self.graph._index.__getitem__, self.targets))

    def expected_support(self) -> frozenset[int]:
        return self._expected

    # computed once per spec, on first use: every root test and build reads them
    @cached_property
    def _boundary(self) -> tuple[int, ...]:
        return tuple(sorted({v for e in self.targets for v in e}))

    @cached_property
    def _expected(self) -> frozenset[int]:
        return self.target_indices() | frozenset(self._boundary)


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
    # normalised once: every later step reads these pairs
    f_set = {norm_edge(u, v) for u, v in targets}
    for e in f_set:
        if e not in g._index:
            raise ValueError(f"target {e} is not an edge")
    comps = _components(g, f_set)
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
    """The attack a = H*s, kept as its nonzero entries' int pairs.

    ``values`` builds the t Fractions when it is first read; the CLI writes
    the attack text from ``entries`` and never reads them.
    """

    t: int
    entries: dict[int, tuple[int, int]]  # 1-based flow index -> (num, den > 0), nonzero entries only
    support: frozenset[int]  # 1-based flow indices with nonzero entries

    @cached_property
    def values(self) -> tuple[Fraction, ...]:  # length t
        a = [F(0)] * self.t
        for i, (num, den) in self.entries.items():
            a[i - 1] = F(num, den)
        return tuple(a)


def _stealth_values(spec: AttackSpec, lam: Fraction, exponents: dict[int, int]) -> tuple[Fraction, ...]:
    powers = {i: lam ** e for i, e in exponents.items()}
    return tuple(powers[spec.comp_of[v]] for v in spec.graph.vertices())


def _scaled_powers(p: int, q: int, exponents: dict[int, int]) -> dict[int, int]:
    """Component -> p**e * q**(top - e) for lambda = p/q and top the largest exponent.

    That is lambda**e times q**top, one positive factor for every component,
    so these ints have the same zero tests and jump ratios as the powers.
    """
    top = max(exponents.values(), default=0)
    scaled = {e: p ** e * q ** (top - e) for e in set(exponents.values())}
    return {c: scaled[e] for c, e in exponents.items()}


def _root_free(spec: AttackSpec, h: GainMatrix, value: dict[int, int]) -> dict[int, tuple[int, int]] | None:
    """Root test of int values s = value[c] on component c: H*s's entries if no boundary one is 0, else None."""
    comp_of = spec.comp_of
    entries = h._product([value[comp_of[v]] for v in range(1, h.n + 1)])
    return entries if all(l in entries for l in spec.boundary_vertices()) else None


def _primes():
    """2, 3, 5, 7, ... by trial division."""
    p = 2
    while True:
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            yield p
        p += 1


def _root_free_lambda(
    spec: AttackSpec, h: GainMatrix, exponents: dict[int, int], hint: Fraction
) -> tuple[Fraction, dict[int, tuple[int, int]]]:
    """First lambda, starting from the hint, that zeroes no boundary entry, with its entries.

    The entry of H*s at a boundary vertex l is a polynomial in lambda: the sum
    over l's neighbours y of gain * (lambda**e(l) - lambda**e(y)).  lambda = 1
    zeroes it (its coefficients cancel), so the hint must be in (0,1);
    deterministic shrinks lam *= 1 - 1/p over the primes p = 2, 3, 5, ... give
    distinct candidates in (0,1).  Same-component neighbours cancel and a
    crossing neighbour's exponent differs from l's, so with positive gains the
    own coefficient is the only positive one: by Descartes' rule of signs the
    polynomial has at most one positive root besides lambda = 1.  Each
    boundary vertex rejects at most one candidate, and one of the first
    (#boundary vertices + 1) candidates is root-free.
    """
    if not (0 < hint < 1):
        raise ValueError("lambda hint must lie strictly between 0 and 1")
    lam = hint
    primes = _primes()
    for _ in range(len(spec.boundary_vertices()) + 1):
        entries = _root_free(spec, h, _scaled_powers(lam.numerator, lam.denominator, exponents))
        if entries is not None:
            return lam, entries
        lam = lam * (1 - F(1, next(primes)))
    raise AssertionError("every candidate lambda is a root: some gain is not positive")


def _build(spec: AttackSpec, scale: int, entries: dict[int, tuple[int, int]]) -> AttackVector:
    """The attack of component values s = value / scale, from their ``GainMatrix._product``.

    value holds one int per component and scale is their common factor S > 0,
    so each entry (num, den) of H*value is the true entry times S and is
    kept as the pair (num, den * S).  Its support must be the spec's
    expected one: the targets and their end vertices.
    """
    support = frozenset(entries)
    expected = spec.expected_support()
    if support != expected:
        raise AssertionError(
            f"attack support {sorted(support)} deviates from {sorted(expected)}"
        )
    pairs = {i: (num, den * scale) for i, (num, den) in entries.items()}
    return AttackVector(t=spec.graph.t, entries=pairs, support=support)


def _power_vectors(
    spec: AttackSpec, exponents: dict[int, int], lam: Fraction, entries: dict[int, tuple[int, int]]
) -> tuple[StealthVector, AttackVector]:
    """The stealth and attack vectors of lambda, from its ``GainMatrix._product`` on ``_scaled_powers``.

    Those values share the factor S = q**top for lambda = p/q.
    """
    scale = lam.denominator ** max(exponents.values(), default=0)
    s = _stealth_values(spec, lam, exponents)
    sv = StealthVector(values=s, lam=lam, exponents=dict(exponents), targets=spec.targets)
    return sv, _build(spec, scale, entries)


def build_stealth(
    spec: AttackSpec, h: GainMatrix, lambda_hint: Fraction = F(1, 2)
) -> tuple[StealthVector, AttackVector]:
    """Power stealth vector: component i gets lambda**(i-1), lambda root-free."""
    return _root_free_build(spec, h, None, lambda_hint)


def _root_free_build(
    spec: AttackSpec, h: GainMatrix, colors: dict[int, int] | None, lambda_hint: Fraction
) -> tuple[StealthVector, AttackVector]:
    """_power_vectors on _exponent_map(spec, colors), lambda the first root-free one from lambda_hint."""
    spec = require_spec(spec)
    h._require_graph(spec.graph)
    exponents = _exponent_map(spec, colors)
    lam, entries = _root_free_lambda(spec, h, exponents, Fraction(lambda_hint))
    return _power_vectors(spec, exponents, lam, entries)


def _stealth_attack(
    spec: AttackSpec, h: GainMatrix, colors: dict[int, int] | None, lambda_hint: Fraction
) -> tuple[StealthVector, AttackVector, Fraction]:
    """The basic (or, with colors, the coloured) stealth attack and the variation ratio of its pick.

    The ratio comes from the int jumps of the scaled component values across
    the crossing component pairs, as ``_schedule``'s does; the spec must have
    a target.
    """
    sv, av = _root_free_build(spec, h, colors, lambda_hint)
    value = _scaled_powers(sv.lam.numerator, sv.lam.denominator, sv.exponents)
    return sv, av, F(*_jump_range(value, spec.crossing.values()))


def variation_ratio(s: StealthVector, targets=None) -> Fraction:
    """Largest over smallest state jump across the attacked edges, exact."""
    f_set = s.targets if targets is None else {norm_edge(u, v) for u, v in targets}
    if not f_set:
        raise EmptyF("variation factor needs a non-empty target set")
    ends = {v: s.values[v - 1] for e in f_set for v in e}
    scale = math.lcm(*(x.denominator for x in ends.values()))
    top, low = _jump_range({v: x.numerator * (scale // x.denominator) for v, x in ends.items()}, f_set)
    if not low:
        raise EmptyF("stealth vector does not separate some target edge")
    return F(top, low)


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


def _ladder(spec: AttackSpec, exponents: dict[int, int], steps: int):
    """Yield (q, largest jump, smallest jump) for lambda_q = q/(q+1), q = 1..steps.

    The jumps run across the crossing component pairs on the scaled int
    powers of ``_scaled_powers``, so their ratio is the step's variation
    ratio.  A jump depends only on the pair's two exponents, so each step
    scales each distinct exponent once, q**e * (q+1)**(top - e), and
    ``_jump_range`` takes each exponent pair once.  No step is root-tested
    here: the callers test the jumps first and root-test (``_root_free``)
    only a step they would keep.
    """
    levels = sorted(set(exponents.values()))
    top = max(levels, default=0)
    pairs = {(exponents[ci], exponents[cj]) for ci, cj in spec.crossing.values()}
    for q in range(1, steps + 1):
        yield q, *_jump_range({e: q ** e * (q + 1) ** (top - e) for e in levels}, pairs)


def _jump_range(value: dict, pairs) -> tuple[int, int]:
    """(largest, smallest) |value[a] - value[b]| over the key pairs.

    The values are ints that share one positive factor S.  With one value per
    component and the crossing component pairs of ``spec.crossing``, the
    jumps are the state jumps across the targets times S, so their ratio is
    the variation ratio.  ``_ladder`` passes the exponents' values and pairs
    instead, and ``variation_ratio`` the target ends' values and the targets.
    """
    jumps = [abs(value[a] - value[b]) for a, b in pairs]
    return max(jumps), min(jumps)


# the schedule's default ladder length
_SCHEDULE_STEPS = 20_000


def variation_limit_schedule(
    spec: AttackSpec,
    h: GainMatrix,
    epsilon_gap: Fraction,
    colors: dict[int, int] | None = None,
    max_steps: int = _SCHEDULE_STEPS,
) -> tuple[StealthVector, Fraction]:
    """Walk lambda_q = q/(q+1) upward until the ratio is within the gap of c-1.

    c is the number of distinct exponents in use.  Each step tests the gap
    first, on ints (|top - (c-1) low| * den <= num * low for the gap num/den),
    and root-tests only a step inside it, skipping it if it is a root.  The
    limit c-1 is only attained when the crossing structure realises both the
    extreme exponent gap and a unit gap; otherwise the schedule stalls and
    says so rather than looping forever.
    """
    sv, _, ratio = _schedule(spec, h, epsilon_gap, colors, max_steps)
    return sv, ratio


def _schedule(
    spec: AttackSpec,
    h: GainMatrix,
    epsilon_gap: Fraction,
    colors: dict[int, int] | None = None,
    max_steps: int = _SCHEDULE_STEPS,
) -> tuple[StealthVector, AttackVector, Fraction]:
    """``variation_limit_schedule`` with the attack of its pick, built from the accepted entries."""
    spec = require_spec(spec)
    h._require_graph(spec.graph)
    if not spec.targets:
        raise EmptyF("schedule needs a non-empty target set")
    exponents = _exponent_map(spec, colors)
    c = len(set(exponents.values()))
    target = c - 1 if c >= 2 else 1
    epsilon_gap = Fraction(epsilon_gap)
    gap_num, gap_den = epsilon_gap.numerator, epsilon_gap.denominator
    for q, top, low in _ladder(spec, exponents, max_steps):
        if abs(top - target * low) * gap_den > gap_num * low:
            continue
        entries = _root_free(spec, h, _scaled_powers(q, q + 1, exponents))
        if entries is not None:
            return (*_power_vectors(spec, exponents, F(q, q + 1), entries), F(top, low))
    raise ScheduleStalled(
        f"ratio did not come within {epsilon_gap} of {target}; "
        "the crossing structure does not realise the extreme exponent gaps"
    )


def _by_ratio(a: tuple[int, int, int], b: tuple[int, int, int]) -> int:
    """Order two ladder steps (q, top, low) by their ratios top / low."""
    return a[1] * b[2] - b[1] * a[2]


def best_constructive_ratio(
    spec: AttackSpec,
    h: GainMatrix,
    colors: dict[int, int] | None = None,
    steps: int = 400,
) -> tuple[Fraction, Fraction]:
    """Best (lambda, ratio) over the root-free ladder steps, without demanding convergence to c-1.

    Every step's ratio comes from its jumps first; the steps are then ranked
    by (ratio, q) and root-tested in that order, and the first root-free one
    is the pick: the least ratio, ties to the smallest q.  Each boundary
    vertex's entry of H*s, a polynomial in lambda, has at most one root in
    (0, 1) (the Descartes argument in ``_root_free_lambda``), so at most
    #boundary vertices ranked steps fail and at most #boundary vertices + 1
    root tests run.
    """
    spec = require_spec(spec)
    h._require_graph(spec.graph)
    if not spec.targets:
        raise EmptyF("variation needs a non-empty target set")
    exponents = _exponent_map(spec, colors)
    # top / low against top' / low' is top * low' against top' * low (every jump is positive),
    # and a stable sort keeps equal ratios in q order
    ranked = sorted(_ladder(spec, exponents, steps), key=cmp_to_key(_by_ratio))
    for q, top, low in ranked:
        if _root_free(spec, h, _scaled_powers(q, q + 1, exponents)) is not None:
            return F(q, q + 1), F(top, low)
    raise AssertionError("every ladder step is a root: the ladder has no more steps than boundary vertices")


# -- component graph and colouring -----------------------------------------------------


def component_graph(spec: AttackSpec) -> Graph:
    """One node per component, one edge per crossing component pair."""
    spec = require_spec(spec)
    return Graph(spec.k, sorted(set(spec.crossing.values())))


# the largest component graph whose chi, and so whose chi_c, is found exactly
EXACT_COLOR_LIMIT = 12


def color_assignment(gc: Graph, exact_limit: int = EXACT_COLOR_LIMIT) -> tuple[dict[int, int], int, bool]:
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


def _try_color(gc: Graph, p: int, q: int = 1) -> dict[int, int] | None:
    """A (p, q)-colouring: colours 1..p with q <= |a - b| <= p - q on every edge.

    That is circular distance at least q on a cycle of p colours; q = 1 is an
    ordinary p-colouring.
    """
    order = sorted(gc.vertices(), key=lambda v: (-gc.degree(v), v))
    colors: dict[int, int] = {}
    near = range(1 - q, q)  # offsets to the colours closer than q around the cycle

    def dfs(pos: int, used: int) -> bool:
        if pos == len(order):
            return True
        v = order[pos]
        taken = {(colors[w] + d - 1) % p + 1 for w in gc.neighbors(v) if w in colors for d in near}
        # symmetry: q = 1 colours are interchangeable, so a fresh colour is
        # capped at used+1; for q > 1 only rotations are, so the first vertex takes 1
        top = min(used + 1, p) if q == 1 or not used else p
        for col in range(1, top + 1):
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
    return _root_free_build(spec, h, colors, lambda_hint)


# -- robustness under gain bounds --------------------------------------------------------


def robust_lambda_threshold(k: int, eps1: Fraction, eps2: Fraction) -> int:
    """ceil(2 k eps2/eps1) + 1: the closed-form schedule start."""
    return math.ceil(F(2 * k) * eps2 / eps1) + 1


def _certified(spec: AttackSpec, lam: int, eps1: Fraction, eps2: Fraction) -> bool:
    """Exact interval check: does every gain matrix in the box keep |a_l| >= eps1/2?

    The attack entry at a boundary vertex is linear in the gains with fixed
    int coefficients lam**(own-1) - lam**(c-1), one per neighbour in component
    c.  With P and N the sums of the positive and of the negative ones, its
    range over the gain box is [P eps1 + N eps2, P eps2 + N eps1], compared
    on ints over the common denominator of the bounds.
    """
    den = math.lcm(eps1.denominator, eps2.denominator)
    e1 = eps1.numerator * (den // eps1.denominator)
    e2 = eps2.numerator * (den // eps2.denominator)
    power = {c: lam ** (c - 1) for c in range(1, spec.k + 1)}
    comp_of = spec.comp_of
    for l in spec.boundary_vertices():
        own = power[comp_of[l]]
        pos = neg = 0
        for q in spec.graph.neighbors(l):
            coeff = own - power[comp_of[q]]
            if coeff > 0:
                pos += coeff
            else:
                neg += coeff
        lo, hi = pos * e1 + neg * e2, pos * e2 + neg * e1
        # the least |a_l| over [lo, hi] (times den) is lo or -hi, or 0 if the interval holds 0
        if 2 * max(lo, -hi) < e1:
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
    while not _certified(spec, lam, eps1, eps2):
        lam *= 2
    exponents = _exponent_map(spec, None)
    s = _stealth_values(spec, F(lam), exponents)
    sv = StealthVector(values=s, lam=F(lam), exponents=exponents, targets=spec.targets)
    return sv, F(threshold)


def robust_attack_audit(
    spec: AttackSpec, sv: StealthVector, eps1, eps2, samples: int, seed: int
) -> Fraction:
    """Smallest boundary-vertex attack magnitude over sampled gain matrices.

    Also asserts that required-zero entries vanish exactly for every sample.
    Each sample draws one gain per edge, eps1 + (eps2 - eps1) r/64 for r
    uniform in 0..64; all of them share the denominator D = lcm(den eps1,
    den eps2) * 64, and the stealth values go on their common denominator S.
    So every entry of H s is an int mass over D * S: an edge's through flow
    is its gain numerator times the jump of the scaled values, and a vertex
    sums its edges' flows.  Only edges whose ends differ carry mass.  Only
    the bounds, the result and a failing entry become Fractions, so their
    count does not grow with the samples.  So this loop, not
    ``GainMatrix._product``, forms H s: the kernel would need a matrix of
    Fraction gains per sample and would visit every edge (about 4.5 times
    the audit time on 40- and 60-vertex graphs with 2n edges).
    """
    import random

    rng = random.Random(seed)
    eps1, eps2 = Fraction(eps1), Fraction(eps2)
    if not (0 < eps1 <= eps2):
        raise BadBounds(f"need 0 < eps1 <= eps2, got {eps1}, {eps2}")
    g = spec.graph
    if len(sv.values) != g.n:
        raise DimensionMismatch(f"state has length {len(sv.values)}, expected {g.n}")
    # gain numerators over D: base + step * r
    den = math.lcm(eps1.denominator, eps2.denominator)
    lo_num = eps1.numerator * (den // eps1.denominator)
    base, step = lo_num * 64, eps2.numerator * (den // eps2.denominator) - lo_num
    s_den = math.lcm(*(x.denominator for x in sv.values))
    scaled = [x.numerator * (s_den // x.denominator) for x in sv.values]
    total_den = den * 64 * s_den
    expected = spec.expected_support()
    boundary = spec.boundary_vertices()
    # (position, u, v, scaled jump) of every edge whose ends differ
    active = [
        (pos, u, v, scaled[u - 1] - scaled[v - 1])
        for pos, (u, v) in enumerate(g.edges)
        if scaled[u - 1] != scaled[v - 1]
    ]
    # the required-zero entries that can carry mass, in flow-index order
    zero_vertices = sorted({w for _, u, v, _ in active for w in (u, v)} - expected)
    zero_edges = [
        (g.n + 1 + pos, pos, jump) for pos, _, _, jump in active if g.n + 1 + pos not in expected
    ]
    no_mass = dict.fromkeys([*boundary, *zero_vertices], 0)
    draw = rng.randrange
    worst: int | None = None
    for _ in range(samples):
        draws = [draw(0, 65) for _ in g.edges]
        net = no_mass.copy()
        for pos, u, v, jump in active:
            flow = (base + step * draws[pos]) * jump
            net[u] += flow
            net[v] -= flow
        bad = [(i, net[i]) for i in zero_vertices if net[i]]
        bad += [(i, (base + step * draws[pos]) * jump) for i, pos, jump in zero_edges]
        if bad:
            i, mass = bad[0]
            raise AssertionError(f"required-zero entry {i} is {F(mass, total_den)}")
        for l in boundary:
            mag = abs(net[l])
            worst = mag if worst is None else min(worst, mag)
    if worst is None:
        raise EmptyF("audit needs at least one sample and one boundary vertex")
    return F(worst, total_den)


# -- variation-factor oracle ----------------------------------------------------------


def theta_oracle(spec: AttackSpec, h: GainMatrix) -> Fraction:
    """The edge variation factor, exactly: chi_c(G_F) - 1.

    theta is the infimum of max jump / min jump over component values that
    separate every crossing pair and keep every boundary-vertex entry of the
    given gain matrix nonzero (full attack support).  Without the support
    condition it is chi_c - 1 and attained (Zhu 2001): values reduced modulo
    (ratio + 1) * (min jump) form a circular colouring, and a (p, q)-colouring
    read as integers has every crossing jump in [q, p - q].  Each boundary
    entry is a nonzero linear form in the values, so the support condition
    removes finitely many hyperplanes, which does not move the infimum; it
    can stop it being attained (the unit triangle: 2, reached only at roots).

    chi_c lies in (chi - 1, chi] and equals p/q for some p <= k (Bondy & Hell
    1990), so the least such p/q that admits a (p, q)-colouring is chi_c.
    Past EXACT_COLOR_LIMIT components chi is not exact, so this raises TooLarge.
    """
    spec = require_spec(spec)
    h._require_graph(spec.graph)
    if not spec.targets:
        raise EmptyF("variation oracle needs a non-empty target set")
    gc = component_graph(spec)
    return _circular_theta(gc, color_assignment(gc)[1])


def _circular_theta(gc: Graph, chi: int) -> Fraction:
    """theta_oracle's chi_c(gc) - 1, by a Farey scan of (chi - 1, chi] from gc's chromatic number chi."""
    if gc.n > EXACT_COLOR_LIMIT:  # chi is not exact
        raise TooLarge(f"value search gated at {EXACT_COLOR_LIMIT} components")
    candidates = sorted({F(p, q) for p in range(1, gc.n + 1) for q in range(1, p + 1)})
    # chi itself is a candidate and has its q = 1 colouring, so next() finds one
    chi_c = next(
        r for r in candidates
        if chi - 1 < r <= chi and _try_color(gc, r.numerator, r.denominator) is not None
    )
    return chi_c - 1


def theta_bounds(spec: AttackSpec, h: GainMatrix) -> dict:
    """Bracket the variation factor: trivial floor, constructive values, exact value.

    The constructive ratios are attained by full-support attacks, so they
    bound from above the oracle, which is the exact infimum chi_c - 1 over all
    full-support attacks (see theta_oracle).  The report carries that support
    policy so consumers can tell.
    """
    spec = require_spec(spec)
    gc = component_graph(spec)
    colors, chi, exact = color_assignment(gc)
    lam_b, basic = best_constructive_ratio(spec, h)
    lam_c, colored = best_constructive_ratio(spec, h, colors=colors)
    oracle = _circular_theta(gc, chi)
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
