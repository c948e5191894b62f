"""The paper's claims as one table: what minorkit reproduces, what it only bounds, what is open.

Each row names a claim of the paper, the instance it is checked on, the value
the tool computes for it, the verifier that re-checked that value, and a
status: `reproduced`, `bound only`, or `open: item N` for the ROADMAP item
that would settle it.  Every value is computed when the script runs.

Part 1 (strong boxicity): the exact oracle on every connected graph with at
most 4 vertices but K4, each witness grid re-checked by `verify_grid`; the
edit estimate sb(G) <= sb(H) + cost for every single edit of those graphs,
with cost 1 for a vertex or edge deletion and 2 for a contraction, exact on
both sides; and the spanning-tree pipeline's dimension on three larger graphs.
Part 2 (edge variation factor): `flow theta` against the closed forms of the
circular chromatic number, chi_c(C_2k+1) = 2 + 1/k and chi_c(K_n) = n.

Run:  python3 demos/paper_claims.py   (about 10 s: the oracle runs once per class)
"""

import io
import json
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from itertools import combinations, permutations
from pathlib import Path

from minorkit import (
    Contract,
    EdgeDelete,
    Graph,
    VertexDelete,
    apply_edit,
    brute_force_strong_boxicity,
    components,
    graph_to_json,
    tree_pipeline,
)
from minorkit.boxes import verify_grid
from minorkit.cli import main

ROWS: list[tuple[str, str, str, str, str]] = []


def row(claim, instance, value, verifier, status):
    ROWS.append((claim, instance, str(value), verifier, status))


def complete(n):
    return Graph(n, list(combinations(range(1, n + 1), 2)))


def cycle(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


# every connected graph on at most 4 vertices, up to isomorphism
CONNECTED = {
    "K1": Graph(1),
    "K2": complete(2),
    "P3": Graph(3, [(1, 2), (2, 3)]),
    "K3": complete(3),
    "P4": Graph(4, [(1, 2), (2, 3), (3, 4)]),
    "K1,3": Graph(4, [(1, 2), (1, 3), (1, 4)]),
    "C4": cycle(4),
    "paw": Graph(4, [(1, 2), (2, 3), (1, 3), (3, 4)]),
    "diamond": Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)]),
    "K4": complete(4),
}


def key(g):
    """g's isomorphism class: its least relabelled edge list."""
    return g.n, min(
        tuple(sorted(tuple(sorted((p[u - 1], p[v - 1]))) for u, v in g.edges))
        for p in permutations(range(1, g.n + 1))
    )


NAMES = {key(g): name for name, g in CONNECTED.items()}


def name(g):
    """The class name of g: its components' names, as in K3+K1 or 2K1."""
    parts = Counter()
    for comp in components(g):
        label = {v: i for i, v in enumerate(comp, 1)}
        part = Graph(len(comp), [(label[u], label[v]) for u, v in g.edges if u in label])
        parts[NAMES[key(part)]] += 1
    order = sorted(parts, key=lambda n: (-CONNECTED[n].n, n))
    return "+".join(f"{parts[n] if parts[n] > 1 else ''}{n}" for n in order)


SB: dict = {}


def sb(g):
    """The oracle's strong boxicity of g's class (None past dimension 2), its witness grid
    checked by verify_grid."""
    k = key(g)
    if k not in SB:
        res = brute_force_strong_boxicity(g)
        if res.grid is not None:
            c1, c2 = verify_grid(g, res.grid)
            if not (c1.ok and c2.ok):
                raise AssertionError(f"verify_grid rejects the oracle's grid of {name(g)}")
        SB[k] = res.dim
    return SB[k]


# -- part 1: strong boxicity --------------------------------------------------------------

SMALL = {label: g for label, g in CONNECTED.items() if label != "K4"}  # K4 takes the oracle minutes
for label, g in SMALL.items():
    d = sb(g)
    row("sb(G), exact", label, d, "oracle, verify_grid", "reproduced" if d is not None else "open: item 7")
row("sb(G), exact", "K4", "-", "-", "open: item 12")

seen = set()
for label, g in SMALL.items():
    ops = [("vertex deletion", 1, VertexDelete(v)) for v in g.vertices() if g.n > 1]
    ops += [("edge deletion", 1, EdgeDelete(u, v)) for u, v in g.edges]
    ops += [("contraction", 2, Contract(u, v)) for u, v in g.edges]
    for kind, cost, op in ops:
        h = apply_edit(g, op)
        what = f"{label} to {name(h)} by {kind}"
        if what in seen:
            continue
        seen.add(what)
        lhs, rhs = sb(g), sb(h) + cost
        tight = " (tight)" if lhs == rhs else ""
        row("sb(G) <= sb(H) + cost", what, f"{lhs} <= {sb(h)} + {cost}{tight}", "oracle on G and H",
            "reproduced" if lhs <= rhs else "FAILS")
row("sb(H) <= sb(G) + cost'", "the edits above", "-", "-", "open: item 13")

OCTAHEDRON = Graph(6, [e for e in combinations(range(1, 7), 2) if e not in {(1, 2), (3, 4), (5, 6)}])
WHEEL = Graph(10, [(1, v) for v in range(2, 11)] + [(v, v + 1) for v in range(2, 10)] + [(2, 10)])
for label, g in (("K6", complete(6)), ("K2,2,2", OCTAHEDRON), ("wheel, rim C9", WHEEL)):
    grid = tree_pipeline(g)[1].grid
    c1, c2 = verify_grid(g, grid)
    row("sb(G) <= tree pipeline dim", label, f"sb <= {grid.dim}", "verify_grid",
        "bound only" if c1.ok and c2.ok else "FAILS")
row("the estimate's gap to sb(G)", "K6, K2,2,2, wheel", "-", "-", "open: items 4, 6")


# -- part 2: the edge variation factor -----------------------------------------------------


def flow_theta(g, folder):
    """`flow theta` on g, with unit gains and every edge a target: (exit code, results or stderr line)."""
    unit = Graph(g.n, g.edges, gains={i: F(1) for i in range(g.n + 1, g.t + 1)})
    path = Path(folder) / "g.json"
    path.write_text(json.dumps(graph_to_json(unit)))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["flow", "theta", str(path), "--target", ",".join(f"{u}-{v}" for u, v in g.edges)])
    return code, json.loads(out.getvalue())["results"] if code == 0 else err.getvalue().strip()


with tempfile.TemporaryDirectory() as folder:
    cases = [("C5", cycle(5), 2 + F(1, 2))] + [(f"K{n}", complete(n), F(n)) for n in (4, 5)]
    theta = {}
    for label, g, chi_c in cases:
        code, theta[label] = flow_theta(g, folder)
        value = F(theta[label]["oracle"])
        row("theta = chi_c(G_F) - 1", label, f"theta = {value}", f"closed form chi_c = {chi_c}",
            "reproduced" if value == chi_c - 1 else "FAILS")
    code, message = flow_theta(cycle(13), folder)
    row("theta = chi_c(G_F) - 1", "C13", f"exit {code}, {message.removeprefix('input error: ')}", "-",
        "open: items 14, 5")
row("theta is attained by an attack", "C5", f"best attack ratio {theta['C5']['constructive_colored']}",
    f"theta = {theta['C5']['oracle']}", "open: item 1")
row("theta against the connectivity of G", "-", "-", "-", "open: item 2")
row("stealthy attacks with partial knowledge", "-", "-", "-", "open: item 3")


# -- the table --------------------------------------------------------------------------------

HEAD = ("claim", "instance", "value", "verifier", "status")
widths = [max(len(r[i]) for r in [HEAD, *ROWS]) for i in range(5)]
for r in [HEAD, tuple("-" * w for w in widths), *ROWS]:
    print(" | ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
print()
print(", ".join(f"{n} {s}" for s, n in Counter(r[4] for r in ROWS).items()))
