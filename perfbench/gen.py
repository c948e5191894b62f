"""Seeded input generators for the benchmark.

Everything here is standard library and shares no code with minorkit: graphs,
edit lists, box representations, flow vectors and attack bundles are made from a
`random.Random` and written as the JSON files the CLI reads.  Each generator
also returns what the independent checks need to know about its output
(expected dimension, block structure, planted defects).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

Edge = tuple[int, int]


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def graph_json(n: int, edges: list[Edge], gains: list[Fraction] | None = None) -> dict:
    out = []
    for pos, (u, v) in enumerate(edges):
        entry: dict = {"u": u, "v": v}
        if gains is not None:
            entry["gain"] = str(gains[pos])
        out.append(entry)
    return {"n": n, "edges": out}


# -- box-lift: connected graphs and edit lists ------------------------------------------


def connected_graph(rng: random.Random, n: int, extra: int) -> list[Edge]:
    """Random labelled spanning tree plus `extra` distinct non-tree edges, sorted."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = {norm(order[i], order[rng.randrange(i)]) for i in range(1, n)}
    tree = set(edges)
    while len(edges) < len(tree) + extra:
        u, v = rng.sample(range(1, n + 1), 2)
        edges.add(norm(u, v))
    return sorted(edges)


def _connected(adj: dict[int, set[int]], skip: int | None = None) -> bool:
    verts = [v for v in adj if v != skip]
    if not verts:
        return True
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w != skip and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(verts)


def edit_list(rng: random.Random, n: int, edges: list[Edge]) -> tuple[list[dict], int]:
    """Edits that reduce the graph to a spanning tree of its remaining vertices.

    The list starts with one vertex deletion and one contraction, then deletes
    edges that lie on cycles.  Labels follow the CLI's convention: deleting v
    moves the highest label onto v; contracting (u, v) keeps the merged vertex
    at u (or at v when u is the highest label) and moves the highest label onto
    v.  Returns the intents and the expected final dimension
    2 + deletions + 2 * contractions.
    """
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    ops: list[dict] = []

    def relabel(old: int, new: int) -> None:
        nbrs = adj.pop(old)
        adj[new] = nbrs
        for w in nbrs:
            adj[w].discard(old)
            adj[w].add(new)

    def edge_count() -> int:
        return sum(len(ws) for ws in adj.values()) // 2

    # one vertex deletion: a non-cut vertex of least degree, so the list length varies little
    cands = [v for v in adj if _connected(adj, skip=v)]
    low = min(len(adj[v]) for v in cands)
    v = rng.choice([v for v in cands if len(adj[v]) == low])
    top = len(adj)
    for w in adj.pop(v):
        adj[w].discard(v)
    if v != top:
        relabel(top, v)
    ops.append({"kind": "vertex_delete", "v": v})

    # one contraction of an edge in the fewest triangles
    top = len(adj)
    pool = sorted(norm(a, b) for a in adj for b in adj[a] if a < b)
    low = min(len(adj[a] & adj[b]) for a, b in pool)
    u, v = rng.choice([(a, b) for a, b in pool if len(adj[a] & adj[b]) == low])
    if rng.random() < 0.5:
        u, v = v, u
    merged = (adj[u] | adj[v]) - {u, v}
    for w in adj.pop(u) | adj.pop(v):
        if w in adj:
            adj[w].discard(u)
            adj[w].discard(v)
    keep = v if u == top else u
    adj[keep] = set(merged)
    for w in merged:
        adj[w].add(keep)
    if top not in (u, v):
        relabel(top, v)
    ops.append({"kind": "contract", "u": u, "v": v})

    # edge deletions on cycles until a tree is left
    while edge_count() > len(adj) - 1:
        pool = sorted(norm(a, b) for a in adj for b in adj[a] if a < b)
        rng.shuffle(pool)
        for a, b in pool:
            adj[a].discard(b)
            adj[b].discard(a)
            if _connected(adj):
                ops.append({"kind": "edge_delete", "u": a, "v": b})
                break
            adj[a].add(b)
            adj[b].add(a)
    if len(adj) < 3:
        raise ValueError("edit list left fewer than three vertices")
    deletions = len(ops) - 1
    return ops, 2 + deletions + 2


# -- box-sweep: deep trees and witness-free representations -------------------------------


def path_tree(n: int) -> list[Edge]:
    """Path rooted at vertex 1, so the tree builder nests n-1 levels deep."""
    return [(i, i + 1) for i in range(1, n)]


def caterpillar(rng: random.Random, spine: int, legs: int) -> list[Edge]:
    """Spine 1..spine rooted at 1, plus `legs` leaves hung on random spine vertices."""
    edges = path_tree(spine)
    for leaf in range(spine + 1, spine + legs + 1):
        edges.append((rng.randrange(1, spine + 1), leaf))
    return sorted(edges)


def nested_sizes(rng: random.Random, clique: int, count: int) -> list[int]:
    return sorted((rng.randint(1, clique) for _ in range(count)), reverse=True)


def threshold_edges(clique: int, sizes: list[int]) -> list[Edge]:
    """Clique 1..c plus stable vertex c+i adjacent to 1..sizes[i-1]."""
    edges = [(i, j) for i in range(1, clique + 1) for j in range(i + 1, clique + 1)]
    for i, size in enumerate(sizes, start=1):
        edges += [(j, clique + i) for j in range(1, size + 1)]
    return sorted(edges)


Box = list[tuple[int, int]]


def boxes_meet(a: Box, b: Box) -> bool:
    return all(max(alo, blo) <= min(ahi, bhi) for (alo, ahi), (blo, bhi) in zip(a, b))


def _inside(p: tuple, box: Box) -> bool:
    return all(lo <= x <= hi for (lo, hi), x in zip(box, p))


def _exposed_point(rng: random.Random, v: int, doubled: list[Box], tries: int) -> tuple | None:
    """A random facet point of box v in no other closed box, or None.

    Boxes come with doubled coordinates, so the half-integer points tried here
    are plain ints.
    """
    box = doubled[v]
    dim = len(box)
    for _ in range(tries):
        axis = rng.randrange(dim)
        p = [rng.randrange(lo + 1, hi) for lo, hi in box]
        p[axis] = box[axis][rng.randrange(2)]
        if not any(_inside(p, b) for u, b in enumerate(doubled) if u != v):
            return tuple(p)
    return None


def _place(rng: random.Random, dim: int, count: int, span: int) -> tuple[list[Box], list[tuple]]:
    """Place up to `count` boxes (doubled coordinates); stop early after 200 rejections in a row."""
    boxes: list[Box] = []
    points: list[tuple] = []
    rejected = 0
    while len(boxes) < count and rejected < 200:
        cand = []
        for _ in range(dim):
            lo = rng.randrange(0, span - 1)
            hi = rng.randrange(lo + 1, min(span, lo + 1 + span // 2) + 1)
            cand.append((2 * lo, 2 * hi))
        trial = boxes + [cand]
        moved = list(points)
        rejected += 1
        for v, p in enumerate(points):
            if _inside(p, cand):
                moved[v] = _exposed_point(rng, v, trial, 60)
                if moved[v] is None:
                    break
        else:
            own = _exposed_point(rng, len(boxes), trial, 60)
            if own is not None:
                boxes, points, rejected = trial, moved + [own], 0
    return boxes, points


def sweep_rep(rng: random.Random, dim: int, count: int, span: int) -> tuple[list[Box], list[Edge]]:
    """Random integer boxes, each with an exposed boundary point, and their intersection graph.

    A candidate box is kept only if it and every earlier box still have a facet
    point outside all other boxes, so the representation is valid by
    construction.  The points themselves are not written.  A placement that
    stalls is started again.
    """
    for _ in range(100):
        boxes, points = _place(rng, dim, count, span)
        if len(boxes) == count:
            break
    else:
        raise RuntimeError(f"could not place {count} exposed boxes in dimension {dim}")
    boxes = [[(lo // 2, hi // 2) for lo, hi in b] for b in boxes]
    edges = [
        (i + 1, j + 1)
        for i in range(count)
        for j in range(i + 1, count)
        if boxes_meet(boxes[i], boxes[j])
    ]
    return boxes, edges


def rep_json(boxes: list[Box]) -> dict:
    return {
        "dim": len(boxes[0]),
        "boxes": {str(v): [[str(lo), str(hi)] for lo, hi in b] for v, b in enumerate(boxes, start=1)},
    }


def plant_overlap(rng: random.Random, boxes: list[Box], edges: list[Edge]) -> tuple[list[Box], Edge]:
    """Stretch one box until it touches a box it is not adjacent to; the graph keeps its edges."""
    present = set(edges)
    pairs = [
        (i, j)
        for i in range(len(boxes))
        for j in range(len(boxes))
        if i != j and norm(i + 1, j + 1) not in present
    ]
    i, j = rng.choice(pairs)
    grown = []
    for (lo, hi), (blo, bhi) in zip(boxes[i], boxes[j]):
        if hi < blo:
            hi = blo
        elif bhi < lo:
            lo = bhi
        grown.append((lo, hi))
    out = list(boxes)
    out[i] = grown
    return out, norm(i + 1, j + 1)


def plant_buried(boxes: list[Box], edges: list[Edge]) -> tuple[list[Box], list[Edge], int]:
    """Add a box strictly inside a larger box; its boundary is then fully covered."""
    host = max(range(len(boxes)), key=lambda i: min(hi - lo for lo, hi in boxes[i]))
    inner = [(Fraction(lo) + Fraction(hi - lo, 4), Fraction(hi) - Fraction(hi - lo, 4)) for lo, hi in boxes[host]]
    out = boxes + [inner]
    v = len(out)
    new_edges = sorted(set(edges) | {norm(i + 1, v) for i in range(len(boxes)) if boxes_meet(boxes[i], inner)})
    return out, new_edges, v


# -- flow-attack: gain graphs split into blocks -------------------------------------------


def random_gain(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(1, 13), rng.randrange(1, 7))


def block_graph(rng: random.Random, n: int, k: int, m: int, complete: bool = False) -> dict:
    """Connected gain graph whose vertices fall into k connected blocks.

    Targets are all edges between blocks, so removing them leaves exactly the
    k blocks as components and the target set is stealth-feasible.  The block
    graph is a random tree plus extra inter-block edges, or complete when
    `complete` is set.  Returns n, edges, gains, targets and blocks.
    """
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    blocks = [sorted(labels[i::k]) for i in range(k)]
    block_of = {v: b for b, vs in enumerate(blocks) for v in vs}
    edges: set[Edge] = set()
    for vs in blocks:
        order = vs[:]
        rng.shuffle(order)
        edges |= {norm(order[i], order[rng.randrange(i)]) for i in range(1, len(order))}
    pairs = {(b, rng.randrange(b)) for b in range(1, k)}
    if complete:
        pairs = {(a, b) for a in range(k) for b in range(a)}
    for a, b in pairs:
        edges.add(norm(rng.choice(blocks[a]), rng.choice(blocks[b])))
    while len(edges) < m:
        u, v = rng.sample(labels, 2)
        edges.add(norm(u, v))
    edge_list = sorted(edges)
    gains = [random_gain(rng) for _ in edge_list]
    targets = [e for e in edge_list if block_of[e[0]] != block_of[e[1]]]
    return {"n": n, "edges": edge_list, "gains": gains, "targets": targets, "blocks": blocks}


def inner_cycle_edge(rng: random.Random, fg: dict) -> Edge:
    """An edge inside one block that lies on a cycle within that block."""
    blocks = fg["blocks"]
    block_of = {v: b for b, vs in enumerate(blocks) for v in vs}
    inner = [e for e in fg["edges"] if block_of[e[0]] == block_of[e[1]]]
    rng.shuffle(inner)
    for u, v in inner:
        adj: dict[int, set[int]] = {w: set() for w in blocks[block_of[u]]}
        for a, b in inner:
            if (a, b) != (u, v) and a in adj and b in adj:
                adj[a].add(b)
                adj[b].add(a)
        seen, stack = {u}, [u]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if v in seen:
            return (u, v)
    raise ValueError("no block contains a cycle")


def flows_of(fg: dict, x: list[Fraction]) -> list[Fraction]:
    """H x from per-edge gains: vertex net flows, then edge through flows."""
    n = fg["n"]
    z = [Fraction(0)] * (n + len(fg["edges"]))
    for pos, ((u, v), b) in enumerate(zip(fg["edges"], fg["gains"])):
        f = b * (x[u - 1] - x[v - 1])
        z[u - 1] += f
        z[v - 1] -= f
        z[n + pos] = f
    return z


def target_arg(targets: list[Edge]) -> str:
    return ",".join(f"{u}-{v}" for u, v in targets)
