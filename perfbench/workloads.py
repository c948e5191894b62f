"""The workloads, each a size ladder of CLI jobs.

A workload makes its job list once from the seed's random generator, writing
the inputs under the run's directory; the run then executes that list in
several passes.  The list has the same composition (rungs, families, counts)
for every seed, so a percentile over its jobs sits at the same place in the
ladder whatever the seed.  Only the random structure of each instance changes
with the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks as ck
import gen


@dataclass
class Job:
    family: str  # build | verify | attack | recover | matrix | theta | contract
    rung: str
    argv: list[str]
    expect: int
    check: Callable[[dict, dict], list[str]]
    ctx: dict = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    defect: str = ""  # known contract defect this job probes, if any
    env: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    lead: str  # family behind lead_p50_ms / lead_tail_ms
    check: str  # family behind check_p50_ms
    make_jobs: Callable[[random.Random, Path], list[Job]]
    make_warmup: Callable[[random.Random, Path], list[Job]]


# -- box-lift -------------------------------------------------------------------------------

# (n, extra, instances): 40 builds, so the median and p75 fall inside the n=20 and n=24 rungs
LIFT_RUNGS = [(12, 2, 5), (16, 4, 3), (20, 6, 6), (24, 8, 4), (32, 14, 1), (40, 10, 1)]


def _lift_jobs(rng: random.Random, d: Path, n: int, extra: int, tag: str) -> list[Job]:
    edges = gen.connected_graph(rng, n, extra)
    gfile = gen.write_json(d / f"{tag}-g.json", gen.graph_json(n, edges))
    ops, dim = gen.edit_list(rng, n, edges)
    efile = gen.write_json(d / f"{tag}-e.json", ops)
    rung = f"n={n},extra={extra}"
    jobs = []
    for kind, extra_argv, ctx in (
        ("tree", [], {"dim": 2 + extra, "steps": extra}),
        ("edits", ["--edits", efile], {"dim": dim, "steps": len(ops)}),
    ):
        rep = str(d / f"{tag}-{kind}-rep.json")
        ctx.update(n=n, edges=edges, rep_out=rep)
        jobs.append(Job("build", f"{rung},{kind}", ["box", "build", gfile, "--strategy", "edits",
                                                    *extra_argv, "--out", rep],
                        0, ck.build_problems, ctx, [rep]))
        jobs.append(Job("verify", f"{rung},{kind}", ["box", "verify", rep, gfile], 0,
                        ck.verify_ok_problems, {"rep": rep}))
    return jobs


def _malformed_box(d: Path, tag: str) -> list[Job]:
    bad = d / f"{tag}-bad.json"
    bad.write_text("{not json")
    loop = gen.write_json(d / f"{tag}-loop.json", {"n": 3, "edges": [{"u": 1, "v": 1}]})
    return [
        Job("contract", "malformed-rep", ["box", "verify", str(bad), loop], 2, ck.no_problems),
        Job("contract", "self-loop", ["box", "build", loop, "--strategy", "tree"], 2, ck.no_problems),
    ]


def box_lift_jobs(rng: random.Random, d: Path) -> list[Job]:
    jobs = []
    for n, extra, count in LIFT_RUNGS:
        for i in range(count):
            jobs += _lift_jobs(rng, d, n, extra, f"n{n}-{i}")
    return jobs + _malformed_box(d, "m")


def box_lift_warmup(rng: random.Random, d: Path) -> list[Job]:
    return _lift_jobs(rng, d, 8, 1, "w") + _malformed_box(d, "w")


# -- box-sweep ------------------------------------------------------------------------------

THRESHOLD_CLIQUES = (8, 16, 24, 30)
TREES = (("path", 50), ("caterpillar", 80), ("path", 100), ("caterpillar", 150), ("path", 200))
SWEEPS = ((2, 32, 24), (3, 40, 14), (4, 48, 10), (3, 56, 12), (4, 60, 12), (2, 48, 30))


def _tree_job(rng: random.Random, d: Path, shape: str, n: int, tag: str) -> Job:
    edges = gen.path_tree(n) if shape == "path" else gen.caterpillar(rng, n // 2, n - n // 2)
    gfile = gen.write_json(d / f"{tag}-g.json", gen.graph_json(n, edges))
    rep = str(d / f"{tag}-rep.json")
    ctx = {"n": n, "edges": edges, "dim": 2, "rep_out": rep}
    return Job("build", f"tree,{shape},n={n}", ["box", "build", gfile, "--strategy", "tree", "--out", rep],
               0, ck.build_problems, ctx, [rep])


def _threshold_job(rng: random.Random, d: Path, clique: int, tag: str) -> Job:
    sizes = gen.nested_sizes(rng, clique, rng.randint(3, 6))
    rep, gout = str(d / f"{tag}-rep.json"), str(d / f"{tag}-g.json")
    ctx = {"n": clique + len(sizes), "edges": gen.threshold_edges(clique, sizes), "dim": 2,
           "rep_out": rep, "graph_out": gout}
    argv = ["box", "build", "--strategy", "threshold", "--clique", str(clique),
            "--nested", ",".join(map(str, sizes)), "--out", rep, "--graph-out", gout]
    return Job("build", f"threshold,clique={clique}", argv, 0, ck.build_problems, ctx, [rep, gout])


def _sweep_job(rng: random.Random, d: Path, dim: int, count: int, span: int, tag: str,
                broken: str = "") -> Job:
    boxes, edges = gen.sweep_rep(rng, dim, count, span)
    ctx: dict = {}
    check = ck.verify_ok_problems
    expect = 0
    if broken == "overlap":
        boxes, ctx["pair"] = gen.plant_overlap(rng, boxes, edges)
        check, expect = ck.verify_overlap_problems, 1
    elif broken == "buried":
        boxes, edges, ctx["buried"] = gen.plant_buried(boxes, edges)
        check, expect = ck.verify_buried_problems, 1
    gfile = gen.write_json(d / f"{tag}-g.json", gen.graph_json(len(boxes), edges))
    ctx["rep"] = gen.write_json(d / f"{tag}-rep.json", gen.rep_json(boxes))
    rung = f"sweep,dim={dim},boxes={count}" + (f",{broken}" if broken else "")
    return Job("verify", rung, ["box", "verify", ctx["rep"], gfile], expect, check, ctx)


def box_sweep_jobs(rng: random.Random, d: Path) -> list[Job]:
    jobs = [_threshold_job(rng, d, c, f"thr{c}") for c in THRESHOLD_CLIQUES]
    jobs += [_tree_job(rng, d, shape, n, f"{shape}{n}") for shape, n in TREES]
    jobs += [_sweep_job(rng, d, *spec, f"sw{i}") for i, spec in enumerate(SWEEPS)]
    jobs.append(_sweep_job(rng, d, 3, 40, 14, "swo", broken="overlap"))
    jobs.append(_sweep_job(rng, d, 2, 40, 26, "swb", broken="buried"))
    return jobs + _malformed_box(d, "m")


def box_sweep_warmup(rng: random.Random, d: Path) -> list[Job]:
    return [
        _threshold_job(rng, d, 4, "wthr"),
        _tree_job(rng, d, "path", 10, "wpath"),
        _sweep_job(rng, d, 2, 8, 10, "wsw"),
    ] + _malformed_box(d, "w")


# -- flow-attack -----------------------------------------------------------------------------

# (n, k, instances, commands): the top rung repeats the n=400, m=800 table case for
# matrix, basic attack and recover, and carries k=65 for build_stealth.  With the
# robust, schedule and infeasible jobs that makes 24 attack jobs, 7 below the
# n=100 rung and 7 above it, so their median sits mid-rung and their p58 in it
# too.  Each instance replays its bundle on RECOVERS flow vectors: 27 recover
# jobs, 15 of them at n=100, so their median also sits mid-rung.
FLOW_RUNGS = [
    (50, 5, 2, ("matrix", "basic", "colored", "recover")),
    (100, 20, 5, ("matrix", "basic", "colored", "recover")),
    (200, 100, 1, ("matrix", "basic", "colored", "recover")),
    (400, 65, 1, ("matrix", "basic", "recover")),
]
RECOVERS = 3
ROBUST = ((40, 4), (60, 5))
THETA = ((24, 3), (24, 4))
SCHEDULE = ((30, 3), (30, 4), (30, 5))


def _flow_files(rng: random.Random, d: Path, n: int, k: int, tag: str, complete: bool = False):
    fg = gen.block_graph(rng, n, k, 2 * n, complete=complete)
    gfile = gen.write_json(d / f"{tag}-g.json", gen.graph_json(n, fg["edges"], fg["gains"]))
    return fg, gfile


def _flow_instance(rng: random.Random, d: Path, n: int, k: int, commands, tag: str) -> list[Job]:
    fg, gfile = _flow_files(rng, d, n, k, tag)
    target = gen.target_arg(fg["targets"])
    rung = f"n={n},k={k}"
    bundle = str(d / f"{tag}-attack.json")
    jobs = []
    for cmd in commands:
        if cmd == "matrix":
            out = str(d / f"{tag}-H.json")
            jobs.append(Job("matrix", rung, ["flow", "matrix", gfile, "--out", out], 0,
                            ck.matrix_problems, {**fg, "matrix": out}, [out]))
        elif cmd == "basic":
            jobs.append(Job("attack", rung + ",basic", ["flow", "attack", gfile, "--target", target,
                                                        "--out", bundle],
                            0, ck.attack_problems, {**fg, "bundle": bundle}, [bundle]))
        elif cmd == "colored":
            jobs.append(Job("attack", rung + ",colored", ["flow", "attack", gfile, "--target", target,
                                                          "--mode", "colored"],
                            0, ck.attack_problems, fg))
        elif cmd == "recover":
            for j in range(RECOVERS):
                x = [Fraction(0)] + [Fraction(rng.randrange(-40, 41), rng.randrange(1, 9)) for _ in range(n - 1)]
                zfile = gen.write_json(d / f"{tag}-z{j}.json", {"values": [str(v) for v in gen.flows_of(fg, x)]})
                jobs.append(Job("recover", rung, ["flow", "recover", gfile, "--flows", zfile, "--attack", bundle],
                                0, ck.recover_problems, {**fg, "x": x, "bundle": bundle}))
    return jobs


def _robust_job(rng: random.Random, d: Path, n: int, k: int, tag: str, env=None, defect="") -> Job:
    fg, gfile = _flow_files(rng, d, n, k, tag)
    argv = ["flow", "attack", gfile, "--target", gen.target_arg(fg["targets"]), "--mode", "robust"]
    if defect:
        return Job("contract", "robust,bad-seed", argv, 2, ck.no_problems, defect=defect, env=env)
    return Job("attack", f"n={n},k={k},robust", argv, 0, ck.robust_problems, fg)


def _known_defects(rng: random.Random, d: Path) -> list[Job]:
    """Inputs the CLI mishandles today (ROADMAP item 5): each should exit 2."""
    fg, gfile = _flow_files(rng, d, 12, 3, "kd")
    target = gen.target_arg(fg["targets"])
    x = [Fraction(v) for v in range(fg["n"])]
    zfile = gen.write_json(d / "kd-z.json", {"values": [str(v) for v in gen.flows_of(fg, x)]})
    t = len(fg["edges"]) + fg["n"]
    text_target = gen.write_json(d / "kd-textual.json", {"targets": [["1", "x"]], "a": ["0"] * t})
    short = gen.write_json(d / "kd-short.json", {"targets": [list(e) for e in fg["targets"]], "a": ["1"] * (t - 1)})
    return [
        Job("contract", "bundle,non-integer-target", ["flow", "recover", gfile, "--flows", zfile,
                                                      "--attack", text_target],
            2, ck.no_problems, defect="non-integer target in an attack bundle"),
        Job("contract", "bundle,short-attack", ["flow", "recover", gfile, "--flows", zfile, "--attack", short],
            2, ck.no_problems, defect="attack vector shorter than the flows"),
        Job("contract", "matrix,unwritable-out", ["flow", "matrix", gfile, "--out", str(d / "missing" / "H.json")],
            2, ck.no_problems, defect="unwritable --out"),
        _robust_job(rng, d, 12, 2, "kdseed", env={"MINORKIT_SEED": "abc"}, defect="MINORKIT_SEED=abc"),
        Job("contract", "target-not-an-edge", ["flow", "attack", gfile, "--target", f"{target},1-1"],
            2, ck.no_problems),
    ]


def flow_attack_jobs(rng: random.Random, d: Path) -> list[Job]:
    jobs = []
    for n, k, count, commands in FLOW_RUNGS:
        for i in range(count):
            jobs += _flow_instance(rng, d, n, k, commands, f"n{n}-{i}")
    jobs += [_robust_job(rng, d, n, k, f"rob{n}") for n, k in ROBUST]
    for n, k in THETA:
        fg, gfile = _flow_files(rng, d, n, k, f"th{k}", complete=True)
        jobs.append(Job("theta", f"n={n},k={k}", ["flow", "theta", gfile, "--target", gen.target_arg(fg["targets"])],
                        0, ck.theta_problems, fg))
    for n, k in SCHEDULE:
        fg, gfile = _flow_files(rng, d, n, k, f"sg{k}", complete=True)
        argv = ["flow", "attack", gfile, "--target", gen.target_arg(fg["targets"]), "--mode", "colored",
                "--schedule-gap", "1/100"]
        jobs.append(Job("attack", f"n={n},k={k},schedule", argv, 0, ck.attack_problems, {**fg, "gap": Fraction(1, 100)}))
    for i in range(2):
        fg, gfile = _flow_files(rng, d, 50, 5, f"inf{i}")
        bad = gen.inner_cycle_edge(rng, fg)
        targets = sorted(fg["targets"] + [bad])
        jobs.append(Job("attack", "n=50,k=5,infeasible", ["flow", "attack", gfile, "--target", gen.target_arg(targets)],
                        1, ck.infeasible_problems, {**fg, "targets": targets}))
    return jobs + _known_defects(rng, d)


def flow_attack_warmup(rng: random.Random, d: Path) -> list[Job]:
    jobs = _flow_instance(rng, d, 12, 3, ("matrix", "basic", "colored", "recover"), "w")
    fg, gfile = _flow_files(rng, d, 10, 2, "wth", complete=True)
    jobs.append(Job("theta", "warm", ["flow", "theta", gfile, "--target", gen.target_arg(fg["targets"])],
                    0, ck.theta_problems, fg))
    return jobs


WORKLOADS = {
    "box-lift": Workload("build", "verify", box_lift_jobs, box_lift_warmup),
    "box-sweep": Workload("build", "verify", box_sweep_jobs, box_sweep_warmup),
    "flow-attack": Workload("attack", "recover", flow_attack_jobs, flow_attack_warmup),
}
