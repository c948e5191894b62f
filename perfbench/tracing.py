"""Span recording around minorkit's layers, from outside the program.

`Tracer.install()` wraps every public function of the modules graph, boxes,
build, flow, stealth, cli and ratio (plus a few methods), and rebinds each name
wherever a sibling module imported it, so nested calls are seen too.  Each span
has a name, start, end, parent and job id.  Self time (duration minus the time
child spans cover) is summed online per layer and per function; the spans
themselves are kept in memory and written once at the end.

Calls to the hottest leaf functions (ratio parsing and formatting, edge
normalisation, Graph construction) are counted and timed like any other but
not stored as span records, which would otherwise run to millions per job.  A few counters that
need the call's arguments or result are taken by hooks; their cost is booked
to a separate `trace` layer so per-job layer self times still add up to the
job's span.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("graph", "boxes", "build", "flow", "stealth", "cli", "ratio")
METHODS = {"graph": {"Graph": ("__init__",)}, "flow": {"GainMatrix": ("multiply", "row_sums")}}
UNSTORED = {"ratio.parse_ratio", "ratio.fmt_ratio", "graph.Graph", "graph.norm_edge"}
REP_BUILDERS = {
    "build.build_tree_rep",
    "build.build_threshold_rep",
    "build.lift_edge_add",
    "build.lift_vertex_add",
    "build.lift_uncontract",
}


def _fraction_bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.job = 0
        self.stack: list[list] = []  # [span id, seconds covered by child spans]
        self.next_id = 1
        self.spans: list[tuple] = []  # (job, id, parent, name, start, end)
        self.self_s: dict[str, float] = defaultdict(float)  # per function name
        self.layer_self: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.build_depth = 0
        self.coord_bits_max = 0
        self.job_spans: list[tuple[float, float]] = []  # (root span seconds, layer self sum)
        self._job_layer_sum = 0.0
        self._saved: list[tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------------------

    def install(self, package: str = "minorkit") -> None:
        mods = {name: importlib.import_module(f"{package}.{name}") for name in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrapped[id(obj)] = self._wrap(obj, layer, f"{layer}.{name}")
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    label = f"{layer}.{cls_name}" if meth == "__init__" else f"{layer}.{cls_name}.{meth}"
                    self._set(cls, meth, self._wrap(vars(cls)[meth], layer, label))
        for mod in list(mods.values()) + [importlib.import_module(package)]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, name, wrapped[id(obj)])

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()

    def _set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, fn, layer: str, name: str):
        tracer = self
        store = name not in UNSTORED
        hook = _HOOKS.get(name)
        is_build = layer == "build"
        makes_rep = name in REP_BUILDERS

        def traced(*args, **kwargs):
            enter = perf_counter()
            stack = tracer.stack
            span = tracer.next_id
            tracer.next_id += 1
            frame = [span, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            if is_build:
                tracer.build_depth += 1
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                if is_build:
                    tracer.build_depth -= 1
                own = t1 - t0 - frame[1]
                tracer.self_s[name] += own
                tracer.layer_self[layer] += own
                tracer.calls[name] += 1
                if makes_rep:
                    tracer.counters["build.reps_made"] += 1
                if hook is not None:
                    hook(tracer, args, result)
                if store:
                    tracer.spans.append((tracer.job, span, parent, name, t0, t1))
                t2 = perf_counter()
                # wrapper bookkeeping and hooks are booked to the trace layer
                overhead = (t0 - enter) + (t2 - t1)
                tracer.layer_self["trace"] += overhead
                tracer._job_layer_sum += own + overhead
                if stack:
                    stack[-1][1] += t2 - enter
                else:
                    tracer.job_spans.append((t2 - enter, tracer._job_layer_sum))
                    tracer._job_layer_sum = 0.0

        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------------------

    def start_job(self) -> None:
        self.job += 1

    def self_sum_error(self) -> float:
        """Largest |root span - sum of layer self times| over traced jobs, in seconds."""
        return max((abs(span - total) for span, total in self.job_spans), default=0.0)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for job, span, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"job": job, "id": span, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")


def _verify_c1_hook(tracer: Tracer, args, result) -> None:
    rep = args[1]
    n = len(rep.boxes)
    tracer.counters["boxes.c1_pairs"] += n * (n - 1) // 2
    if tracer.build_depth > 0:
        tracer.counters["build.c1_in_build"] += 1
    bits = max(_fraction_bits(x) for b in rep.boxes.values() for iv in b.intervals for x in iv)
    tracer.coord_bits_max = max(tracer.coord_bits_max, bits)


def _robust_hook(tracer: Tracer, args, result) -> None:
    if result is None:
        return
    sv, threshold = result
    ratio = sv.lam / threshold
    tracer.counters["stealth.robust_doublings"] += ratio.numerator.bit_length() - 1
    tracer.counters["stealth.robust_calls"] += 1


_HOOKS = {"boxes.verify_c1": _verify_c1_hook, "stealth.build_robust_stealth": _robust_hook}


# -- per-layer metrics -------------------------------------------------------------------

SELF = [
    "graph.record_edit", "graph.replay_edits", "graph.components",
    "boxes.verify_c1", "boxes.verify_c2", "boxes.witness_radius", "boxes.exposed_witness",
    "boxes.rep_from_json", "boxes.rep_to_json",
    "build.build_from_edit_sequence", "build.lift_edge_add", "build.lift_vertex_add",
    "build.lift_uncontract", "build.build_tree_rep", "build.build_threshold_rep",
    "flow.assemble_gain_matrix", "flow.GainMatrix.multiply", "flow.GainMatrix.row_sums",
    "flow.recover_states", "flow.matrix_to_json",
    "stealth.feasibility", "stealth.build_stealth", "stealth.build_stealth_colored",
    "stealth.color_assignment", "stealth.variation_limit_schedule",
    "stealth.best_constructive_ratio", "stealth.theta_oracle", "stealth.build_robust_stealth",
    "stealth.robust_attack_audit",
]
CALLS = [
    "graph.Graph", "graph.record_edit", "graph.components", "graph.bfs_path",
    "boxes.verify_c1", "boxes.verify_c2", "boxes.witness_radius", "boxes.exposed_witness",
    "build.build_from_edit_sequence", "build.lift_edge_add", "build.lift_vertex_add",
    "build.lift_uncontract", "build.build_tree_rep",
    "flow.assemble_gain_matrix", "flow.GainMatrix.multiply",
    "ratio.parse_ratio", "ratio.fmt_ratio",
]


def per_layer_catalogue() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric, in report order."""
    out = [(f"{layer}.self_s", "s/job") for layer in LAYERS]
    out += [(f"{name}.self_s", "s/job") for name in SELF]
    out += [(f"{name}.calls", "1/job") for name in CALLS]
    out += [
        ("boxes.c1_pairs", "1/job"),
        ("boxes.coord_bits_max", "bits"),
        ("build.c1_per_step", "ratio"),
        ("stealth.robust_doublings", "count"),
        ("cli.out_bytes", "B/job"),
        ("trace.self_s", "s/job"),
        ("trace.slowdown", "ratio"),
    ]
    return out


def per_layer_values(tracer: Tracer, jobs: int, out_bytes: int, slowdown: float) -> dict[str, float]:
    """Per-job averages over the traced jobs, plus the ratios and maxima."""
    jobs = max(jobs, 1)
    vals: dict[str, float] = {}
    for layer in LAYERS:
        vals[f"{layer}.self_s"] = tracer.layer_self[layer] / jobs
    for name in SELF:
        vals[f"{name}.self_s"] = tracer.self_s[name] / jobs
    for name in CALLS:
        vals[f"{name}.calls"] = tracer.calls[name] / jobs
    c = tracer.counters
    vals["boxes.c1_pairs"] = c["boxes.c1_pairs"] / jobs
    vals["boxes.coord_bits_max"] = tracer.coord_bits_max
    vals["build.c1_per_step"] = c["build.c1_in_build"] / c["build.reps_made"] if c["build.reps_made"] else 0.0
    robust = c["stealth.robust_calls"]
    vals["stealth.robust_doublings"] = c["stealth.robust_doublings"] / robust if robust else 0.0
    vals["cli.out_bytes"] = out_bytes / jobs
    vals["trace.self_s"] = tracer.layer_self["trace"] / jobs
    vals["trace.slowdown"] = slowdown
    return vals
