"""minorkit benchmark: CLI jobs in a closed loop, one client, one process per workload.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload box-lift --seed 1 --seconds 30 --trace 0

Inputs are generated from the seed, written as files, and handed to
`minorkit.cli.main(argv)` in this process one job at a time, with stdout
captured.  The run executes its workload's job list in whole passes until
`--seconds` have passed (and at least three passes).  The first pass is checked
by independent code (checks.py); every later pass must give the same output.
Each job time is scaled to a reference speed (speed.py), and a job's latency
is the median of its scaled passes.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` passes alternate untraced and traced, and it carries the per-layer
metrics, including the tracing slowdown.  A full report (run facts, every
family's percentiles, the size-ladder breakdown, output digests, failures) is
written to .perfbench/reports/, and traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
SETUP_REFERENCES = 7
MIN_PASSES = 3
FAMILIES = ("build", "verify", "attack", "recover", "matrix", "theta")
TAIL_FAMILIES = ("build", "verify", "attack")
END_TO_END = (
    ("setup_s", "s"), ("jobs_per_s", "1/s"), ("peak_rss_mb", "MiB"), ("out_bits_mean", "bits"),
    ("lead_p50_ms", "ms"), ("lead_tail_ms", "ms"), ("check_p50_ms", "ms"),
)


def _import_cli(root: Path):
    sys.path.insert(0, str(root / "src"))
    from minorkit import cli

    return cli


# -- one job --------------------------------------------------------------------------------


def run_job(cli, job) -> tuple[float, int | None, str, str]:
    """Run one job in-process; return (seconds, exit code or None, stdout, crash)."""
    out = io.StringIO()
    saved = {key: os.environ.get(key) for key in job.env}
    os.environ.update(job.env)
    crash = ""
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = cli.main(job.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a traceback breaks the CLI contract; record it
                code, crash = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
    finally:
        for key, val in saved.items():
            if val is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = val
    return dt, code, out.getvalue(), crash


# a quoted integer or "p/q" string that is not an object key
_RATIO = re.compile(r'"-?(\d+)(?:/(\d+))?"(?!\s*:)')


def ratio_bits(text: str) -> int:
    """Largest numerator or denominator bit length among the rational strings in a JSON text."""
    digits = [d for pair in _RATIO.findall(text) for d in pair if d]
    if not digits:
        return 0
    longest = max(map(len, digits))
    return max(int(d).bit_length() for d in digits if len(d) >= longest - 1)


def _canonical(report: dict) -> dict:
    """The report without timing and file paths, for the output digest."""
    rep = {k: v for k, v in report.items() if k != "timing_ms"}
    rep["inputs"] = {k: v.get("sha256") for k, v in report.get("inputs", {}).items()}
    if isinstance(rep.get("results"), dict):
        rep["results"] = {k: v for k, v in rep["results"].items() if not k.endswith("_file")}
    return rep


def finish_job(job, dt: float, code, stdout: str, crash: str, check: bool = True) -> dict:
    """Check a finished job and summarise it for the report.

    With `check` false the output check is skipped; the caller compares the
    digest with the job's checked first pass instead.
    """
    problems: list[str] = []
    report = None
    files = {}
    if crash:
        problems.append(f"uncaught {crash}")
    elif code != job.expect:
        problems.append(f"exit {code}, expected {job.expect}")
    if stdout.strip():
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            problems.append("stdout is not JSON")
    if check and not problems and job.expect in (0, 1):
        if report is None:
            problems.append("no JSON report on stdout")
        else:
            try:
                problems += job.check(report, job.ctx)
            except (KeyError, TypeError, ValueError, OSError, ZeroDivisionError) as exc:
                problems.append(f"output check failed on {type(exc).__name__}: {exc}")
    out_bytes = len(stdout.encode())
    bits = ratio_bits(json.dumps(report.get("results"))) if report else 0
    for path in job.outputs:
        if os.path.exists(path):
            raw = Path(path).read_text()
            out_bytes += len(raw.encode())
            bits = max(bits, ratio_bits(raw))
            # key by the file's role (rep, H, attack...), not its instance tag
            files[Path(path).name.split("-", 1)[-1]] = json.loads(raw)
    digest_obj = {
        "argv0": job.argv[:2],
        "exit": code,
        "crash": crash.split(":")[0],
        "report": _canonical(report) if report else None,
        "files": files,
    }
    return {
        "family": job.family,
        "rung": job.rung,
        "seconds": dt,
        "exit": code,
        "defect": job.defect,
        "problems": problems,
        "bits": bits,
        "out_bytes": out_bytes,
        "digest": json.dumps(digest_obj, sort_keys=True, separators=(",", ":")),
    }


# -- statistics ------------------------------------------------------------------------------


def tail_percentile(count: int) -> int | None:
    """The highest whole percentile with at least 10 of `count` samples beyond it."""
    return math.floor(100 * (1 - 10 / count)) if count > 10 else None


def harrell_davis(values: list[float], q: float) -> float:
    """The q-quantile as a Beta-weighted mean of all order statistics (Harrell and Davis, 1982).

    It moves less with one instance's time than the one or two samples nearest
    to q, which is what a plain percentile reads.  The Beta(q(n+1), (1-q)(n+1))
    weight of each order statistic is integrated numerically.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 200 * n
    weights = [0.0] * n
    for k in range(steps):
        x = (k + 0.5) / steps
        weights[int(x * n)] += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm)
    return sum(w * v for w, v in zip(weights, xs)) / sum(weights)


def family_stats(jobs: list[dict]) -> dict:
    """Per command family: the median and the tail over its jobs' latencies.

    Every seed gives the same family and rung mix, so a percentile sits at the
    same place in the ladder.  Both are Harrell-Davis estimates.
    """
    out = {}
    for fam in FAMILIES:
        ms = [j["ms"] for j in jobs if j["family"] == fam]
        if not ms:
            continue
        out[f"{fam}_p50_ms"] = {"value": harrell_davis(ms, 0.5), "unit": "ms", "samples": len(ms)}
        pct = tail_percentile(len(ms))
        if fam in TAIL_FAMILIES and pct:
            out[f"{fam}_tail_ms"] = {"value": harrell_davis(ms, pct / 100), "unit": "ms", "samples": len(ms),
                                     "percentile": pct, "samples_beyond": len(ms) * (100 - pct) / 100}
    return out


def ladder(jobs: list[dict]) -> dict:
    rungs: dict[str, list[float]] = {}
    for j in jobs:
        if j["family"] != "contract":
            rungs.setdefault(f"{j['family']} {j['rung']}", []).append(j["ms"])
    return {k: {"p50_ms": statistics.median(v), "samples": len(v)} for k, v in sorted(rungs.items())}


# -- set-up ----------------------------------------------------------------------------------


def setup_probe(root: Path, workload: str, warm_dir: Path) -> int:
    """Child side of a set-up measurement: import minorkit, run the warm-up, say ready.

    After the ready line it times the reference computation and prints that too.
    """
    cli = _import_cli(root)
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    t0 = time.perf_counter()
    jobs = WORKLOADS[workload].make_warmup(random.Random(0), warm_dir)
    generation = time.perf_counter() - t0
    for job in jobs:
        run_job(cli, job)
    print("ready", generation, flush=True)
    from speed import reference_median

    print("reference", reference_median(SETUP_REFERENCES), flush=True)
    return 0


def measure_setup(root: Path, workload: str, warm_dir: Path) -> tuple[list[float], list[float]]:
    """Seconds from process start to ready, over several fresh interpreters: scaled and unscaled.

    Each probe starts a new interpreter that imports minorkit and runs the
    warm-up jobs; the time it spends writing the warm-up inputs is subtracted.
    The probe's time is scaled to the reference speed by the reference time
    the same interpreter measures right after.
    """
    from speed import REFERENCE_S

    samples, unscaled = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", str(warm_dir), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            word, _, generation = line.partition(" ")
            ref_word, _, ref = proc.stdout.readline().partition(" ")
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or word != "ready" or ref_word != "reference":
                raise RuntimeError("set-up probe failed")
        unscaled.append(ready - t0 - float(generation))
        samples.append(unscaled[-1] * REFERENCE_S / float(ref))
    return samples, unscaled


# -- run facts --------------------------------------------------------------------------------


def run_facts(root: Path, args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                                    timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed loop, one client, in-process cli.main(argv), one job at a time",
    }


# -- main --------------------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", dest="setup_probe", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if args.setup_probe:
        return setup_probe(root, args.workload, Path(args.setup_probe))

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (root / "src" / "minorkit" / "cli.py").is_file():
        print("run from the root of a minorkit checkout: src/minorkit is missing", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    out_dir = root / ".perfbench"
    work = out_dir / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    reports = out_dir / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    try:
        work.mkdir(parents=True)
        return _run(root, args, wl, work, reports)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(root: Path, args, wl, work: Path, reports: Path) -> int:
    from speed import REFERENCE_S, reference_median, reference_seconds, scaled
    from tracing import Tracer, per_layer_catalogue, per_layer_values

    warm = work / "warm"
    warm.mkdir()
    setup_samples, setup_unscaled = measure_setup(root, args.workload, warm)
    warm_jobs = wl.make_warmup(random.Random(0), warm)
    t_setup = time.perf_counter()
    cli = _import_cli(root)
    for job in warm_jobs:
        run_job(cli, job)
    in_process_setup = time.perf_counter() - t_setup
    reference_median(SETUP_REFERENCES)  # warm the reference computation too

    inputs = work / "inputs"
    inputs.mkdir()
    jobs = wl.make_jobs(random.Random(f"{args.workload}:{args.seed}"), inputs)
    tracer = Tracer() if args.trace else None
    first: list[dict] = []  # the checked first pass, one record per job
    order: list[int] = []  # untraced executions in the order they ran: job index,
    seconds: list[float] = []  # its seconds,
    refs: list[float] = []  # and the reference seconds timed just before it
    passes: list[dict] = []
    attempted = 0
    failures: list[dict] = []
    traced_seconds, traced_out_bytes = 0.0, 0
    start = time.perf_counter()
    # whole passes only: start another while it is expected to end no more than
    # half a pass past the requested time
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + 0.5 * (time.perf_counter() - start) / len(passes) <= args.seconds
    ):
        p = len(passes)
        traced = bool(tracer) and p % 2 == 1
        if traced:
            tracer.install()
        busy = 0.0
        mismatched = 0
        try:
            for i, job in enumerate(jobs):
                if traced:
                    tracer.start_job()
                else:
                    refs.append(reference_seconds())
                dt, code, stdout, crash = run_job(cli, job)
                rec = finish_job(job, dt, code, stdout, crash, check=p == 0)
                if p == 0:
                    first.append(rec)
                elif rec["digest"] != first[i]["digest"]:
                    rec["problems"] = rec["problems"] + ["output differs from the first pass"]
                    mismatched += 1
                else:
                    rec["problems"] = first[i]["problems"]
                attempted += 1
                if rec["problems"]:
                    failures.append({**rec, "pass": p})
                busy += dt
                if traced:
                    traced_seconds += dt
                    traced_out_bytes += rec["out_bytes"]
                else:
                    order.append(i)
                    seconds.append(dt)
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"jobs": len(jobs), "busy_s": busy, "traced": traced, "mismatched_outputs": mismatched})

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw: list[list[float]] = [[] for _ in jobs]
    scaled_s: list[list[float]] = [[] for _ in jobs]
    for i, t, st in zip(order, seconds, scaled(seconds, refs)):
        raw[i].append(t)
        scaled_s[i].append(st)
    timed = [{"family": rec["family"], "rung": rec["rung"], "ms": statistics.median(ts) * 1000,
              "fastest_ms": min(ts) * 1000, "unscaled_ms": statistics.median(rs) * 1000,
              "passes": len(ts), "bits": rec["bits"]}
             for rec, ts, rs in zip(first, scaled_s, raw)]
    fam = family_stats(timed)
    unexpected = [r for r in failures if not r["defect"]]
    digest = hashlib.sha256()
    for rec in first:
        digest.update(rec["digest"].encode())
    e2e = {
        "setup_s": statistics.median(setup_samples),
        "jobs_per_s": len(jobs) / sum(j["ms"] / 1000 for j in timed),
        "peak_rss_mb": rss_mb,
        "out_bits_mean": statistics.mean(rec["bits"] for rec in first),
        "lead_p50_ms": fam[f"{wl.lead}_p50_ms"]["value"],
        "lead_tail_ms": fam[f"{wl.lead}_tail_ms"]["value"],
        "check_p50_ms": fam[f"{wl.check}_p50_ms"]["value"],
    }
    report = {
        "facts": run_facts(root, args),
        "passes": passes,
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "known_defects": sorted({r["defect"] for r in first if r["defect"]}),
        "known_defects_failing": sorted({r["defect"] for r in failures if r["defect"]}),
        "failures": [{k: r[k] for k in ("pass", "family", "rung", "exit", "defect", "problems")} for r in failures],
        "setup_samples_s": setup_samples,
        "setup_unscaled_s": setup_unscaled,
        "setup_in_process_s": in_process_setup,
        "end_to_end": {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END},
        "slots": {"lead": wl.lead, "check": wl.check},
        "families": fam,
        "ladder_p50_ms": ladder(timed),
        "jobs": timed,
        "reference_ms": {"p50": statistics.median(refs) * 1000, "min": min(refs) * 1000,
                         "max": max(refs) * 1000, "scaled_to": REFERENCE_S * 1000},
        "unscaled_jobs_per_s": len(jobs) / sum(j["unscaled_ms"] / 1000 for j in timed),
        "executions": [[i, t, ref] for i, t, ref in zip(order, seconds, refs)],
        "output_sha256": digest.hexdigest(),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs x {len(passes)} passes, "
          f"{len(failures)} of {attempted} failed ({len(unexpected)} outside the known defects)")
    for name, m in fam.items():
        extra = f", p{m['percentile']}" if "percentile" in m else ""
        print(f"  {name} = {m['value']:.3f} {m['unit']} (n={m['samples']}{extra})")
    print(f"  error_rate = {report['error_rate']:.4f} ratio")
    for name, unit in END_TO_END:
        print(f"  {name} = {e2e[name]} {unit}")
    print(f"  output_sha256 = {report['output_sha256']}")

    if tracer:
        traced_jobs = sum(x["traced"] for x in passes) * len(jobs)
        untraced_per_job = sum(seconds) / len(seconds)
        slowdown = traced_seconds / traced_jobs / untraced_per_job
        vals = per_layer_values(tracer, traced_jobs, traced_out_bytes, slowdown)
        metrics = {name: {"value": vals[name], "unit": unit} for name, unit in per_layer_catalogue()}
        report["per_layer"] = metrics
        report["trace"] = {
            "slowdown": slowdown,
            "overhead_note": "traced vs untraced seconds per job, passes alternating in one process",
            "self_sum_max_error_s": tracer.self_sum_error(),
            "traced_jobs": traced_jobs,
            "span_records": len(tracer.spans),
        }
        span_file = reports / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write_spans(span_file)
        report["trace"]["span_file"] = str(span_file.relative_to(root))
        print(f"  trace slowdown = {slowdown:.3f}x, max |span - sum of layer self| = "
              f"{tracer.self_sum_error():.2e} s")
    else:
        metrics = report["end_to_end"]
    path = reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"  report: {path.relative_to(root)}")
    correct = not unexpected and (not tracer or tracer.self_sum_error() < 1e-6)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
