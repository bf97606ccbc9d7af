"""Benchmark of the trace-cache VM: end-to-end metrics and a layer ladder.

Run from the repository root::

    python3 bench/run.py                    # all workloads, 5 children each
    python3 bench/run.py --workload branchy --seed 3 --seconds 25
    python3 bench/run.py --workload cold-many --trace 1
    python3 bench/run.py --out bench/results/set-a/run-1.json
    python3 bench/run.py --regen-expected

This process imports ``repro`` from ``src/`` only to check inputs and
build references before any timing.  Every measurement happens in child
processes (``bench/child.py``), one at a time; with several workloads
the children are interleaved round-robin, so a slow stretch of the host
touches every workload a little instead of one workload fully.

Every run is checked against the switch interpreter's value, printed
output and instruction count (``bench/expected.json`` for seed 0,
``bench/.cache/`` for other seeds).  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; with
several workloads ``metrics`` maps each workload to its metrics.  Exit
status: 0 when every run was correct, 1 when one was not, 2 when the
benchmark could not start (no ``src/repro``, or a generated source no
longer matches its pinned hash).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import plan

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
CACHE = BENCH / ".cache"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"

DEFAULT_CHILDREN = 5
MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 170

# (name, unit, better): the end-to-end metrics, measured with obs off.
E2E = (
    ("setup_s", "s", "lower"),
    ("minstr_per_s", "Minstr/s", "higher"),
    ("steady_minstr_per_s", "Minstr/s", "higher"),
    ("first_result_gmean_s", "s", "lower"),
    ("job_p90_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

# (name, unit, better): the per-layer metrics of a --trace run.
PER_LAYER = (
    ("lang.compile_s", "s", "lower"),
    ("api.vm_init_s", "s", "lower"),
    ("core.profiler.signals", "count", "lower"),
    ("core.profiler.resignals", "count", "lower"),
    ("core.profiler.bcg_nodes", "count", "lower"),
    ("core.trace_cache.construct_s", "s", "lower"),
    ("core.trace_cache.traces_constructed", "count", "lower"),
    ("core.trace_cache.traces_invalidated", "count", "lower"),
    ("core.trace_cache.coverage", "fraction", "higher"),
    ("core.trace_cache.completion_rate", "fraction", "higher"),
    ("core.trace_cache.avg_trace_length", "blocks", "higher"),
    ("core.controller.dispatch_s", "s", "lower"),
    ("core.controller.dispatches", "count", "lower"),
    ("core.controller.instr_per_dispatch", "instr", "higher"),
    ("core.controller.trace_dispatch_share", "fraction", "higher"),
    ("opt.codegen_s", "s", "lower"),
    ("opt.compile_s", "s", "lower"),
    ("opt.traces_compiled", "count", "lower"),
    ("opt.shapes_compiled", "count", "lower"),
    ("opt.shape_reuse", "fraction", "higher"),
    ("opt.source_kb", "KiB", "lower"),
    ("opt.side_exit_rate", "fraction", "lower"),
    ("core.links.links_installed", "count", "higher"),
    ("core.links.linked_transfer_share", "fraction", "higher"),
    ("core.links.superblocks", "count", "higher"),
    ("store.load_s", "s", "lower"),
    ("store.seed_s", "s", "lower"),
    ("store.save_s", "s", "lower"),
    ("store.traces_loaded", "count", "higher"),
    ("store.shapes_precompiled", "count", "higher"),
    ("obs.overhead", "fraction", "lower"),
) + tuple((f"ladder.{rung}_s", "s", "lower") for rung, _ in plan.LADDER) + (
    ("machine.probe_s", "s", "lower"),
)

# Span name -> layer, for the Chrome trace categories and layers.json.
SPAN_LAYERS = {
    "lang.compile_source": "lang", "api.VM": "api", "VM.run": "core",
    "obs.construct": "core.trace_cache", "obs.codegen": "opt",
    "ProfileStore.load": "store", "VM.load_profile": "store",
    "VM.save_profile": "store", "SwitchInterpreter.run": "jvm",
    "ThreadedInterpreter.run": "jvm",
}


class SetupError(Exception):
    """The benchmark cannot start: nothing is timed, exit status 2."""


# ----------------------------------------------------------------------
# Inputs and references (this process, before any timing).

def import_repro() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SetupError(f"no src/repro under {ROOT}: run from a checkout "
                         "of the repository")
    sys.path.insert(0, str(ROOT / "src"))


def reference(entry: dict) -> dict:
    """The switch interpreter's observable result for a program entry."""
    from repro.jvm import SwitchInterpreter
    from repro.lang import compile_source
    source = plan.source(entry)
    interp = SwitchInterpreter(compile_source(source))
    interp.run()
    return {**entry, "source_sha256": plan.sha256(source),
            **plan.outcome(interp.result, interp.output, interp.instr_count)}


def regen_expected(path: Path) -> None:
    programs = {}
    for key, entry in plan.pinned_programs().items():
        programs[key] = reference(entry)
        print(f"{key:18s} {programs[key]['instructions']:>10d} instructions")
    write_json(path, {"schema": 1, "seed": 0, "programs": programs})
    print(f"wrote {path}")


def verify_pinned(expected: dict) -> None:
    """Exit 2 when a seed-0 source differs from its pinned hash, so a
    workload edit cannot pass as a speed change."""
    pinned = expected.get("programs", {})
    for key, entry in plan.pinned_programs().items():
        sha = plan.sha256(plan.source(entry))
        if key not in pinned or pinned[key].get("source_sha256") != sha:
            raise SetupError(
                f"{key}: generated source (sha256 {sha[:12]}) does not "
                f"match expected.json; the workload changed.  Run "
                f"--regen-expected only if that is intended.")


def references(seed: int, workloads, expected: dict) -> dict:
    """References for every program `workloads` run at `seed`.

    Programs identical to a pinned one reuse expected.json; others are
    run on the switch interpreter once and cached under bench/.cache/.
    """
    cache_path = CACHE / f"refs-seed{seed}.json"
    cached = read_json(cache_path) if cache_path.exists() else {}
    refs, dirty = {}, False
    for workload in workloads:
        for key, entry in workload.programs(seed).items():
            sha = plan.sha256(plan.source(entry))
            for known in (expected["programs"].get(key), cached.get(key)):
                if known is not None and known["source_sha256"] == sha:
                    refs[key] = known
                    break
            else:
                refs[key] = cached[key] = reference(entry)
                dirty = True
    if dirty:
        write_json(cache_path, cached)
    return refs


def train_profiles(seed: int, workload, refs: dict) -> dict:
    """Save one .rprof per program of `workload`, from a first run with
    the end-to-end configuration; returns ``{key: path}``."""
    from repro.api import VM
    from repro.lang import compile_source
    config = plan.e2e_config()
    directory = CACHE / "profiles" / f"seed{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, entry in workload.programs(seed).items():
        vm = VM(compile_source(plan.source(entry)), config)
        result = vm.run()
        why = plan.mismatch(plan.outcome(result.value, result.output,
                                         result.stats.instr_total), refs[key])
        if why is not None:
            raise RuntimeError(f"training run of {key}: {why}")
        path = directory / (key.replace("/", "-") + ".rprof")
        vm.save_profile(path)
        paths[key] = str(path)
    return paths


# ----------------------------------------------------------------------
# Children.

def run_child(spec: dict) -> dict | None:
    """Run one child to completion; its result, or None if it failed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py")],
            input=json.dumps(spec), capture_output=True, text=True,
            cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"child timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def jobs_spec(workload, seed: int, child: int, refs: dict, profiles,
              traced: bool) -> dict:
    programs = workload.programs(seed)
    return {"mode": "jobs", "programs": programs,
            "order": workload.order(seed, child), "runs": workload.runs,
            "refs": {k: refs[k] for k in programs}, "profiles": profiles,
            "traced": traced}


class Tally:
    """Runs attempted and failed, with the first few error messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, result: dict | None, planned_runs: int) -> None:
        self.attempted += planned_runs
        if result is None:
            self.failed += planned_runs
            self.errors.append("child process failed")
            return
        for job in result["jobs"]:
            self.failed += job["failed"]
            self.errors.extend(job["errors"])
        del self.errors[10:]

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "error_rate": self.failed / max(1, self.attempted),
                "errors": self.errors}


# ----------------------------------------------------------------------
# End-to-end metrics.

def e2e_values(children: list[dict]) -> dict:
    """The end-to-end metrics over `children`, pooling their samples.

    Per program: the fastest of its samples, because the host's noise
    almost always slows a job down (see bench/README.md).  Throughput is
    instructions over the sum of those times; first-result time is
    their geometric mean; p90 is taken over the job mix.
    """
    by_key: dict[str, list[dict]] = {}
    for child in children:
        for job in child["jobs"]:
            if job["failed"] == 0:
                by_key.setdefault(job["key"], []).append(job)
    instr = steady_instr = 0
    steady_time = log_first = 0.0
    job_times = []
    for jobs in by_key.values():
        runs = jobs[0]["runs"]
        steady = runs[1:] or runs
        instr += sum(r["instructions"] for r in runs)
        steady_instr += sum(r["instructions"] for r in steady)
        job_times.append(min(j["job_s"] for j in jobs))
        steady_time += min(
            sum(r["s"] for r in (j["runs"][1:] or j["runs"])) for j in jobs)
        log_first += math.log(min(j["first_s"] for j in jobs))
    return {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "minstr_per_s": instr / sum(job_times) / 1e6,
        "steady_minstr_per_s": steady_instr / steady_time / 1e6,
        "first_result_gmean_s": math.exp(log_first / len(by_key)),
        "job_p90_s": p90(job_times),
        "peak_rss_mb": min(c["peak_rss_kb"] for c in children) / 1024,
    }


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def e2e_report(children: list[dict]) -> dict:
    """Each end-to-end metric over all children, and per child."""
    done = [c for c in children
            if any(j["failed"] == 0 for j in c["jobs"])]
    if not done:
        return {}
    pooled = e2e_values(done)
    per_child = [e2e_values([c]) for c in done]
    return {name: {"value": pooled[name], "unit": unit,
                   "per_child": [v[name] for v in per_child]}
            for name, unit, _ in E2E}


def run_e2e(workloads, seed: int, children: int | None,
            seconds: float | None, refs: dict, profiles: dict) -> dict:
    """Children round-robin over `workloads`, one at a time: `children`
    rounds, or rounds while they fit in `seconds` (at least
    MIN_CHILDREN)."""
    if children is None and seconds is None:
        children = DEFAULT_CHILDREN
    results: dict[str, list] = {w.name: [] for w in workloads}
    tallies = {w.name: Tally() for w in workloads}
    started = time.perf_counter()
    round_s = 0.0
    index = 0
    while True:
        if children is not None:
            if index >= children:
                break
        elif index >= MIN_CHILDREN and \
                time.perf_counter() - started + round_s > seconds:
            break
        round_started = time.perf_counter()
        for w in workloads:
            spec = jobs_spec(w, seed, index, refs, profiles.get(w.name),
                             traced=False)
            result = run_child(spec)
            results[w.name].append(result)
            tallies[w.name].add(result, len(spec["order"]) * w.runs)
        round_s = time.perf_counter() - round_started
        index += 1
    report = {}
    for w in workloads:
        done = [c for c in results[w.name] if c is not None]
        probes = [p for c in done for p in c["probe_s"]]
        report[w.name] = {
            "children": len(results[w.name]),
            "metrics": e2e_report(done),
            "probe_s": statistics.median(probes) if probes else None,
            **tallies[w.name].as_dict(),
        }
    return report


# ----------------------------------------------------------------------
# Traced run: per-layer metrics, the ladder, trace.json, layers.json.

def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(untraced: list, traced: dict, ladder: dict) -> dict:
    """Per-layer metrics: counters of the traced child's jobs, store
    calls of every traced child, job time of the traced child against
    the untraced children around it, and the ladder's rung times."""
    counts: dict[str, float] = {}
    for job in traced["jobs"]:
        for name, value in job.get("layers", {}).items():
            counts[name] = counts.get(name, 0) + value
    c = counts.get
    rungs = [r for r, _ in ladder.values() if r is not None]
    store = {}
    for result in [traced] + rungs:
        for name, value in result["store"].items():
            store[name] = store.get(name, 0) + value
    untraced_s = statistics.mean(sum(j["job_s"] for j in r["jobs"])
                                 for r in untraced)
    values = {
        "lang.compile_s": sum(j.get("compile_s", 0.0)
                              for j in traced["jobs"]),
        "api.vm_init_s": sum(j.get("init_s", 0.0) for j in traced["jobs"]),
        "core.profiler.signals": c("signals", 0),
        "core.profiler.resignals": c("resignals", 0),
        "core.profiler.bcg_nodes": c("bcg_nodes", 0),
        "core.trace_cache.construct_s": c("construct_s", 0.0),
        "core.trace_cache.traces_constructed": c("traces_constructed", 0),
        "core.trace_cache.traces_invalidated": c("traces_invalidated", 0),
        "core.trace_cache.coverage":
            ratio(c("instr_in_completed", 0), c("instructions", 0)),
        "core.trace_cache.completion_rate":
            ratio(c("trace_completions", 0), c("trace_entries", 0)),
        "core.trace_cache.avg_trace_length":
            ratio(c("completed_blocks", 0), c("trace_completions", 0)),
        "core.controller.dispatch_s": c("dispatch_s", 0.0),
        "core.controller.dispatches": c("dispatches", 0),
        "core.controller.instr_per_dispatch":
            ratio(c("instructions", 0), c("dispatches", 0)),
        "core.controller.trace_dispatch_share":
            ratio(c("trace_dispatches", 0), c("dispatches", 0)),
        "opt.codegen_s": c("codegen_s", 0.0),
        "opt.compile_s": c("compile_s", 0.0),
        "opt.traces_compiled": c("traces_compiled", 0),
        "opt.shapes_compiled": c("shapes_compiled", 0),
        "opt.shape_reuse":
            1.0 - ratio(c("shapes_compiled", 0), c("traces_compiled", 0)),
        "opt.source_kb": c("source_bytes", 0) / 1024,
        "opt.side_exit_rate":
            ratio(c("side_exits", 0), c("trace_entries", 0)),
        "core.links.links_installed": c("links_installed", 0),
        "core.links.linked_transfer_share":
            ratio(c("linked_transfers", 0), c("trace_dispatches", 0)),
        "core.links.superblocks": c("superblocks", 0),
        **{f"store.{k}": v for k, v in store.items()},
        "obs.overhead":
            ratio(sum(j["job_s"] for j in traced["jobs"]), untraced_s) - 1,
        "machine.probe_s": statistics.median(
            p for r in untraced + [traced] + rungs for p in r["probe_s"]),
    }
    for rung, (result, _) in ladder.items():
        values[f"ladder.{rung}_s"] = None if result is None else \
            sum(j["job_s"] for j in result["jobs"])
    return values


def run_traced(workload, seed: int, refs: dict, profiles) -> tuple:
    """The jobs untraced, traced and untraced again (the sandwich
    cancels a linear drift of host speed in obs.overhead), then one
    child per ladder rung.  Returns ``(report, labelled results)``."""
    tally = Tally()
    runs = []
    for traced in (False, True, False):
        spec = jobs_spec(workload, seed, 0, refs, profiles, traced)
        runs.append(run_child(spec))
        tally.add(runs[-1], len(spec["order"]) * workload.runs)
    traced = runs[1]
    untraced = [r for r in (runs[0], runs[2]) if r is not None]

    programs = workload.programs(seed)
    store_dir = CACHE / "ladder" / workload.name / f"seed{seed}"
    store_dir.mkdir(parents=True, exist_ok=True)
    ladder_profiles = {k: store_dir / (k.replace("/", "-") + ".rprof")
                       for k in programs}
    # The warm rung must load what this ladder's full rung saved, never
    # a profile left over from an earlier run.
    for path in ladder_profiles.values():
        path.unlink(missing_ok=True)
    ladder = {}
    fields = plan.config_fields()
    for rung, overrides, reason in plan.ladder_rungs(fields):
        if reason is None and rung == "warm" and not all(
                path.is_file() for path in ladder_profiles.values()):
            reason = "the full rung did not save a profile for every program"
        if reason is not None:
            ladder[rung] = (None, reason)
            continue
        result = run_child({
            "mode": "ladder", "rung": rung, "overrides": overrides,
            "programs": programs, "order": sorted(programs),
            "refs": {k: refs[k] for k in programs},
            "profiles": {k: str(p) for k, p in ladder_profiles.items()}})
        tally.add(result, len(programs))
        ladder[rung] = (result, None if result is not None
                        else "child process failed")

    metrics = {}
    if untraced and traced is not None:
        values = layer_values(untraced, traced, ladder)
        for name, unit, _ in PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
            rung = name[len("ladder."):-len("_s")]
            if values[name] is None and rung in ladder:
                metrics[name]["reason"] = ladder[rung][1]
    labelled = [("traced", traced)] + [
        (f"ladder.{rung}", result) for rung, (result, _) in ladder.items()]
    return {"metrics": metrics, **tally.as_dict()}, labelled


def span_tables(labelled: list) -> dict:
    """Per child: count, total and self seconds of each span name."""
    tables = {}
    for label, result in labelled:
        if result is None:
            continue
        spans = result["spans"]
        covered = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["dur"]
        table: dict[str, dict] = {}
        for span, inner in zip(spans, covered):
            row = table.setdefault(span["name"], {
                "layer": SPAN_LAYERS.get(span["name"], "bench"),
                "count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += span["dur"]
            row["self_s"] += span["dur"] - inner
        tables[label] = table
    return tables


def chrome_trace(traced_runs: dict) -> dict:
    """Chrome trace events: one process per workload, one thread per
    child, one complete event per span."""
    events = []
    starts = [s["start"] for labelled in traced_runs.values()
              for _, result in labelled if result is not None
              for s in result["spans"]]
    origin = min(starts, default=0.0)
    for pid, (workload, labelled) in enumerate(traced_runs.items(), 1):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": workload}})
        for tid, (label, result) in enumerate(labelled, 1):
            if result is None:
                continue
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid, "args": {"name": label}})
            for index, span in enumerate(result["spans"]):
                parent = span["parent"]
                events.append({
                    "name": span["name"],
                    "cat": SPAN_LAYERS.get(span["name"], "bench"),
                    "ph": "X", "pid": pid, "tid": tid,
                    "ts": (span["start"] - origin) * 1e6,
                    "dur": span["dur"] * 1e6,
                    "args": {"job": span["job"],
                             "id": f"{pid}.{tid}.{index}",
                             "parent": None if parent is None
                             else f"{pid}.{tid}.{parent}"}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# Output.

def read_json(path: Path):
    with open(path) as handle:
        return json.load(handle)


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=False)
        handle.write("\n")
    os.replace(tmp, path)


def host() -> dict:
    """What the numbers were measured on."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform()}


def iqr_share(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / median if median else None


def print_report(name: str, report: dict) -> None:
    what = f"{report['children']} children" if "children" in report \
        else "traced run and ladder"
    print(f"\n{name}: {what}, {report['attempted']} runs, "
          f"{report['failed']} failed, error_rate {report['error_rate']:.4g}")
    for error in report["errors"]:
        print(f"  error: {error.strip().splitlines()[-1]}")
    for metric, m in report["metrics"].items():
        spread = iqr_share(m.get("per_child", []))
        note = "" if spread is None else f"  child IQR {spread:6.1%}"
        if m["value"] is None:
            note = f"  ({m.get('reason')})"
            print(f"  {metric:40s} {'null':>14s} {m['unit']:9s}{note}")
        else:
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']:9s}{note}")


def summary(reports: dict) -> dict:
    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    complete = all(r["metrics"] for r in reports.values())
    if len(reports) == 1:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in next(iter(reports.values()))["metrics"].items()}
    else:
        metrics = {w: {k: {"value": m["value"], "unit": m["unit"]}
                       for k, m in r["metrics"].items()}
                   for w, r in reports.items()}
    return {"correct": failed == 0 and attempted > 0 and complete,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(plan.WORKLOADS),
                        help="one workload (default: all, interleaved)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 gives the pinned inputs")
    parser.add_argument("--seconds", type=float,
                        help="measure for about this long (at least "
                        f"{MIN_CHILDREN} children per workload)")
    parser.add_argument("--children", type=int,
                        help=f"children per workload (default "
                        f"{DEFAULT_CHILDREN} unless --seconds is given)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer run with tracing")
    parser.add_argument("--out", type=Path,
                        help="write the full result document here")
    parser.add_argument("--regen-expected", action="store_true",
                        help="rewrite the pinned references and exit")
    args = parser.parse_args(argv)
    if args.children is not None and args.children < 1:
        parser.error("--children must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_repro()
        if args.regen_expected:
            regen_expected(EXPECTED)
            return 0
        expected = read_json(EXPECTED)
        verify_pinned(expected)
    except (SetupError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    workloads = [plan.WORKLOADS[args.workload]] if args.workload \
        else list(plan.WORKLOADS.values())
    refs = references(args.seed, workloads, expected)
    try:
        profiles = {w.name: train_profiles(args.seed, w, refs)
                    for w in workloads if w.warm}
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    if args.trace:
        reports, traced_runs = {}, {}
        for w in workloads:
            reports[w.name], traced_runs[w.name] = run_traced(
                w, args.seed, refs, profiles.get(w.name))
        write_json(OUT / "trace.json", chrome_trace(traced_runs))
        write_json(OUT / "layers.json", {
            w: span_tables(labelled) for w, labelled in traced_runs.items()})
    else:
        reports = run_e2e(workloads, args.seed, args.children, args.seconds,
                          refs, profiles)

    for name, report in reports.items():
        print_report(name, report)
    result = summary(reports)
    if args.out is not None:
        write_json(args.out, {"schema": 1, "seed": args.seed,
                              "trace": bool(args.trace), "host": host(),
                              "workloads": reports})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
