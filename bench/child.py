"""One child process of the benchmark.

Reads a JSON spec on stdin, runs it, and prints one JSON result as the
last line of stdout.  Two modes:

- ``jobs``: set up (source generation, one ``compile_source`` per
  program, profile reads), then run the jobs in the given order.  A
  job takes one program from source to result in a fresh VM and
  re-enters it ``runs - 1`` times.  With ``traced`` each VM gets an
  ``Observability`` and the child reports per-layer counters.
- ``ladder``: one rung of the layer ladder, one first run per program.

The set-up clock starts below, before ``repro`` is imported.  Every
time comes from ``time.perf_counter`` around a call into a public
function of the system, recorded as a span.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402

import plan  # noqa: E402

PROBE_ITERATIONS = 20_000
# Obs phase spans kept per VM; enough that none age out of the ring.
SPAN_HISTORY = 1 << 16


class Spans:
    """Spans around public calls: name, start, duration, job, parent."""

    def __init__(self) -> None:
        self.items: list[dict] = []

    def open(self, name: str, job: str, parent: int | None = None) -> int:
        self.items.append({"name": name, "start": time.perf_counter(),
                           "dur": None, "job": job, "parent": parent})
        return len(self.items) - 1

    def close(self, sid: int) -> float:
        item = self.items[sid]
        item["dur"] = time.perf_counter() - item["start"]
        return item["dur"]

    @contextmanager
    def span(self, name: str, job: str, parent: int | None = None):
        sid = self.open(name, job, parent)
        try:
            yield sid
        finally:
            self.close(sid)

    def dur(self, sid: int) -> float:
        return self.items[sid]["dur"]

    def add(self, name: str, start: float, dur: float, job: str,
            parent: int) -> None:
        self.items.append({"name": name, "start": start, "dur": dur,
                           "job": job, "parent": parent})


def probe() -> float:
    """A fixed pure-Python kernel: a host-speed reading, not the VM's."""
    started = time.perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - started


def peak_rss_kb() -> int:
    """Peak resident set of this process since it exec'd, in KiB.

    ``ru_maxrss`` would not do on Linux: it keeps the high-water mark of
    the process image before exec, i.e. of the run.py that forked us.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def new_store_totals() -> dict:
    return {"load_s": 0.0, "seed_s": 0.0, "save_s": 0.0,
            "traces_loaded": 0, "shapes_precompiled": 0}


def load_stores(paths: dict, spans: Spans, totals: dict) -> dict:
    from repro.store import ProfileStore
    stores = {}
    for key, path in paths.items():
        with spans.span("ProfileStore.load", key) as sid:
            stores[key] = ProfileStore.load(path)
        totals["load_s"] += spans.dur(sid)
    return stores


def seed_vm(vm, store, key: str, job: int, spans: Spans,
            totals: dict) -> None:
    with spans.span("VM.load_profile", key, job) as sid:
        info = vm.load_profile(store)
    totals["seed_s"] += spans.dur(sid)
    totals["traces_loaded"] += info["traces"]
    totals["shapes_precompiled"] += info["shapes_precompiled"]


def setup_programs(spec: dict, spans: Spans) -> dict:
    """Generate every program's source and compile it once."""
    from repro.lang import compile_source
    out = {}
    for key, entry in spec["programs"].items():
        with spans.span("source", key):
            source = plan.source(entry)
        with spans.span("lang.compile_source", key):
            program = compile_source(source)
        out[key] = (source, program)
    return out


# ----------------------------------------------------------------------
class Layers:
    """Per-layer counters of one traced job, summed over its runs."""

    PER_RUN = ("instructions", "dispatches", "trace_dispatches",
               "trace_entries", "trace_completions", "completed_blocks",
               "instr_in_completed", "linked_transfers", "side_exits")

    def __init__(self) -> None:
        self.counts = dict.fromkeys(self.PER_RUN, 0)
        self._exits_before = 0

    def add_run(self, stats) -> None:
        c = self.counts
        c["instructions"] += stats.instr_total
        c["dispatches"] += stats.total_dispatches
        c["trace_dispatches"] += stats.trace_dispatches
        c["trace_entries"] += stats.trace_entries
        c["trace_completions"] += stats.trace_completions
        c["completed_blocks"] += stats.completed_blocks
        c["instr_in_completed"] += stats.instr_in_completed
        c["linked_transfers"] += stats.linked_transfers
        # codegen_side_exits counts over the VM's life, not per run.
        c["side_exits"] += stats.codegen_side_exits - self._exits_before
        self._exits_before = stats.codegen_side_exits

    def add_vm(self, vm, obs) -> None:
        """Counters the VM keeps over its life, read once per job."""
        snap = vm.snapshot()
        codegen, linking = snap["codegen"], snap["linking"]
        timers = obs.timers
        self.counts.update(
            signals=snap["profiler"]["signals"],
            resignals=snap["profiler"]["resignals"],
            bcg_nodes=snap["bcg"]["nodes"],
            traces_constructed=snap["cache"]["constructed"],
            traces_invalidated=snap["cache"]["invalidated"],
            traces_compiled=codegen["traces_compiled"],
            shapes_compiled=codegen["cache_misses"] - codegen["shared_hits"],
            source_bytes=codegen["source_bytes"],
            compile_s=codegen["compile_seconds"],
            links_installed=linking["installed"],
            superblocks=linking["superblocks_grown"],
            construct_s=timers.seconds("construct"),
            codegen_s=timers.seconds("codegen"),
            dispatch_s=timers.dispatch_seconds(),
        )


def run_job(key: str, source: str, runs: int, config, store, ref: dict,
            spans: Spans, totals: dict, traced: bool) -> dict:
    """Source to result in a fresh VM, then ``runs - 1`` re-entries."""
    from repro.api import VM
    from repro.lang import compile_source
    record = {"key": key, "runs": [], "failed": 0, "errors": []}
    job = spans.open("job", key)
    layers = Layers() if traced else None
    try:
        with spans.span("lang.compile_source", key, job) as sid:
            program = compile_source(source)
        record["compile_s"] = spans.dur(sid)
        obs = None
        if traced:
            from repro.obs import Observability
            obs = Observability(history=0, span_history=SPAN_HISTORY)
        with spans.span("api.VM", key, job) as sid:
            vm = VM(program, config, obs=obs)
        record["init_s"] = spans.dur(sid)
        if store is not None:
            seed_vm(vm, store, key, job, spans, totals)
        for index in range(runs):
            mark = len(obs.timers.spans) if obs is not None else 0
            with spans.span("VM.run", key, job) as sid:
                result = vm.run()
            item = spans.items[sid]
            if index == 0:
                record["first_s"] = item["start"] + item["dur"] \
                    - spans.items[job]["start"]
            got = plan.outcome(result.value, result.output,
                               result.stats.instr_total)
            record["runs"].append({"s": item["dur"],
                                   "instructions": got["instructions"]})
            why = plan.mismatch(got, ref)
            if why is not None:
                record["failed"] += 1
                record["errors"].append(f"{key} run {index}: {why}")
            if traced:
                layers.add_run(result.stats)
                for phase, start, dur in list(obs.timers.spans)[mark:]:
                    if phase in ("construct", "codegen"):
                        spans.add(f"obs.{phase}", start, dur, key, sid)
        if traced:
            layers.add_vm(vm, obs)
    except Exception:  # a failed job is counted; the child keeps going
        record["failed"] += runs - len(record["runs"])
        record["errors"].append(f"{key}: {traceback.format_exc()}")
    finally:
        record["job_s"] = spans.close(job)
    if traced:
        record["layers"] = layers.counts
    return record


def run_jobs(spec: dict) -> dict:
    spans = Spans()
    totals = new_store_totals()
    config = plan.e2e_config()
    programs = setup_programs(spec, spans)
    stores = load_stores(spec.get("profiles") or {}, spans, totals)
    setup_s = time.perf_counter() - STARTED
    jobs, probes = [], []
    for key in spec["order"]:
        jobs.append(run_job(key, programs[key][0], spec["runs"], config,
                            stores.get(key), spec["refs"][key], spans,
                            totals, spec["traced"]))
        probes.append(probe())
    return {"setup_s": setup_s, "jobs": jobs, "probe_s": probes,
            "store": totals, "spans": spans.items}


# ----------------------------------------------------------------------
def run_rung(rung: str, overrides, key: str, program, spec: dict,
             spans: Spans, totals: dict, parent: int):
    """One first run of `program` on `rung`: ``(outcome, vm or None)``."""
    if overrides is None:
        from repro.jvm import SwitchInterpreter, ThreadedInterpreter
        if rung == "switch":
            with spans.span("SwitchInterpreter.run", key, parent):
                interp = SwitchInterpreter(program)
                interp.run()
            return plan.outcome(interp.result, interp.output,
                                interp.instr_count), None
        hook = None
        if rung == "profile":
            from repro.core import Profiler
            advance = Profiler(plan.e2e_config()).advance

            def hook(previous, current):
                if previous is not None:
                    advance(previous.bid, current)
        with spans.span("ThreadedInterpreter.run", key, parent):
            machine = ThreadedInterpreter(program).run(dispatch_hook=hook)
        return plan.outcome(machine.result, machine.output,
                            machine.instr_count), None

    from repro.api import VM
    with spans.span("api.VM", key, parent):
        vm = VM(program, plan.config(overrides))
    if rung == "warm":
        store = load_stores({key: spec["profiles"][key]}, spans, totals)[key]
        seed_vm(vm, store, key, parent, spans, totals)
    with spans.span("VM.run", key, parent):
        result = vm.run()
    return plan.outcome(result.value, result.output,
                        result.stats.instr_total), vm


def run_ladder(spec: dict) -> dict:
    spans = Spans()
    totals = new_store_totals()
    programs = setup_programs(spec, spans)
    setup_s = time.perf_counter() - STARTED
    rung, overrides = spec["rung"], spec["overrides"]
    jobs, probes = [], []
    for key in spec["order"]:
        record = {"key": key, "runs": [], "failed": 0, "errors": []}
        got, vm = {"instructions": 0}, None
        sid = spans.open(f"ladder.{rung}", key)
        try:
            got, vm = run_rung(rung, overrides, key, programs[key][1], spec,
                               spans, totals, sid)
            why = plan.mismatch(got, spec["refs"][key])
            if why is not None:
                record["failed"] = 1
                record["errors"].append(f"{key} on {rung}: {why}")
        except Exception:  # a failed rung is counted; the child keeps going
            record["failed"] = 1
            record["errors"].append(f"{key}: {traceback.format_exc()}")
        record["job_s"] = spans.close(sid)
        record["runs"].append({"s": record["job_s"],
                               "instructions": got["instructions"]})
        if rung == "full" and vm is not None and spec.get("profiles"):
            # Outside the rung's time: training for the warm rung.
            with spans.span("VM.save_profile", key) as save:
                vm.save_profile(spec["profiles"][key])
            totals["save_s"] += spans.dur(save)
        jobs.append(record)
        probes.append(probe())
    return {"setup_s": setup_s, "jobs": jobs, "probe_s": probes,
            "store": totals, "spans": spans.items}


def main() -> None:
    spec = json.load(sys.stdin)
    result = run_ladder(spec) if spec["mode"] == "ladder" \
        else run_jobs(spec)
    if not spec.get("traced") and spec["mode"] == "jobs":
        del result["spans"]
    result["peak_rss_kb"] = peak_rss_kb()
    sys.stdout.write("\n" + json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
