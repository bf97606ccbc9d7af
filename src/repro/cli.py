"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``run FILE``        — compile a mini-Java file and run it (choose the
  execution model with ``--model switch|threaded|traced``).
- ``disasm FILE``     — compile and disassemble.
- ``workload NAME``   — run a paper workload under the trace cache and
  print the five dependent values.
- ``table N``         — regenerate paper table N (1-7) or ``figures``.
- ``report``          — the full evaluation as one markdown document.
- ``dump NAME``       — export a run's BCG/traces as JSON or Graphviz.
- ``baselines NAME``  — compare selection schemes on a workload.
- ``fuzz``            — differential fuzzing: generate seeded bytecode
  programs, run every engine, shrink and report any divergence
  (non-zero exit), so CI can run a bounded smoke.
- ``bench``           — the continuous-benchmarking harness
  (``repro.perf``): ``bench list`` shows the registry, ``bench run``
  measures and writes a schema-versioned ``BENCH_*.json`` report,
  ``bench compare`` diffs two reports, and ``bench gate`` re-runs a
  committed baseline's cases and exits non-zero when any tracked
  metric regresses beyond its noise-aware threshold.

The trace-cache flags (``--threshold``, ``--delay``, ``--optimize``,
``--compile-threshold``) and the observability flags
(``--events``, ``--chrome-trace``, ``--snapshot-every``) are defined
once and accepted uniformly by ``run``, ``workload``, ``dump`` and
``baselines``.

``run`` and ``disasm`` accept mini-Java sources or ``.jasm`` assembly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .api import VM, compile_program
from .core import TraceCacheConfig
from .harness import (ExperimentMatrix, figures_dispatch_models,
                      run_baseline, table1, table2, table3, table4,
                      table5, table6, table7)
from .jvm import (SwitchInterpreter, ThreadedInterpreter,
                  disassemble_program, program_summary)
from .lang import CompileError
from .metrics.calibration import calibration_report, stability_report
from .metrics.report import Table
from .obs import Observability
from .workloads import SIZES, WORKLOAD_NAMES, load_workload


def _default(value, fallback):
    """`value` unless the flag was omitted; 0 is a real value, not a
    request for the default (config validation rejects it loudly)."""
    return fallback if value is None else value


def _config(args) -> TraceCacheConfig:
    """The TraceCacheConfig described by the shared trace flags."""
    return TraceCacheConfig(
        threshold=getattr(args, "threshold", 0.97),
        start_state_delay=getattr(args, "delay", 64),
        optimize_traces=getattr(args, "optimize", False),
        compile_threshold=getattr(args, "compile_threshold", 2),
        trace_linking=not getattr(args, "no_linking", False),
        superblock_iters=_default(
            getattr(args, "superblock_iters", None), 4))


def _vm_profile(args):
    """The ``--load-profile`` store path, or None."""
    return getattr(args, "load_profile", None)


def _save_profile(vm: VM, args) -> None:
    """Honor ``--save-profile`` after a run."""
    path = getattr(args, "save_profile", None)
    if path:
        vm.save_profile(path)
        from .store import ProfileStore
        print(f"profile -> {path}: {ProfileStore.load(path).describe()}")


def _obs(args) -> Observability | None:
    """An Observability context when any obs flag is set, else None."""
    events = getattr(args, "events", None)
    chrome = getattr(args, "chrome_trace", None)
    every = getattr(args, "snapshot_every", 0)
    if not (events or chrome or every):
        return None
    return Observability(events_path=events, chrome_trace_path=chrome,
                         snapshot_every=every)


def _report_obs(vm: VM) -> None:
    """Post-run summary of where observability output went."""
    obs = vm.obs
    if obs is None:
        return
    vm.close()
    parts = [f"{obs.bus.emitted} events"]
    if obs.events_path:
        parts.append(f"jsonl -> {obs.events_path}")
    if obs.chrome_trace_path:
        parts.append(f"chrome trace -> {obs.chrome_trace_path}")
    if obs.snapshot_every:
        parts.append(f"{obs.snapshots_taken} snapshots "
                     f"(every {obs.snapshot_every:,} dispatches)")
    print(f"obs: {', '.join(parts)}")
    if obs.snapshot_every and obs.snapshots:
        print(json.dumps(obs.snapshots[-1], sort_keys=True))


def cmd_run(args) -> int:
    program = compile_program(args.file)
    started = time.perf_counter()
    if args.model == "switch":
        interp = SwitchInterpreter(program)
        interp.run()
        result, output = interp.result, interp.output
        dispatches = interp.dispatch_count
        vm = None
    elif args.model == "threaded":
        interp = ThreadedInterpreter(program)
        machine = interp.run()
        result, output = machine.result, machine.output
        dispatches = interp.dispatch_count
        vm = None
    else:
        vm = VM(program, config=_config(args), obs=_obs(args),
                profile=_vm_profile(args))
        traced = vm.run()
        result, output = traced.value, traced.output
        dispatches = traced.stats.total_dispatches
    elapsed = time.perf_counter() - started
    for line in output:
        print(line)
    print(f"-> result: {result}  "
          f"({dispatches:,} dispatches, {elapsed:.3f}s, "
          f"model={args.model})")
    if vm is not None:
        _save_profile(vm, args)
        _report_obs(vm)
    return 0


def cmd_disasm(args) -> int:
    program = compile_program(args.file)
    print(program_summary(program))
    print()
    print(disassemble_program(program))
    return 0


def cmd_workload(args) -> int:
    program = load_workload(args.name, args.size)
    vm = VM(program, config=_config(args), obs=_obs(args),
            profile=_vm_profile(args))
    result = vm.run()
    stats = result.stats
    print(f"{args.name} ({args.size}): result={result.value}")
    print(f"  instructions          : {stats.instr_total:,}")
    print(f"  avg trace length      : {stats.average_trace_length:.1f}")
    print(f"  stream coverage       : {stats.coverage:.1%}")
    print(f"  completion rate       : {stats.completion_rate:.1%}")
    print(f"  k-dispatches/signal   : "
          f"{stats.dispatches_per_signal / 1000:.1f}")
    print(f"  k-dispatches/event    : "
          f"{stats.dispatches_per_trace_event / 1000:.1f}")
    print(f"  dispatch reduction    : {stats.dispatch_reduction:.1%}")
    print(f"  trace chain rate      : {stats.chain_rate:.1%}")
    if (stats.codegen_traces_compiled or stats.codegen_blocks_compiled
            or stats.codegen_uncompilable):
        hits, misses = stats.codegen_cache_hits, stats.codegen_cache_misses
        print(f"  codegen: {stats.codegen_traces_compiled} traces "
              f"compiled ({stats.codegen_uncompilable} declined), "
              f"{stats.codegen_blocks_compiled} lone blocks, "
              f"{misses} shapes + {hits} shared, "
              f"{stats.codegen_source_bytes:,} source bytes in "
              f"{stats.codegen_compile_seconds * 1000:.1f}ms, "
              f"{stats.codegen_side_exits} side exits")
    _report_obs(vm)
    if args.calibration:
        print()
        print(calibration_report(result.cache.traces.values())
              .to_table().render())
        print()
        print(stability_report(stats).to_table().render())
    _save_profile(vm, args)
    return 0


def cmd_table(args) -> int:
    which = args.which
    if which == "figures":
        print(figures_dispatch_models(args.size).render())
        return 0
    number = int(which)
    if number in (6,):
        print(table6(args.size, repeats=args.repeats).render())
        return 0
    matrix = ExperimentMatrix(args.size)
    builders = {1: table1, 2: table2, 3: table3, 4: table4, 5: table5}
    if number == 7:
        print(table7(matrix, args.size, repeats=args.repeats).render())
        return 0
    try:
        builder = builders[number]
    except KeyError:
        print(f"no such table: {which}", file=sys.stderr)
        return 2
    print(builder(matrix).render())
    return 0


def cmd_report(args) -> int:
    from .harness.report import build_report
    print(build_report(args.size, repeats=args.repeats))
    return 0


def cmd_dump(args) -> int:
    program = load_workload(args.name, args.size)
    vm = VM(program, config=_config(args), obs=_obs(args),
            profile=_vm_profile(args))
    result = vm.run()
    from .metrics.dump import bcg_to_dot, run_to_json
    if args.format == "dot":
        print(bcg_to_dot(result.profiler.bcg, max_nodes=args.max_nodes))
    else:
        print(run_to_json(result))
    _save_profile(vm, args)
    _report_obs(vm)
    return 0


def cmd_baselines(args) -> int:
    table = Table(
        f"Selection schemes on {args.name} ({args.size})",
        ["scheme", "coverage", "completion", "avg length",
         "dispatch reduction"],
        formats=["", ".1%", ".1%", ".1f", ".1%"])
    # The bcg (paper) row honors the shared trace/obs flags; the
    # baseline schemes have their own selection machinery.
    program = load_workload(args.name, args.size)
    vm = VM(program, config=_config(args), obs=_obs(args),
            profile=_vm_profile(args))
    stats = vm.run().stats
    table.add_row("bcg (paper)", stats.coverage, stats.completion_rate,
                  stats.average_trace_length, stats.dispatch_reduction)
    for scheme in ("dynamo", "replay", "whaley"):
        sstats, info = run_baseline(args.name, scheme, args.size)
        coverage = (info["optimized_coverage"] if scheme == "whaley"
                    else sstats.coverage)
        table.add_row(scheme, coverage, sstats.completion_rate,
                      sstats.average_trace_length,
                      sstats.dispatch_reduction)
    print(table.render())
    _save_profile(vm, args)
    _report_obs(vm)
    return 0


def cmd_fuzz(args) -> int:
    from .check import (DIFF_PROFILES, WARM_PROFILES, generate,
                        instruction_count, run_spec_differential,
                        shrink, spec_to_json)
    from .check.shrink import save_reproducer

    known = set(DIFF_PROFILES) | set(WARM_PROFILES)
    profiles = tuple(args.profile) if args.profile else None
    unknown = set(profiles or ()) - known
    if unknown:
        print(f"error: unknown profile(s) {sorted(unknown)}; choose "
              f"from {sorted(known)}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    for k in range(args.runs):
        seed = args.seed + k
        spec = generate(seed, budget=args.budget)
        report = run_spec_differential(
            spec, profiles, max_instructions=args.max_instructions,
            check_invariants=not args.no_invariants)
        if report.ok:
            if args.verbose:
                print(f"seed {seed}: ok "
                      f"({instruction_count(spec)} instrs)")
            continue

        print(f"DIVERGENCE at seed {seed} "
              f"(run {k + 1}/{args.runs}):")
        print(report.describe())
        if not args.no_shrink:
            # Re-check only the engines that diverged — the shrink
            # loop runs the differential hundreds of times.
            engines = report.diverging_engines()
            diverging_profiles = tuple(
                e for e in engines if e in known) or profiles

            def still_diverges(candidate):
                result = run_spec_differential(
                    candidate, diverging_profiles,
                    max_instructions=args.max_instructions,
                    check_invariants=not args.no_invariants)
                return any(e in result.diverging_engines()
                           for e in engines)

            spec = shrink(spec, still_diverges,
                          max_checks=args.shrink_checks)
            print(f"minimized to {instruction_count(spec)} worker "
                  f"instruction(s):")
        print(spec_to_json(spec))
        if args.save:
            import os
            os.makedirs(args.save, exist_ok=True)
            path = os.path.join(args.save, f"fuzz_seed{seed}.json")
            save_reproducer(
                path, spec,
                note=f"found by repro fuzz --seed {args.seed} "
                     f"--runs {args.runs}",
                divergences=[d.describe()
                             for d in report.divergences])
            print(f"reproducer saved to {path}")
        print(f"replay: repro fuzz --runs 1 --seed {seed}")
        return 1

    elapsed = time.perf_counter() - started
    print(f"fuzz: {args.runs} run(s) from seed {args.seed}, "
          f"no divergence ({elapsed:.1f}s, profiles="
          f"{list(profiles) if profiles else list(DIFF_PROFILES) + list(WARM_PROFILES)})")
    return 0


def cmd_profile_inspect(args) -> int:
    from .store import ProfileStore
    for path in args.files:
        store = ProfileStore.load(path)
        print(f"{path}: {store.describe()}")
        if args.verbose:
            for name, value in sorted(store.config_fields.items()):
                print(f"  {name} = {value}")
            for record in store.traces:
                marker = "*" if record.get("anchor") else " "
                print(f"  {marker} trace {record['blocks']} "
                      f"p={record['p']:.3f} "
                      f"x{record.get('iterations', 1)}")
    return 0


def cmd_profile_merge(args) -> int:
    from .store import ProfileStore, merge_profiles
    stores = [ProfileStore.load(path) for path in args.inputs]
    merged = merge_profiles(stores)
    merged.save(args.out)
    print(f"{args.out}: {merged.describe()}")
    return 0


# The parity config: aggressive enough that tiny workload sizes form,
# link and compile traces, so the warm path is exercised end to end.
_PARITY_OVERRIDES = dict(
    threshold=0.90, start_state_delay=8, decay_period=32,
    optimize_traces=True, compile_threshold=1,
    trace_linking=True, link_threshold=2)


def cmd_profile_parity(args) -> int:
    """Cold-vs-warm equivalence gate, run by CI.

    Runs a workload cold, saves its profile, reloads the file into a
    fresh VM, and asserts the warm run is observably identical (value,
    output, instruction count, statics) with nonzero restored state
    and nonzero codegen sharing.  Exits 1 on any mismatch.
    """
    program = load_workload(args.name, args.size)
    config = TraceCacheConfig(**_PARITY_OVERRIDES)

    cold = VM(program, config=config)
    cold_result = cold.run()
    cold_statics = program.statics_snapshot()
    cold.save_profile(args.store)

    warm = VM(program, config=config, profile=args.store)
    restored = len(warm.cache)
    warm_result = warm.run()
    warm_statics = program.statics_snapshot()
    warm_snapshot = warm.snapshot()

    failures = []
    for label, cold_value, warm_value in (
            ("value", cold_result.value, warm_result.value),
            ("output", cold_result.output, warm_result.output),
            ("instr_count", cold_result.machine.instr_count,
             warm_result.machine.instr_count),
            ("statics", cold_statics, warm_statics)):
        if cold_value != warm_value:
            failures.append(f"{label}: cold={cold_value!r} "
                            f"warm={warm_value!r}")
    if restored == 0:
        failures.append("no traces were restored from the profile")
    if not warm_snapshot["profile"]["warm_started"]:
        failures.append("warm VM snapshot does not report warm_started")
    shared = warm_snapshot["codegen"]["shared_hits"]
    if shared == 0:
        failures.append("warm VM adopted no shared compiled shapes "
                        "(shared_hits == 0)")

    print(f"parity {args.name} ({args.size}): "
          f"{restored} trace(s) restored, "
          f"{warm_snapshot['profile']['loaded_nodes']} node(s), "
          f"{warm_snapshot['profile']['loaded_links']} link(s), "
          f"shared_hits={shared}")
    if failures:
        for failure in failures:
            print(f"PARITY FAILURE: {failure}", file=sys.stderr)
        return 1
    print("cold and warm runs are observably identical")
    return 0


def _bench_options(args):
    from .perf import RunnerOptions
    return RunnerOptions(warmup=args.warmup, repetitions=args.reps,
                         seed=args.seed, inner=args.inner)


def _bench_now() -> str:
    from datetime import datetime, timezone
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _bench_progress(case_id: str, index: int, total: int) -> None:
    print(f"[{index + 1}/{total}] {case_id}", file=sys.stderr)


def _bench_report_from_run(args, name: str, tier: str, cases):
    from .perf import report_from_results, run_cases
    results = run_cases(cases, tier, _bench_options(args),
                        progress=_bench_progress)
    return report_from_results(name, tier, results,
                               options=_bench_options(args),
                               created=_bench_now())


def _print_run_summary(report) -> None:
    from .metrics.report import Table
    table = Table(
        f"bench run: {report.name} ({report.tier})",
        ["case", "metric", "median", "min", "max", "n"],
        formats=["", "", ".4f", ".4f", ".4f", ""])
    from .perf import summarize
    for case_id in sorted(report.cases):
        record = report.cases[case_id]
        for metric_name in sorted(record.metrics):
            metric_record = record.metrics[metric_name]
            if not metric_record.metric.tracked:
                continue
            summary = summarize(metric_record.samples)
            table.add_row(case_id, metric_name, summary.median,
                          summary.minimum, summary.maximum, summary.n)
    print(table.render())


def cmd_bench_list(args) -> int:
    from .perf import all_cases
    for case in all_cases():
        tracked = ", ".join(m.name for m in case.metrics if m.tracked)
        print(f"{case.id:32} workload={case.workload or '-':12} "
              f"profile={case.profile:6} tracked=[{tracked}]")
    return 0


def _apply_bench_ablations(args) -> None:
    """Install the bench ablation flags as profile config overrides."""
    from .perf import set_profile_overrides
    from .perf.registry import set_vm_profile_paths
    set_profile_overrides(
        trace_linking=False if getattr(args, "no_linking", False)
        else None,
        superblock_iters=getattr(args, "superblock_iters", None))
    set_vm_profile_paths(
        load=getattr(args, "load_profile", None),
        save=getattr(args, "save_profile", None))


def cmd_bench_run(args) -> int:
    from .perf import BenchReport, canonical_tier, select
    _apply_bench_ablations(args)
    tier = canonical_tier(args.size)
    cases = select(args.select or None)
    name = args.name
    if name is None and args.out:
        stem = args.out.rsplit("/", 1)[-1]
        if stem.startswith("BENCH_") and stem.endswith(".json"):
            name = stem[len("BENCH_"):-len(".json")]
    report = _bench_report_from_run(args, name or "run", tier, cases)
    assert isinstance(report, BenchReport)
    if args.out:
        report.save(args.out)
        print(f"report -> {args.out}", file=sys.stderr)
    _print_run_summary(report)
    return 0


def cmd_bench_compare(args) -> int:
    from .perf import (BenchReport, compare_reports, to_markdown,
                       to_text)
    baseline = BenchReport.load(args.baseline)
    current = BenchReport.load(args.current)
    comparison = compare_reports(baseline, current, alpha=args.alpha,
                                 min_time_delta=args.min_delta)
    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write(to_markdown(comparison))
        print(f"markdown report -> {args.markdown}", file=sys.stderr)
    print(to_text(comparison))
    return 0 if comparison.ok else 1


def cmd_bench_gate(args) -> int:
    from .perf import (BenchReport, compare_reports, select,
                       to_markdown, to_text)
    _apply_bench_ablations(args)
    baseline = BenchReport.load(args.baseline)
    tier = args.size or baseline.tier
    if args.select:
        cases = select(args.select)
        gated_ids = {case.id for case in cases}
    else:
        cases = baseline.registry_cases()
        gated_ids = None
        if not cases:
            print(f"error: no case in {args.baseline} still exists "
                  f"in the registry", file=sys.stderr)
            return 2
    current = _bench_report_from_run(args, "current", tier, cases)
    if gated_ids is not None:
        baseline.cases = {case_id: record for case_id, record
                          in baseline.cases.items()
                          if case_id in gated_ids}
    comparison = compare_reports(baseline, current, alpha=args.alpha,
                                 min_time_delta=args.min_delta)
    if args.out:
        current.save(args.out)
        print(f"current report -> {args.out}", file=sys.stderr)
    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write(to_markdown(comparison))
        print(f"markdown report -> {args.markdown}", file=sys.stderr)
    print(to_text(comparison))
    return 0 if comparison.ok else 1


def cmd_bench(args) -> int:
    from .perf import StoreError
    try:
        return args.bench_func(args)
    except (KeyError, StoreError) as error:
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 2


def _trace_flags() -> argparse.ArgumentParser:
    """Parent parser: trace-cache tunables, defined exactly once."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("trace-cache options")
    group.add_argument("--threshold", type=float, default=0.97,
                       help="minimum expected trace completion rate")
    group.add_argument("--delay", type=int, default=64,
                       help="start-state delay (executions before a "
                            "branch can enter traces)")
    group.add_argument("--optimize", action="store_true",
                       help="compile hot traces and blocks to Python "
                            "functions")
    group.add_argument("--compile-threshold", type=int, default=2,
                       help="trace entries before codegen kicks in")
    group.add_argument("--no-linking", action="store_true",
                       help="disable trace-to-trace linking and "
                            "superblock growth (ablation)")
    group.add_argument("--superblock-iters", type=int, default=None,
                       metavar="K",
                       help="max loop iterations a superblock unrolls "
                            "(default 4; 1 disables superblocks)")
    return parent


def _profile_flags() -> argparse.ArgumentParser:
    """Parent parser: persistent profile store I/O, defined once."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("profile store options")
    group.add_argument("--load-profile", metavar="FILE",
                       help="warm-start the VM from a .rprof profile "
                            "store saved by a previous run")
    group.add_argument("--save-profile", metavar="FILE",
                       help="capture the run's learned state (BCG, "
                            "traces, links, compiled shapes) to a "
                            ".rprof profile store")
    return parent


def _obs_flags() -> argparse.ArgumentParser:
    """Parent parser: observability outputs, defined exactly once."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability options")
    group.add_argument("--events", metavar="FILE",
                       help="stream every observability event to FILE "
                            "as JSON lines")
    group.add_argument("--chrome-trace", metavar="FILE",
                       help="write a chrome://tracing / Perfetto "
                            "trace-event file")
    group.add_argument("--snapshot-every", type=int, default=0,
                       metavar="N",
                       help="take a stable-schema snapshot every N "
                            "dispatches (printed and streamed)")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamic profiling and trace cache generation "
                    "(Berndl & Hendren, CGO 2003) — reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)
    trace_flags = _trace_flags()
    obs_flags = _obs_flags()
    profile_flags = _profile_flags()

    run = sub.add_parser("run", help="compile and run a mini-Java file",
                         parents=[trace_flags, obs_flags,
                                  profile_flags])
    run.add_argument("file")
    run.add_argument("--model", choices=("switch", "threaded", "traced"),
                     default="traced")
    run.set_defaults(func=cmd_run)

    disasm = sub.add_parser("disasm", help="disassemble a mini-Java file")
    disasm.add_argument("file")
    disasm.set_defaults(func=cmd_disasm)

    workload = sub.add_parser("workload",
                              help="run a paper workload traced",
                              parents=[trace_flags, obs_flags,
                                       profile_flags])
    workload.add_argument("name", choices=WORKLOAD_NAMES)
    workload.add_argument("--size", choices=SIZES, default="small")
    workload.add_argument("--calibration", action="store_true",
                          help="print calibration/stability reports")
    workload.set_defaults(func=cmd_workload)

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("which",
                       choices=("1", "2", "3", "4", "5", "6", "7",
                                "figures"))
    table.add_argument("--size", choices=SIZES, default="small")
    table.add_argument("--repeats", type=int, default=3)
    table.set_defaults(func=cmd_table)

    report = sub.add_parser(
        "report", help="regenerate the full evaluation as markdown")
    report.add_argument("--size", choices=SIZES, default="small")
    report.add_argument("--repeats", type=int, default=1)
    report.set_defaults(func=cmd_report)

    dump = sub.add_parser(
        "dump", help="export a run's BCG/traces as JSON or Graphviz",
        parents=[trace_flags, obs_flags, profile_flags])
    dump.add_argument("name", choices=WORKLOAD_NAMES)
    dump.add_argument("--size", choices=SIZES, default="tiny")
    dump.add_argument("--format", choices=("json", "dot"),
                      default="json")
    dump.add_argument("--max-nodes", type=int, default=40)
    dump.set_defaults(func=cmd_dump)

    baselines = sub.add_parser("baselines",
                               help="compare selection schemes",
                               parents=[trace_flags, obs_flags,
                                        profile_flags])
    baselines.add_argument("name", choices=WORKLOAD_NAMES)
    baselines.add_argument("--size", choices=SIZES, default="small")
    baselines.set_defaults(func=cmd_baselines)

    bench = sub.add_parser(
        "bench",
        help="continuous benchmarking: run, compare, and gate")
    bench.set_defaults(func=cmd_bench)
    bench_sub = bench.add_subparsers(dest="bench_command",
                                     required=True)

    def _bench_rep_flags(parser) -> None:
        parser.add_argument("--reps", type=int, default=5,
                            help="measured repetitions per case "
                                 "(registry may override per case)")
        parser.add_argument("--warmup", type=int, default=1,
                            help="discarded warmup repetitions")
        parser.add_argument("--inner", type=int, default=3,
                            help="min-of-k inner measurements per "
                                 "repetition for time metrics")
        parser.add_argument("--seed", type=int, default=0,
                            help="base seed for deterministic "
                                 "per-repetition reseeding")

    def _bench_ablation_flags(parser) -> None:
        parser.add_argument("--no-linking", action="store_true",
                            help="ablate trace-to-trace linking in "
                                 "every measured profile")
        parser.add_argument("--superblock-iters", type=int,
                            default=None, metavar="K",
                            help="override the superblock unroll "
                                 "bound in every measured profile")
        parser.add_argument("--load-profile", metavar="DIR",
                            help="warm-start measured VMs from "
                                 "DIR/<case-id>.rprof stores where the "
                                 "program/config fingerprints match")
        parser.add_argument("--save-profile", metavar="DIR",
                            help="capture each measured case's learned "
                                 "state to DIR/<case-id>.rprof")

    def _bench_compare_flags(parser) -> None:
        parser.add_argument("--alpha", type=float, default=0.05,
                            help="Mann-Whitney significance level")
        parser.add_argument("--min-delta", type=float, default=None,
                            help="raise the relative-shift tolerance "
                                 "floor for time metrics (e.g. 0.20 "
                                 "on shared/cross-machine runners)")
        parser.add_argument("--markdown", metavar="FILE",
                            help="also write a markdown report")

    bench_list = bench_sub.add_parser(
        "list", help="show every registered benchmark case")
    bench_list.set_defaults(bench_func=cmd_bench_list)

    bench_run = bench_sub.add_parser(
        "run", help="measure cases and write a BENCH_*.json report")
    bench_run.add_argument("--size", default="small",
                           choices=("tiny", "small", "full", "paper"),
                           help="size tier (paper = legacy alias "
                                "for full)")
    bench_run.add_argument("--select", action="append",
                           metavar="PATTERN",
                           help="group name or case-id glob "
                                "(repeatable; default: everything)")
    bench_run.add_argument("--out", metavar="FILE",
                           help="write the schema-versioned report "
                                "here")
    bench_run.add_argument("--name",
                           help="report name (default: derived from "
                                "--out, else 'run')")
    _bench_rep_flags(bench_run)
    _bench_ablation_flags(bench_run)
    bench_run.set_defaults(bench_func=cmd_bench_run)

    bench_compare = bench_sub.add_parser(
        "compare",
        help="diff two reports; non-zero exit on regression")
    bench_compare.add_argument("baseline")
    bench_compare.add_argument("current")
    _bench_compare_flags(bench_compare)
    bench_compare.set_defaults(bench_func=cmd_bench_compare)

    bench_gate = bench_sub.add_parser(
        "gate",
        help="re-run a baseline's cases and fail on regression")
    bench_gate.add_argument("--baseline", required=True,
                            metavar="FILE",
                            help="committed BENCH_*.json to gate "
                                 "against")
    bench_gate.add_argument("--size", default=None,
                            choices=("tiny", "small", "full",
                                     "paper"),
                            help="size tier (default: the "
                                 "baseline's)")
    bench_gate.add_argument("--select", action="append",
                            metavar="PATTERN",
                            help="gate only matching cases")
    bench_gate.add_argument("--out", metavar="FILE",
                            help="save the fresh measurement report")
    _bench_rep_flags(bench_gate)
    _bench_ablation_flags(bench_gate)
    _bench_compare_flags(bench_gate)
    bench_gate.set_defaults(bench_func=cmd_bench_gate)

    profile = sub.add_parser(
        "profile",
        help="inspect, merge, and validate .rprof profile stores")
    profile_sub = profile.add_subparsers(dest="profile_command",
                                         required=True)

    profile_inspect = profile_sub.add_parser(
        "inspect", help="describe one or more profile stores")
    profile_inspect.add_argument("files", nargs="+", metavar="FILE")
    profile_inspect.add_argument("--verbose", action="store_true",
                                 help="also list config fields and "
                                      "every stored trace")
    profile_inspect.set_defaults(func=cmd_profile_inspect)

    profile_merge = profile_sub.add_parser(
        "merge",
        help="merge compatible stores from multiple runs into one")
    profile_merge.add_argument("out", metavar="OUT")
    profile_merge.add_argument("inputs", nargs="+", metavar="FILE")
    profile_merge.set_defaults(func=cmd_profile_merge)

    profile_parity = profile_sub.add_parser(
        "parity",
        help="assert a warm-started run is observably identical to "
             "the cold run that produced its profile (CI gate)")
    profile_parity.add_argument("name", choices=WORKLOAD_NAMES)
    profile_parity.add_argument("--size", choices=SIZES,
                                default="tiny")
    profile_parity.add_argument("--store", metavar="FILE",
                                default="parity.rprof",
                                help="where to write the intermediate "
                                     "profile store")
    profile_parity.set_defaults(func=cmd_profile_parity)

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing across every engine")
    fuzz.add_argument("--runs", type=int, default=100,
                      help="number of generated programs")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="first seed; run k uses seed+k")
    fuzz.add_argument("--profile", action="append", metavar="NAME",
                      help="trace-cache profile(s) to test (repeatable; "
                           "default: all)")
    fuzz.add_argument("--budget", type=int, default=20_000,
                      help="max dynamic instructions per generated "
                           "program (cost-model bound)")
    fuzz.add_argument("--max-instructions", type=int, default=5_000_000,
                      help="per-engine step limit")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="report the first divergence unminimized")
    fuzz.add_argument("--no-invariants", action="store_true",
                      help="skip whitebox invariant checking")
    fuzz.add_argument("--shrink-checks", type=int, default=400,
                      help="max candidate evaluations while shrinking")
    fuzz.add_argument("--save", metavar="DIR",
                      help="write the minimized reproducer JSON here")
    fuzz.add_argument("--verbose", action="store_true",
                      help="print a line per passing seed")
    fuzz.set_defaults(func=cmd_fuzz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CompileError as error:
        print(f"compile error: {error}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
