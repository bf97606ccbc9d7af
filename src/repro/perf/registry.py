"""Declarative benchmark registry: workload × profile × size tiers.

The registry replaces the measurement loops that used to live inside
each ad-hoc ``benchmarks/bench_*.py`` script.  A benchmark is a
:class:`BenchCase`: an id like ``dispatch.compressx.py``, the workload
and config profile it runs, the :class:`Metric` set it reports, and a
measure function that produces **one repetition** of raw samples.
Warmup, repetition, seeding, fault injection and fingerprinting are
the runner's job (:mod:`repro.perf.runner`); statistics are
:mod:`repro.perf.stats`; persistence is :mod:`repro.perf.store`.

Size tiers are ``tiny`` (CI smoke), ``small`` (default dev runs) and
``full`` (paper scale).  Tiers are the perf subsystem's vocabulary;
:func:`workload_size` maps them onto the workload registry's presets
(``full`` → ``paper``), and :func:`size_from_env` accepts the legacy
``REPRO_BENCH_SIZE=paper`` spelling so existing scripts keep working.

Groups registered here:

- ``dispatch.<workload>.py`` — wall-clock and per-phase seconds of
  the compiled-trace stack on the three hottest workloads.
- ``obs.<workload>.<off|unwatched|full>`` — observability overhead
  modes (the PR-2 "disabled must be free" bar).
- ``table1.<workload>`` — average executed trace length and coverage
  at the paper's default threshold (trace *quality*, deterministic).
- ``table7.<workload>`` — modeled trace-dispatch overhead fraction
  (the paper's bottom-line claim).
- ``linking.<workload>.<linked|nolink>`` — the compiled-trace stack
  with trace-to-trace linking on vs. ablated, quantifying the controller-round-
  trip savings of direct trace transfers and superblocks.
- ``warmstart.<workload>.<cold|warm>`` — time from run start to the
  first compiled-trace installation, with the VM starting empty vs.
  seeded from a persistent profile store (the repro.store claim:
  warm-started serving skips the profiling ramp entirely).
"""

from __future__ import annotations

import fnmatch
import os
from dataclasses import dataclass, field

__all__ = [
    "SIZE_TIERS", "CONFIG_PROFILES", "Metric", "BenchCase",
    "canonical_tier", "workload_size", "size_from_env",
    "profile_config", "set_profile_overrides", "set_vm_profile_paths",
    "warm_profile_for", "record_profile", "all_cases", "groups",
    "select", "case_by_id",
]

SIZE_TIERS = ("tiny", "small", "full")

_TIER_TO_WORKLOAD_SIZE = {"tiny": "tiny", "small": "small",
                          "full": "paper"}
_TIER_ALIASES = {"paper": "full"}

#: The hottest, most trace-dominated workloads — where dispatch and
#: observability regressions actually show up.
HOT_WORKLOADS = ("compressx", "raytracex", "scimarkx")

#: TraceCacheConfig keyword profiles the matrix multiplies over.
CONFIG_PROFILES: dict[str, dict] = {
    "plain": {},
    "py": {"optimize_traces": True},
    # The py profile with trace-to-trace linking ablated: the control
    # arm of the `linking` group.
    "py-nolink": {"optimize_traces": True, "trace_linking": False},
}

#: Config keys applied on top of every profile (CLI ablation flags,
#: e.g. ``repro bench run --no-linking``); CLI wins over the profile.
_PROFILE_OVERRIDES: dict = {}


def set_profile_overrides(**overrides) -> None:
    """Install config overrides merged into every profile; ``None``
    values are ignored so unset CLI flags pass through."""
    _PROFILE_OVERRIDES.clear()
    _PROFILE_OVERRIDES.update(
        {key: value for key, value in overrides.items()
         if value is not None})

#: Bench-wide profile-store I/O installed by ``repro bench run/gate``
#: ``--load-profile`` / ``--save-profile`` (both directories, one
#: ``<case-id>.rprof`` per case).  Loading warm-starts every measured
#: VM whose program/config fingerprints match the on-disk store;
#: incompatible or absent stores are skipped silently so one directory
#: can serve a heterogeneous case selection.
_VM_PROFILE_PATHS: dict = {"load": None, "save": None}


def set_vm_profile_paths(load=None, save=None) -> None:
    """Install the --load-profile / --save-profile directories."""
    _VM_PROFILE_PATHS["load"] = load
    _VM_PROFILE_PATHS["save"] = save


def _case_store_path(dirpath: str, case_id: str) -> str:
    return os.path.join(dirpath, f"{case_id}.rprof")


def warm_profile_for(case, program, config):
    """The ProfileStore to seed `case`'s VM from, or None.

    Non-None only when ``--load-profile DIR`` was given, the per-case
    store exists, and its fingerprints match (program, config).
    """
    load = _VM_PROFILE_PATHS["load"]
    if not load:
        return None
    path = _case_store_path(load, case.id)
    if not os.path.exists(path):
        return None
    from ..store import ProfileError, ProfileStore
    store = ProfileStore.load(path)
    try:
        store.check_compatible(program, config, source=path)
    except ProfileError:
        return None
    return store


def record_profile(case, vm) -> None:
    """Honor ``--save-profile DIR`` for one measured repetition."""
    save = _VM_PROFILE_PATHS["save"]
    if save:
        os.makedirs(save, exist_ok=True)
        vm.save_profile(_case_store_path(save, case.id))


#: Default relative-median-shift tolerance per metric kind.  Time is
#: runner-noise-bound; counts and ratios are near-deterministic.
DEFAULT_TOLERANCES = {"time": 0.05, "count": 0.005, "ratio": 0.02}


def canonical_tier(name: str) -> str:
    """Normalize a tier name; accepts the legacy ``paper`` alias."""
    tier = _TIER_ALIASES.get(name, name)
    if tier not in SIZE_TIERS:
        raise KeyError(f"unknown size tier {name!r}; "
                       f"choose from {SIZE_TIERS}")
    return tier


def workload_size(tier: str) -> str:
    """Map a perf size tier onto the workload registry's preset."""
    return _TIER_TO_WORKLOAD_SIZE[canonical_tier(tier)]


def size_from_env(default: str = "small") -> str:
    """The canonical tier named by ``REPRO_BENCH_SIZE`` (or default)."""
    return canonical_tier(os.environ.get("REPRO_BENCH_SIZE", default))


def profile_config(profile: str):
    """A fresh TraceCacheConfig for a named profile."""
    from ..core import TraceCacheConfig
    try:
        overrides = CONFIG_PROFILES[profile]
    except KeyError:
        raise KeyError(f"unknown config profile {profile!r}; "
                       f"choose from {sorted(CONFIG_PROFILES)}") \
            from None
    return TraceCacheConfig(**{**overrides, **_PROFILE_OVERRIDES})


@dataclass(frozen=True)
class Metric:
    """One reported quantity of a benchmark case.

    ``direction`` names the *good* direction.  ``tracked`` metrics are
    compared by the regression gate; untracked ones are context.  A
    ``tolerance`` of None resolves to the kind's default.
    """

    name: str
    unit: str = "s"
    direction: str = "lower"
    kind: str = "time"                  # time | count | ratio
    tracked: bool = True
    tolerance: float | None = None

    def __post_init__(self):
        if self.direction not in ("lower", "higher"):
            raise ValueError(f"bad direction {self.direction!r}")
        if self.kind not in DEFAULT_TOLERANCES:
            raise ValueError(f"bad kind {self.kind!r}")

    @property
    def effective_tolerance(self) -> float:
        if self.tolerance is not None:
            return self.tolerance
        return DEFAULT_TOLERANCES[self.kind]

    def to_dict(self) -> dict:
        return {"name": self.name, "unit": self.unit,
                "direction": self.direction, "kind": self.kind,
                "tracked": self.tracked,
                "tolerance": self.effective_tolerance}


@dataclass(frozen=True)
class BenchCase:
    """One cell of the benchmark matrix.

    ``measure(case, size)`` performs a single repetition and returns
    ``(samples, meta)``: samples maps every metric name to one float,
    meta carries non-statistical context counters (recorded once).
    """

    id: str
    group: str
    workload: str | None
    profile: str
    metrics: tuple[Metric, ...]
    measure: object = field(repr=False, compare=False, default=None)
    variant: str = ""
    default_reps: int | None = None      # None: runner option decides
    default_inner: int | None = None     # None: runner option decides

    def metric(self, name: str) -> Metric:
        for metric in self.metrics:
            if metric.name == name:
                return metric
        raise KeyError(f"{self.id} has no metric {name!r}")


# ----------------------------------------------------------------------
# Measure functions.  Imports happen inside so that `import
# repro.perf.registry` stays cheap for CLI --help and test collection.

def _measure_dispatch(case: BenchCase, size: str):
    from ..api import VM
    from ..obs import Observability
    from ..workloads import load_workload

    program = load_workload(case.workload, size)
    config = profile_config(case.profile)
    obs = Observability(history=0)       # unwatched bus: timers only
    vm = VM(program, config=config, obs=obs,
            profile=warm_profile_for(case, program, config))
    elapsed, result = vm.run_timed()
    record_profile(case, vm)
    stats = result.stats
    timers = obs.timers
    samples = {
        "seconds": elapsed,
        "construct_seconds": timers.seconds("construct"),
        "codegen_seconds": timers.seconds("codegen"),
        "instructions": float(stats.instr_total),
    }
    meta = {
        "traces_compiled": stats.codegen_traces_compiled,
        "code_cache_hits": stats.codegen_cache_hits,
        "code_cache_misses": stats.codegen_cache_misses,
        "source_bytes": stats.codegen_source_bytes,
        "side_exits": stats.codegen_side_exits,
        "traces_constructed": stats.traces_constructed,
        "construct_spans": len(timers.samples("construct")),
        "codegen_spans": len(timers.samples("codegen")),
        "result": repr(result.value),
    }
    return samples, meta


def _measure_linking(case: BenchCase, size: str):
    from ..api import VM
    from ..workloads import load_workload

    program = load_workload(case.workload, size)
    config = profile_config(case.profile)
    vm = VM(program, config=config,
            profile=warm_profile_for(case, program, config))
    elapsed, result = vm.run_timed()
    record_profile(case, vm)
    stats = result.stats
    samples = {
        "seconds": elapsed,
        "linked_transfers": float(stats.linked_transfers),
        "instructions": float(stats.instr_total),
    }
    meta = {
        "links_installed": stats.links_installed,
        "superblock_traces": stats.superblock_traces,
        "trace_dispatches": stats.trace_dispatches,
        "chain_rate": round(stats.chain_rate, 4),
        "result": repr(result.value),
    }
    return samples, meta


def _measure_obs(case: BenchCase, size: str):
    from ..api import VM
    from ..obs import Observability
    from ..workloads import load_workload

    program = load_workload(case.workload, size)
    if case.variant == "off":
        obs = None
    elif case.variant == "unwatched":
        obs = Observability(history=0)
    else:                                # full stack, file-less
        obs = Observability(snapshot_every=10_000)
    vm = VM(program, config=profile_config(case.profile), obs=obs)
    elapsed, result = vm.run_timed()
    samples = {"seconds": elapsed}
    meta = {"instructions": result.stats.instr_total}
    if obs is not None:
        meta.update(events_emitted=obs.bus.emitted,
                    events_suppressed=obs.bus.suppressed,
                    snapshots=obs.snapshots_taken)
        vm.close()
    return samples, meta


#: Teacher profiles for the warmstart group, captured once per
#: (workload, size, profile) and reused by every warm repetition — the
#: persistent-store analogue of "load the same .rprof for every
#: serving process".
_WARMSTART_STORES: dict = {}


def _warmstart_store(workload: str, size: str, profile: str):
    key = (workload, size, profile)
    store = _WARMSTART_STORES.get(key)
    if store is None:
        from ..api import VM
        from ..workloads import load_workload
        vm = VM(load_workload(workload, size),
                config=profile_config(profile))
        vm.run()
        store = _WARMSTART_STORES[key] = vm.save_profile()
    return store


def _measure_warmstart(case: BenchCase, size: str):
    """Time from run start to the first compiled-trace installation.

    The cold arm starts from an empty VM and pays the whole profiling
    ramp (start-state delay, hot detection, trace construction,
    compile threshold); the warm arm seeds the same VM from a captured
    ProfileStore first.  Each repetition swaps in an empty process-wide
    code memo so neither arm inherits compiles from earlier reps, and
    the metric falls back to full elapsed time when nothing compiles.
    """
    import time as clock

    from ..api import VM
    from ..obs import Observability
    from ..opt.codecache import CodeCache
    from ..workloads import load_workload

    program = load_workload(case.workload, size)
    config = profile_config(case.profile)
    store = (None if case.variant == "cold"
             else _warmstart_store(case.workload, size, case.profile))

    saved_memo = CodeCache._shared_code
    CodeCache._shared_code = {}
    try:
        obs = Observability(history=0)
        first_compile: list[float] = []
        obs.bus.subscribe(
            lambda event: first_compile.append(clock.perf_counter()),
            kinds=("codegen.compile", "codegen.cache_hit"))
        load_started = clock.perf_counter()
        vm = VM(program, config=config, obs=obs, profile=store)
        load_seconds = clock.perf_counter() - load_started
        run_started = clock.perf_counter()
        elapsed, result = vm.run_timed()
        first_seconds = (first_compile[0] - run_started
                         if first_compile else elapsed)
    finally:
        CodeCache._shared_code = saved_memo

    stats = result.stats
    samples = {
        "first_compiled_dispatch_seconds": first_seconds,
        "seconds": elapsed,
    }
    pinfo = vm.controller.profile_info or {}
    meta = {
        "warm_started": bool(pinfo.get("warm_started")),
        "load_seconds": round(load_seconds, 6),
        "loaded_traces": pinfo.get("loaded_traces", 0),
        "loaded_nodes": pinfo.get("loaded_nodes", 0),
        "loaded_links": pinfo.get("loaded_links", 0),
        "shapes_precompiled": pinfo.get("shapes_precompiled", 0),
        "shared_hits": vm.snapshot()["codegen"]["shared_hits"],
        "traces_compiled": stats.codegen_traces_compiled,
        "result": repr(result.value),
    }
    return samples, meta


def _measure_table1(case: BenchCase, size: str):
    from ..harness import run_experiment

    run = run_experiment(case.workload, size)
    stats = run.stats
    samples = {
        "avg_trace_length": stats.average_trace_length,
        "coverage": stats.coverage,
        "completion_rate": stats.completion_rate,
    }
    meta = {
        "traces_in_cache": stats.traces_in_cache,
        "signals": stats.signals,
        "instructions": stats.instr_total,
    }
    return samples, meta


def _measure_table7(case: BenchCase, size: str):
    from ..harness import measure_profiler_overhead, run_experiment

    sample = measure_profiler_overhead(case.workload, size, repeats=1)
    run = run_experiment(case.workload, size)
    dispatches = run.stats.total_dispatches
    expected = ((dispatches / 1e6)
                * sample.overhead_per_million_dispatches)
    fraction = (expected / sample.base_seconds
                if sample.base_seconds else 0.0)
    samples = {"overhead_fraction": fraction}
    meta = {
        "trace_model_dispatches": dispatches,
        "base_seconds": sample.base_seconds,
        "overhead_per_million_dispatches":
            sample.overhead_per_million_dispatches,
        "profiled_relative_overhead": sample.relative_overhead,
    }
    return samples, meta


# ----------------------------------------------------------------------
# Registry construction.

_DISPATCH_METRICS = (
    Metric("seconds"),
    Metric("construct_seconds", tracked=False),
    Metric("codegen_seconds", tracked=False),
    Metric("instructions", unit="instr", kind="count"),
)

_OBS_METRICS = (Metric("seconds"),)

_TABLE1_METRICS = (
    Metric("avg_trace_length", unit="blocks", direction="higher",
           kind="ratio"),
    Metric("coverage", unit="fraction", direction="higher",
           kind="ratio"),
    Metric("completion_rate", unit="fraction", direction="higher",
           kind="ratio", tracked=False),
)

_LINKING_METRICS = (
    Metric("seconds"),
    # Deterministic per-config: a dispatch either takes an installed
    # link or it doesn't, so the gate pins it tightly.  Zero (and
    # still tracked) on the nolink control arm.
    Metric("linked_transfers", unit="transfers", direction="higher",
           kind="count"),
    Metric("instructions", unit="instr", kind="count"),
)

_WARMSTART_METRICS = (
    # Cold arms ramp through profiling before anything compiles; warm
    # arms dispatch restored traces immediately, so the two medians sit
    # orders of magnitude apart.  Generous tolerance: the quantity is
    # small on the warm arm and scheduler-noise-bound.
    Metric("first_compiled_dispatch_seconds", tolerance=0.5),
    Metric("seconds", tracked=False),
)

_TABLE7_METRICS = (
    # Timing-derived ratio: generous tolerance, it divides two noisy
    # wall-clock measurements.
    Metric("overhead_fraction", unit="fraction", kind="ratio",
           tolerance=0.5),
)


def _build_registry() -> dict[str, BenchCase]:
    from ..workloads import WORKLOAD_NAMES

    cases: dict[str, BenchCase] = {}

    def add(case: BenchCase) -> None:
        cases[case.id] = case

    for workload in HOT_WORKLOADS:
        add(BenchCase(
            id=f"dispatch.{workload}.py",
            group="dispatch", workload=workload, profile="py",
            metrics=_DISPATCH_METRICS,
            measure=_measure_dispatch))
    for variant in ("off", "unwatched", "full"):
        add(BenchCase(
            id=f"obs.compressx.{variant}",
            group="obs", workload="compressx", profile="py",
            metrics=_OBS_METRICS, measure=_measure_obs,
            variant=variant))
    for workload in HOT_WORKLOADS:
        for variant, profile in (("linked", "py"),
                                 ("nolink", "py-nolink")):
            add(BenchCase(
                id=f"linking.{workload}.{variant}",
                group="linking", workload=workload, profile=profile,
                metrics=_LINKING_METRICS, measure=_measure_linking,
                variant=variant))
    for workload in HOT_WORKLOADS:
        for variant in ("cold", "warm"):
            add(BenchCase(
                id=f"warmstart.{workload}.{variant}",
                group="warmstart", workload=workload, profile="py",
                metrics=_WARMSTART_METRICS,
                measure=_measure_warmstart, variant=variant))
    for workload in WORKLOAD_NAMES:
        add(BenchCase(
            id=f"table1.{workload}",
            group="table1", workload=workload, profile="plain",
            metrics=_TABLE1_METRICS, measure=_measure_table1,
            default_reps=2, default_inner=1))
    for workload in HOT_WORKLOADS:
        add(BenchCase(
            id=f"table7.{workload}",
            group="table7", workload=workload, profile="plain",
            metrics=_TABLE7_METRICS, measure=_measure_table7,
            default_reps=3, default_inner=1))
    return cases


_REGISTRY: dict[str, BenchCase] | None = None


def _registry() -> dict[str, BenchCase]:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    return _REGISTRY


def all_cases() -> tuple[BenchCase, ...]:
    return tuple(_registry().values())


def groups() -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for case in _registry().values():
        seen.setdefault(case.group)
    return tuple(seen)


def case_by_id(case_id: str) -> BenchCase:
    try:
        return _registry()[case_id]
    except KeyError:
        raise KeyError(f"unknown benchmark case {case_id!r}") from None


def select(patterns=None) -> tuple[BenchCase, ...]:
    """Cases whose id matches any glob pattern (or group name).

    ``select()`` / ``select(["*"])`` returns everything; a bare group
    name like ``dispatch`` matches its whole group; otherwise patterns
    are ``fnmatch`` globs over case ids (``dispatch.compressx.*``).
    Unknown patterns raise instead of silently matching nothing, so a
    typo in CI cannot turn the gate into a no-op.
    """
    cases = list(_registry().values())
    if not patterns:
        return tuple(cases)
    chosen: dict[str, BenchCase] = {}
    for pattern in patterns:
        matched = [case for case in cases
                   if case.group == pattern
                   or fnmatch.fnmatchcase(case.id, pattern)]
        if not matched:
            raise KeyError(
                f"pattern {pattern!r} matches no benchmark case; "
                f"known groups: {', '.join(groups())}")
        for case in matched:
            chosen[case.id] = case
    return tuple(chosen.values())
