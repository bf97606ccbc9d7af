"""N-way differential execution: one program, every engine, one verdict.

The paper's claim is behavioural equivalence — trace dispatch (with or
without optimization and codegen) must be observably identical to plain
interpretation.  This module operationalizes the claim: it runs one
linked program across

- the switch interpreter (the reference),
- the threaded block interpreter,
- the trace-dispatching controller under several aggressive
  :data:`DIFF_PROFILES` (plain, chopped traces, the optimizer with
  codegen never firing, py codegen, chopped and link-aggressive py
  codegen),
- optionally the ``baselines/`` selector engines (dynamo, replay, ...),

and compares, per engine pair, the *observables*: outcome kind (normal
return / uncaught exception class / step limit / VM error), return
value, printed output, executed instruction count, and the post-run
static-field snapshot (:meth:`repro.jvm.linker.Program
.statics_snapshot` — the heap-effect digest).  Non-return outcomes
compare outcome and statics only: abort points are engine-timing
dependent under step limits, and error detail strings are not part of
the equivalence contract.

Traced engines can additionally run under an
:class:`~repro.check.invariants.InvariantChecker`; violations surface
as divergences of field ``"invariants"`` so one report carries both
black-box and whitebox findings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..core import TraceCacheConfig
from ..jvm.errors import (StepLimitExceeded, UncaughtVMException,
                          VMRuntimeError)
from ..jvm.heap import ArrayRef, ObjRef
from ..jvm.interpreter import SwitchInterpreter
from ..jvm.linker import Program
from ..jvm.threaded import ThreadedInterpreter
from .invariants import InvariantChecker

__all__ = [
    "DIFF_PROFILES", "WARM_PROFILES", "EngineResult", "Divergence",
    "DiffReport", "run_differential", "run_spec_differential",
    "assert_equivalent",
]

REFERENCE_ENGINE = "switch"

# A compile_threshold no trace's entry count ever reaches.
NEVER_COMPILE = 10 ** 9

# Aggressive trace-cache profiles: low thresholds and short delays so
# even small generated programs form (and invalidate, and rebuild)
# traces; chopped variants force many short traces and trace chaining.
DIFF_PROFILES: dict[str, TraceCacheConfig] = {
    "plain": TraceCacheConfig(threshold=0.90, start_state_delay=4,
                              decay_period=16),
    "chop": TraceCacheConfig(threshold=0.55, start_state_delay=2,
                             decay_period=8, max_trace_blocks=8),
    # The optimizer stack with codegen never firing: every trace runs
    # on the block-path fallback, under links and superblocks.
    "py-cold": TraceCacheConfig(threshold=0.90, start_state_delay=4,
                                decay_period=16, optimize_traces=True,
                                compile_threshold=NEVER_COMPILE),
    "py": TraceCacheConfig(threshold=0.90, start_state_delay=4,
                           decay_period=16, optimize_traces=True,
                           compile_threshold=1),
    "py-chop": TraceCacheConfig(threshold=0.55, start_state_delay=2,
                                decay_period=8, max_trace_blocks=8,
                                optimize_traces=True,
                                compile_threshold=1),
    # Linking-aggressive: every observed exit edge links immediately,
    # loops superblock at the first opportunity, and short chopped
    # traces maximize exit->entry transfer density.
    "py-link": TraceCacheConfig(threshold=0.70, start_state_delay=2,
                                decay_period=8, max_trace_blocks=8,
                                optimize_traces=True,
                                compile_threshold=1,
                                trace_linking=True, link_threshold=1,
                                link_max_fanout=8, superblock_iters=3),
}

# Warm-start engines (repro.store): each runs the named DIFF_PROFILES
# config twice — a cold warm-up VM whose captured profile then seeds a
# fresh VM through a JSON round trip, asserting that pre-seeded
# profiler/cache/link/codegen state is observably identical to learning
# it live.  Based on the linking-aggressive profile so restoration
# covers links and superblocks, not just plain traces.
WARM_PROFILES: dict[str, str] = {"py-warm": "py-link"}

DEFAULT_MAX_INSTRUCTIONS = 5_000_000


# ----------------------------------------------------------------------
def _normalize(value):
    """A structurally comparable form of a runtime value.

    Floats go through ``repr`` so NaN compares equal to NaN and -0.0
    differs from 0.0 — exactly the distinctions Java semantics make
    observable.  References compare by shape, not identity.
    """
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, ObjRef):
        return ("obj", value.rtclass.name,
                tuple(sorted((k, _normalize(v))
                             for k, v in value.fields.items())))
    if isinstance(value, ArrayRef):
        return ("array", tuple(_normalize(v) for v in value.data))
    return value


def _normalize_statics(snapshot: dict) -> tuple:
    return tuple((cls, tuple((f, _normalize(v))
                             for f, v in fields.items()))
                 for cls, fields in snapshot.items())


@dataclass(slots=True)
class EngineResult:
    """What one engine observed running the program."""

    engine: str
    outcome: str                # "return" | "uncaught:<Class>" |
                                # "limit" | "error"
    value: object = None        # normalized return value
    output: tuple = ()          # printed lines
    instr_count: int | None = None
    statics: tuple = ()         # normalized statics snapshot
    detail: str = ""            # error text (informational only)
    stats: object = None        # RunStats for traced engines
    invariant_errors: tuple = ()

    def describe(self) -> str:
        if self.outcome == "return":
            return (f"{self.engine}: return {self.value!r}, "
                    f"{len(self.output)} line(s), "
                    f"{self.instr_count} instrs")
        extra = f" ({self.detail})" if self.detail else ""
        return f"{self.engine}: {self.outcome}{extra}"


@dataclass(slots=True)
class Divergence:
    """One observable difference between an engine and the reference."""

    engine: str
    field: str                  # outcome|value|output|instr_count|
                                # statics|invariants
    reference: object
    actual: object

    def describe(self) -> str:
        return (f"[{self.engine}] {self.field}: reference="
                f"{_clip(self.reference)} actual={_clip(self.actual)}")


def _clip(value, limit: int = 160) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


@dataclass(slots=True)
class DiffReport:
    """The full verdict of one differential run."""

    results: dict = field(default_factory=dict)     # engine -> EngineResult
    divergences: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def engines(self) -> list[str]:
        return list(self.results)

    def diverging_engines(self) -> list[str]:
        seen: list[str] = []
        for div in self.divergences:
            if div.engine not in seen:
                seen.append(div.engine)
        return seen

    def describe(self) -> str:
        lines = [result.describe() for result in self.results.values()]
        if self.divergences:
            lines.append(f"{len(self.divergences)} divergence(s):")
            lines.extend("  " + d.describe() for d in self.divergences)
        else:
            lines.append("all engines agree")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Engine runners.  Each resets statics itself (every engine's run()
# starts from reset state) and snapshots them immediately afterwards.
def _capture(engine: str, program: Program, runner) -> EngineResult:
    """Run `runner` (returning (value, output, instr_count, stats)) and
    fold any VM-level exception into an outcome string."""
    try:
        value, output, instr_count, stats = runner()
    except UncaughtVMException as exc:
        cls = getattr(getattr(exc, "value", None), "rtclass", None)
        return EngineResult(
            engine=engine,
            outcome=f"uncaught:{cls.name if cls else '?'}",
            statics=_normalize_statics(program.statics_snapshot()))
    except StepLimitExceeded as exc:
        return EngineResult(engine=engine, outcome="limit",
                            detail=str(exc))
    except VMRuntimeError as exc:
        return EngineResult(
            engine=engine, outcome="error", detail=str(exc),
            statics=_normalize_statics(program.statics_snapshot()))
    return EngineResult(
        engine=engine, outcome="return", value=_normalize(value),
        output=tuple(output), instr_count=instr_count, stats=stats,
        statics=_normalize_statics(program.statics_snapshot()))


def _run_switch(program: Program, max_instructions: int) -> EngineResult:
    def runner():
        interp = SwitchInterpreter(program, max_instructions).run()
        return interp.result, interp.output, interp.instr_count, None
    return _capture("switch", program, runner)


def _run_threaded(program: Program,
                  max_instructions: int) -> EngineResult:
    def runner():
        machine = ThreadedInterpreter(program, max_instructions).run()
        return (machine.result, machine.output, machine.instr_count,
                None)
    return _capture("threaded", program, runner)


def _run_traced(name: str, program: Program, config: TraceCacheConfig,
                max_instructions: int,
                check_invariants: bool) -> EngineResult:
    from ..api import VM
    from ..obs import Observability

    checker = None
    if check_invariants:
        obs = Observability(history=0)
        vm = VM(program, config=config,
                max_instructions=max_instructions, obs=obs)
        checker = InvariantChecker(vm.controller).attach(obs.bus)
    else:
        vm = VM(program, config=config,
                max_instructions=max_instructions)

    def runner():
        result = vm.run()
        return (result.machine.result, result.machine.output,
                result.machine.instr_count, result.stats)

    captured = _capture(name, program, runner)
    if checker is not None:
        checker.final_check()
        captured.invariant_errors = tuple(checker.violations)
    return captured


def _run_warm(name: str, program: Program, config: TraceCacheConfig,
              max_instructions: int,
              check_invariants: bool) -> EngineResult:
    """A warm-started VM: profile captured from a cold run of the same
    config, round-tripped through JSON, seeded into a fresh VM."""
    from ..api import VM
    from ..obs import Observability
    from ..store import ProfileStore

    warmup = VM(program, config=config,
                max_instructions=max_instructions)
    try:
        warmup.run()
    except Exception:
        # A crashing or limit-hitting warm-up still leaves a valid
        # partial profile; the warm engine's own observables are what
        # get compared.
        pass
    store = ProfileStore.from_dict(
        json.loads(warmup.save_profile().to_json()), "<warmup>")

    checker = None
    if check_invariants:
        obs = Observability(history=0)
        vm = VM(program, config=config,
                max_instructions=max_instructions, obs=obs)
        # Attach before seeding so cache.trace_restored emissions are
        # seen and restored serials are accounted for.
        checker = InvariantChecker(vm.controller).attach(obs.bus)
    else:
        vm = VM(program, config=config,
                max_instructions=max_instructions)
    vm.load_profile(store)

    def runner():
        result = vm.run()
        return (result.machine.result, result.machine.output,
                result.machine.instr_count, result.stats)

    captured = _capture(name, program, runner)
    if checker is not None:
        checker.final_check()
        captured.invariant_errors = tuple(checker.violations)
    return captured


def _run_baseline(scheme: str, program: Program,
                  max_instructions: int) -> EngineResult:
    from ..harness.experiment import make_selector
    from ..baselines.interface import run_with_selector

    def runner():
        machine, stats = run_with_selector(
            program, make_selector(scheme), max_instructions)
        return machine.result, machine.output, machine.instr_count, stats
    return _capture(f"baseline:{scheme}", program, runner)


# ----------------------------------------------------------------------
def _compare(reference: EngineResult, actual: EngineResult,
             out: list) -> None:
    if actual.invariant_errors:
        out.append(Divergence(actual.engine, "invariants", (),
                              actual.invariant_errors))
    if reference.outcome != actual.outcome:
        out.append(Divergence(actual.engine, "outcome",
                              reference.outcome, actual.outcome))
        return
    if reference.outcome == "limit":
        # Engines count instructions at different granularities near
        # the abort point; reaching the limit at all is the observable.
        return
    if reference.outcome != "return":
        if reference.statics != actual.statics:
            out.append(Divergence(actual.engine, "statics",
                                  reference.statics, actual.statics))
        return
    if reference.value != actual.value:
        out.append(Divergence(actual.engine, "value",
                              reference.value, actual.value))
    if reference.output != actual.output:
        out.append(Divergence(actual.engine, "output",
                              reference.output, actual.output))
    if reference.instr_count != actual.instr_count:
        out.append(Divergence(actual.engine, "instr_count",
                              reference.instr_count,
                              actual.instr_count))
    if reference.statics != actual.statics:
        out.append(Divergence(actual.engine, "statics",
                              reference.statics, actual.statics))


def run_differential(program: Program, profiles=None, *,
                     max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                     check_invariants: bool = True,
                     baselines: tuple = ()) -> DiffReport:
    """Run `program` on every engine; returns the structured verdict.

    `profiles` selects traced configurations by :data:`DIFF_PROFILES`
    name, plus the warm-start engines in :data:`WARM_PROFILES`
    (default: all of both).  `baselines` names selector schemes
    (e.g. ``("dynamo",)``) to include.  The switch interpreter is the
    reference; the threaded interpreter and every traced/warm/baseline
    engine are compared against it.
    """
    if profiles is None:
        profiles = tuple(DIFF_PROFILES) + tuple(WARM_PROFILES)
    report = DiffReport()
    reference = _run_switch(program, max_instructions)
    report.results[REFERENCE_ENGINE] = reference

    candidates = [_run_threaded(program, max_instructions)]
    for name in profiles:
        if name in WARM_PROFILES:
            config = DIFF_PROFILES[WARM_PROFILES[name]]
            candidates.append(_run_warm(name, program, config,
                                        max_instructions,
                                        check_invariants))
            continue
        config = DIFF_PROFILES[name]
        candidates.append(_run_traced(name, program, config,
                                      max_instructions,
                                      check_invariants))
    for scheme in baselines:
        candidates.append(_run_baseline(scheme, program,
                                        max_instructions))

    for result in candidates:
        report.results[result.engine] = result
        _compare(reference, result, report.divergences)
    return report


def run_spec_differential(spec, profiles=None, *,
                          max_instructions: int =
                          DEFAULT_MAX_INSTRUCTIONS,
                          check_invariants: bool = True,
                          baselines: tuple = ()) -> DiffReport:
    """Build a generator spec's program and run the full differential."""
    from .genprog import build_program
    return run_differential(build_program(spec), profiles,
                            max_instructions=max_instructions,
                            check_invariants=check_invariants,
                            baselines=baselines)


def assert_equivalent(program: Program, profiles=None, *,
                      max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                      check_invariants: bool = True,
                      baselines: tuple = ()) -> DiffReport:
    """run_differential, raising AssertionError on any divergence."""
    report = run_differential(program, profiles,
                              max_instructions=max_instructions,
                              check_invariants=check_invariants,
                              baselines=baselines)
    if not report.ok:
        raise AssertionError("engines diverge:\n" + report.describe())
    return report
