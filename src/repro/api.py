"""The stable embedding facade: one object, the whole system.

:class:`VM` is the supported way to embed the trace-dispatching VM.
It accepts a linked :class:`~repro.jvm.linker.Program`, mini-Java
source text, or a path to a ``.mj`` / ``.jasm`` file, wires an
optional :class:`~repro.obs.Observability` context through every
layer, and exposes the run artifacts (stats, snapshot, events) behind
properties with stable names::

    from repro import VM, Observability

    vm = VM(source, threshold=0.97,
            obs=Observability(chrome_trace_path="run.trace.json"))
    result = vm.run()
    print(vm.stats.coverage, vm.snapshot()["cache"]["traces"])

``run_traced`` remains as a thin shim over this class; keyword growth
lands here, not on the shim.
"""

from __future__ import annotations

import dataclasses
import os
import time

from .core import RunResult, TraceCacheConfig, TraceController
from .jvm.linker import Program
from .jvm.threaded import DEFAULT_MAX_INSTRUCTIONS
from .obs import Observability

__all__ = ["VM", "compile_program"]


def compile_program(program_or_source) -> Program:
    """Coerce `program_or_source` into a linked Program.

    Accepts a :class:`Program` (returned as-is), mini-Java source text,
    or a filesystem path (``str`` naming an existing file or any
    ``os.PathLike``) to a ``.mj``/``.jasm`` file.
    """
    if isinstance(program_or_source, Program):
        return program_or_source
    if isinstance(program_or_source, os.PathLike) or (
            isinstance(program_or_source, str)
            and "\n" not in program_or_source
            and os.path.exists(program_or_source)):
        path = os.fspath(program_or_source)
        with open(path) as handle:
            source = handle.read()
        if path.endswith(".jasm"):
            from .jvm import link, parse_jasm, verify_program
            program = link(parse_jasm(source))
            verify_program(program)
            return program
        from .lang import compile_source
        return compile_source(source)
    if isinstance(program_or_source, str):
        if "\n" not in program_or_source and \
                program_or_source.endswith((".mj", ".jasm", ".java")):
            raise FileNotFoundError(program_or_source)
        from .lang import compile_source
        return compile_source(program_or_source)
    raise TypeError(
        f"expected Program, source text, or path; got "
        f"{type(program_or_source).__name__}")


class VM:
    """A trace-dispatching virtual machine instance.

    Parameters
    ----------
    program_or_source:
        A linked Program, mini-Java source text, or a file path.
    config:
        A :class:`TraceCacheConfig`; field overrides may instead (or
        additionally) be passed as keyword arguments — ``VM(src,
        threshold=0.9)`` is ``VM(src, config=TraceCacheConfig(
        threshold=0.9))``.
    obs:
        An :class:`~repro.obs.Observability` context; every profiler /
        cache / constructor / codegen instrumentation point routes
        through its bus and timers.  Default None: fully disabled,
        zero overhead.
    profile:
        Warm start: a ``.rprof`` path or an in-memory
        :class:`~repro.store.ProfileStore` captured by a previous run.
        The store seeds the profiler, trace cache, links and compiled
        shapes *before the first dispatch*, so hot paths run as traces
        from the first iteration.  Fingerprint mismatches (different
        program, different profiling config) raise
        :class:`~repro.store.ProfileError` at construction.

    The same VM can :meth:`run` repeatedly; the warmed BCG and trace
    cache persist across runs, like a long-running VM re-entering main.
    :meth:`save_profile` captures that warmth for future processes.
    """

    def __init__(self, program_or_source,
                 config: TraceCacheConfig | None = None, *,
                 obs: Observability | None = None,
                 max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                 profile=None,
                 **config_overrides) -> None:
        self.program = compile_program(program_or_source)
        if config_overrides:
            config = dataclasses.replace(config or TraceCacheConfig(),
                                         **config_overrides)
        self.config = config or TraceCacheConfig()
        self.obs = obs
        self.controller = TraceController(
            self.program, self.config, max_instructions, obs=obs)
        self.result: RunResult | None = None
        if profile is not None:
            self.load_profile(profile)

    # ------------------------------------------------------------------
    def load_profile(self, profile) -> dict:
        """Seed this VM from `profile` (a path or a ProfileStore).

        Returns the seeding summary (restored node/trace/link counts,
        shapes pre-compiled).  Normally invoked via the ``profile=``
        constructor argument — seeding an already-run VM is legal but
        never overwrites state the VM has since learned itself.
        """
        from .store import ProfileStore, seed_controller
        if isinstance(profile, ProfileStore):
            store, source = profile, "<store>"
        else:
            store, source = ProfileStore.load(profile), str(profile)
        info = seed_controller(self.controller, store, source)
        self.controller.profile_info = {
            "warm_started": True,
            "loaded_nodes": info["nodes"],
            "loaded_traces": info["traces"],
            "loaded_links": info["links"],
            "shapes_precompiled": info["shapes_precompiled"],
            "saves": (self.controller.profile_info or {}).get(
                "saves", 0),
        }
        return info

    def save_profile(self, path=None):
        """Capture this VM's learned state as a ProfileStore.

        With `path` the store is also written there (conventionally a
        ``*.rprof`` file) and the path is returned; without it the
        in-memory :class:`~repro.store.ProfileStore` is returned.
        """
        from .store import capture_profile
        store = capture_profile(
            self.controller,
            created=time.strftime("%Y-%m-%dT%H:%M:%S%z"))
        info = self.controller.profile_info
        if info is None:
            info = self.controller.profile_info = {
                "warm_started": False, "loaded_nodes": 0,
                "loaded_traces": 0, "loaded_links": 0,
                "shapes_precompiled": 0, "saves": 0}
        info["saves"] += 1
        bus = self.obs.bus if self.obs is not None else None
        if bus is not None:
            bus.emit("profile.saved",
                     path=None if path is None else str(path),
                     nodes=len(store.nodes), traces=len(store.traces),
                     links=len(store.links), shapes=len(store.shapes))
        if path is None:
            return store
        return store.save(path)

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute the program entry to completion; returns RunResult."""
        self.result = self.controller.run()
        return self.result

    def run_timed(self) -> "tuple[float, RunResult]":
        """:meth:`run` bracketed by one monotonic clock read pair.

        Returns ``(elapsed_seconds, result)``.  This is the timing
        primitive the benchmark runner (:mod:`repro.perf.runner`) and
        the benchmark shims share, so every harness measures the same
        span: controller entry to controller exit, excluding program
        compilation and VM construction.
        """
        started = time.perf_counter()
        result = self.run()
        elapsed = time.perf_counter() - started
        result.stats.runtime_seconds = elapsed
        return elapsed, result

    def _last(self) -> RunResult:
        if self.result is None:
            raise RuntimeError("VM has not run yet; call run() first")
        return self.result

    # ------------------------------------------------------------------
    @property
    def stats(self):
        """RunStats of the most recent run."""
        return self._last().stats

    @property
    def value(self):
        """The program's return value from the most recent run."""
        return self._last().value

    @property
    def output(self) -> list[str]:
        """Lines the program printed during the most recent run."""
        return self._last().output

    @property
    def events(self) -> list:
        """Recorded observability events (empty without obs/history)."""
        if self.obs is None:
            return []
        return self.obs.events

    @property
    def profiler(self):
        return self.controller.profiler

    @property
    def cache(self):
        return self.controller.cache

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A stable-schema state snapshot (works with or without obs)."""
        from .obs.export import build_snapshot
        return build_snapshot(self.controller)

    def close(self) -> None:
        """Flush and close any attached exporters."""
        if self.obs is not None:
            self.obs.close()

    def __enter__(self) -> "VM":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
