"""Live observability: event bus, phase timers, exporters, snapshots.

The trace-cache system is driven by *rare, structural* events — state
signals, trace construction, invalidation, codegen — layered over a
*hot, uniform* dispatch loop.  This package makes the rare events
observable without taxing the hot loop:

- :mod:`repro.obs.bus` — a typed publish/subscribe event bus with a
  registered kind taxonomy (:data:`~repro.obs.bus.KINDS`), subscriber
  filtering by kind or category, and a disabled fast path that never
  allocates an :class:`~repro.obs.bus.Event` when nobody listens.
- :mod:`repro.obs.timers` — monotonic phase accounting (construction,
  codegen, whole runs) with a bounded ring buffer of spans.
- :mod:`repro.obs.export` — JSONL event streams, Chrome trace-event
  files (``chrome://tracing`` / Perfetto-loadable), and the
  stable-schema :func:`~repro.obs.export.build_snapshot` dict a
  serving layer can poll.

:class:`Observability` bundles the three and is the single object the
:class:`repro.api.VM` facade, the CLI (``--events``,
``--chrome-trace``, ``--snapshot-every``) and embedders hand to the
controller.  When it is absent (the default) every instrumentation
point in the core is a single ``is None`` test on a cold branch.
"""

from __future__ import annotations

from collections import deque

from .bus import CATEGORIES, KINDS, Event, EventBus, EventRecorder
from .export import (JsonlWriter, build_snapshot, chrome_trace_dict,
                     event_to_dict, write_chrome_trace)
from .timers import PhaseTimers

__all__ = [
    "CATEGORIES", "KINDS", "Event", "EventBus", "EventRecorder",
    "JsonlWriter", "build_snapshot", "chrome_trace_dict",
    "event_to_dict", "write_chrome_trace", "PhaseTimers",
    "Observability",
]


class Observability:
    """One run-observation context: bus + timers + exporters + snapshots.

    Parameters
    ----------
    events_path:
        Write every event as one JSON line (schema:
        ``{"seq", "ts", "kind", "data"}``) to this file.
    chrome_trace_path:
        Write a Chrome trace-event JSON file at the end of each run —
        phase timer spans become duration events, bus events become
        instant events on per-category tracks.
    snapshot_every:
        Take a :func:`build_snapshot` every N dispatches (0 = off).
        Snapshots are kept in :attr:`snapshots` (bounded) and also
        emitted on the bus as ``obs.snapshot`` events, so they flow
        into the JSONL stream for free.
    history:
        Capacity of the in-memory event ring (:attr:`recorder`) behind
        ``VM.events``.  0 disables recording (the bus then suppresses
        unsubscribed events without allocating them).
    """

    def __init__(self, *, events_path=None, chrome_trace_path=None,
                 snapshot_every: int = 0, history: int = 4096,
                 span_history: int = 4096, snapshot_history: int = 64,
                 bus: EventBus | None = None,
                 timers: PhaseTimers | None = None) -> None:
        if snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        self.bus = bus if bus is not None else EventBus()
        self.timers = timers if timers is not None else \
            PhaseTimers(capacity=span_history)
        self.snapshot_every = snapshot_every
        self.events_path = events_path
        self.chrome_trace_path = chrome_trace_path
        self.snapshots: deque = deque(maxlen=max(1, snapshot_history))
        self.snapshots_taken = 0
        self.recorder: EventRecorder | None = None
        if history:
            self.recorder = EventRecorder(capacity=history)
            self.bus.subscribe(self.recorder.record)
        self._jsonl: JsonlWriter | None = None
        if events_path is not None:
            self._jsonl = JsonlWriter(events_path)
            self.bus.subscribe(self._jsonl.write)
        self._controller = None
        self._run_started_at: float | None = None

    # ------------------------------------------------------------------
    @property
    def events(self) -> list:
        """Recorded events, oldest first (empty when history=0)."""
        if self.recorder is None:
            return []
        return list(self.recorder.events)

    # ------------------------------------------------------------------
    # Controller wiring (called by TraceController, not by users).
    def attach(self, controller) -> None:
        """Bind to a controller: route its construction/codegen work
        through the phase timers and remember it for snapshots."""
        self._controller = controller
        cache = controller.cache
        controller.profiler.signal_sink = self.timers.wrap(
            "construct", cache.on_signal)
        optimizer = getattr(controller, "optimizer", None)
        codecache = getattr(optimizer, "codecache", None)
        if codecache is not None:
            codecache.install = self.timers.wrap(
                "codegen", codecache.install)
            codecache.install_block = self.timers.wrap(
                "codegen", codecache.install_block)

    def begin_run(self, controller, stats) -> None:
        self._run_started_at = self.timers.clock()
        bus = self.bus
        if bus.wants("vm.run_started"):
            bus.emit("vm.run_started",
                     max_instructions=controller.max_instructions)

    def end_run(self, controller, machine, stats) -> None:
        if self._run_started_at is not None:
            self.timers.stop("run", self._run_started_at)
            self._run_started_at = None
        if self.snapshot_every:
            self.take_snapshot(controller,
                               dispatches=stats.total_dispatches)
        bus = self.bus
        if bus.wants("vm.run_finished"):
            bus.emit("vm.run_finished",
                     instructions=machine.instr_count,
                     block_dispatches=stats.block_dispatches,
                     trace_dispatches=stats.trace_dispatches)
        self.flush()

    # ------------------------------------------------------------------
    def snapshot(self, *, dispatches: int | None = None) -> dict:
        """A stable-schema snapshot of the attached controller."""
        if self._controller is None:
            raise RuntimeError(
                "no controller attached; run something first")
        return build_snapshot(self._controller, dispatches=dispatches)

    def take_snapshot(self, controller=None,
                      dispatches: int | None = None) -> dict:
        """Build, retain, and emit a snapshot (the periodic API)."""
        controller = controller or self._controller
        snap = build_snapshot(controller, dispatches=dispatches)
        self.snapshots.append(snap)
        self.snapshots_taken += 1
        bus = self.bus
        if bus.wants("obs.snapshot"):
            bus.emit("obs.snapshot", **snap)
        return snap

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Flush the JSONL stream and (re)write the Chrome trace file."""
        if self._jsonl is not None:
            self._jsonl.flush()
        if self.chrome_trace_path is not None:
            write_chrome_trace(self.chrome_trace_path, self.events,
                               self.timers)

    def close(self) -> None:
        self.flush()
        if self._jsonl is not None:
            self._jsonl.close()
            self._jsonl = None
