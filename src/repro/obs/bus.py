"""A typed, near-zero-cost publish/subscribe event bus.

Every observable happening in the VM is an :class:`Event` with a
*kind* drawn from the registered taxonomy :data:`KINDS` (format
``"category.name"``).  Instrumentation points follow one pattern::

    bus = self.bus
    if bus is not None:
        bus.emit("cache.trace_created", serial=..., blocks=[...])

so the fully-disabled cost is a single attribute load and ``is None``
test on a cold branch — and even with a live bus, :meth:`EventBus.emit`
returns *before constructing the Event* when no subscriber matches the
kind (the suppressed fast path).  Call sites with expensive payloads
should guard with :meth:`EventBus.wants` first.

Subscribers filter by explicit kinds, by whole categories, or receive
everything (wildcard).  Filters are resolved against the registry at
subscribe time, so the per-emit membership test is one set lookup.
"""

from __future__ import annotations

import time
from collections import deque

# ----------------------------------------------------------------------
# The event taxonomy.  Adding a kind here is an API change: exporters,
# snapshot schemas and the DESIGN.md event table key off this registry,
# and subscribing or emitting an unregistered kind raises.
KINDS: dict[str, str] = {
    # VM lifecycle (the controller's run loop).
    "vm.run_started": "a trace-dispatching run began",
    "vm.run_finished": "a trace-dispatching run completed",
    # Profiler (Section 4.1): BCG summary changes and maintenance.
    "profiler.state_change": "a node's (state, best successor) changed",
    "profiler.decay": "a node's out-edges were decayed",
    "profiler.counter_saturated": "edge counters were at the 16-bit cap "
                                  "when a decay sweep examined them",
    # Trace cache (Section 4.2): cache mutations.
    "cache.trace_created": "a new trace was constructed and installed",
    "cache.trace_linked": "a constructed trace deduped onto an existing "
                          "one (hash-table hit)",
    "cache.trace_invalidated": "a trace was unlinked from its anchor",
    "cache.trace_restored": "a trace was re-installed from a "
                            "persistent profile store (warm start)",
    # Trace-to-trace linking (core.links) and superblock growth.
    "trace.link": "a hot exit edge was linked straight to a successor "
                  "trace",
    "trace.unlink": "a trace's links were severed (invalidation or "
                    "anchor replacement)",
    "trace.superblock_grown": "a looping trace was regrown as a "
                              "k-iteration superblock",
    "trace.superblock_demoted": "a failing superblock's anchor was "
                                "handed back to its base trace",
    # Trace constructor: the walk/cut pipeline run per signal.
    "constructor.walk_started": "a maximum-likelihood walk began at an "
                                "entry point",
    "constructor.walk_cut": "a node sequence was cut into a trace chunk",
    "constructor.walk_aborted": "a cut chunk was discarded (too short)",
    # Codegen (the template compiler for hot traces and lone blocks).
    "codegen.compile": "a new trace or block shape was compiled to "
                       "Python",
    "codegen.cache_hit": "a trace or block reused an already-compiled "
                         "shape",
    "codegen.uncompilable": "codegen declined a trace (no template)",
    "codegen.side_exit": "a compiled trace guard-exited early",
    "codegen.invalidation_drop": "a compiled form was dropped because "
                                 "the trace cache unlinked its trace",
    "codegen.linked_transfer": "a sampled trace-to-trace transfer took "
                               "an installed link (1 in N emitted)",
    # Persistent profile store (repro.store) lifecycle.
    "profile.loaded": "a persistent profile seeded this VM before "
                      "dispatch (warm start)",
    "profile.saved": "this VM's learned state was captured to a "
                     "persistent profile store",
    "profile.merged": "profile stores were merged into one",
    # Observability itself.
    "obs.snapshot": "a periodic stable-schema snapshot was taken",
}

CATEGORIES: tuple[str, ...] = tuple(sorted(
    {kind.partition(".")[0] for kind in KINDS}))


class Event:
    """One emitted event: a registered kind plus a flat payload dict."""

    __slots__ = ("kind", "seq", "ts", "data")

    def __init__(self, kind: str, seq: int, ts: float,
                 data: dict) -> None:
        self.kind = kind
        self.seq = seq          # bus-wide emission counter (1-based)
        self.ts = ts            # monotonic seconds (bus clock)
        self.data = data

    @property
    def category(self) -> str:
        return self.kind.partition(".")[0]

    def __repr__(self) -> str:
        return f"<event #{self.seq} {self.kind} {self.data!r}>"


def _resolve_filter(kinds, categories) -> frozenset | None:
    """Expand a kinds/categories filter to a kind set (None = all)."""
    if kinds is None and categories is None:
        return None
    selected: set[str] = set()
    for kind in kinds or ():
        if kind not in KINDS:
            raise ValueError(f"unknown event kind: {kind!r}")
        selected.add(kind)
    for category in categories or ():
        if category not in CATEGORIES:
            raise ValueError(f"unknown event category: {category!r}")
        selected.update(k for k in KINDS
                        if k.partition(".")[0] == category)
    return frozenset(selected)


class EventBus:
    """Publish/subscribe hub with a suppressed (no-subscriber) fast path."""

    __slots__ = ("_subs", "_wanted", "_wildcards", "seq", "emitted",
                 "suppressed", "clock")

    def __init__(self, clock=time.perf_counter) -> None:
        self._subs: list[tuple] = []     # (callback, kindset | None)
        self._wanted: set[str] = set()   # kinds with >= 1 subscriber
        self._wildcards = 0              # subscribers taking everything
        self.seq = 0
        self.emitted = 0                 # events constructed + delivered
        self.suppressed = 0              # emits returned on the fast path
        self.clock = clock

    # ------------------------------------------------------------------
    def subscribe(self, callback, *, kinds=None, categories=None):
        """Register `callback(event)`; returns `callback` for symmetry.

        With neither filter the callback receives every event.  Unknown
        kinds or categories raise ``ValueError`` — subscriptions are
        validated against :data:`KINDS` so taxonomy typos fail loudly.
        """
        kindset = _resolve_filter(kinds, categories)
        self._subs.append((callback, kindset))
        if kindset is None:
            self._wildcards += 1
        else:
            self._wanted.update(kindset)
        return callback

    def unsubscribe(self, callback) -> bool:
        """Remove every subscription of `callback`; True if any found.

        Matches by equality, not identity, so bound methods (a fresh
        object per attribute access) unsubscribe naturally.
        """
        kept = [(cb, ks) for cb, ks in self._subs if cb != callback]
        if len(kept) == len(self._subs):
            return False
        self._subs = kept
        self._wildcards = sum(1 for _, ks in kept if ks is None)
        self._wanted = set()
        for _, kindset in kept:
            if kindset is not None:
                self._wanted.update(kindset)
        return True

    # ------------------------------------------------------------------
    def wants(self, kind: str) -> bool:
        """Would an emit of `kind` reach any subscriber right now?

        Call sites use this to skip building expensive payloads; emit
        rechecks it anyway, so the guard is an optimization only.
        """
        return self._wildcards > 0 or kind in self._wanted

    @property
    def active(self) -> bool:
        return bool(self._subs)

    def emit(self, kind: str, **data):
        """Emit `kind` with payload `data`; returns the Event or None.

        The suppressed path — no matching subscriber — returns before
        the Event object is constructed, so a wired-but-unwatched bus
        adds no allocations beyond the kwargs dict at the call site.
        """
        if self._wildcards == 0 and kind not in self._wanted:
            self.suppressed += 1
            return None
        if kind not in KINDS:
            raise ValueError(f"unknown event kind: {kind!r}")
        self.seq += 1
        event = Event(kind, self.seq, self.clock(), data)
        self.emitted += 1
        for callback, kindset in self._subs:
            if kindset is None or kind in kindset:
                callback(event)
        return event


class EventRecorder:
    """A ring-buffer subscriber keeping the most recent N events."""

    __slots__ = ("events", "capacity", "dropped")

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.events: deque = deque(maxlen=capacity)
        self.dropped = 0

    def record(self, event: Event) -> None:
        if len(self.events) == self.capacity:
            self.dropped += 1           # deque evicts the oldest
        self.events.append(event)

    @property
    def total(self) -> int:
        return len(self.events) + self.dropped
