"""Exporters: JSONL event streams, Chrome traces, stable snapshots.

Three consumption styles for the same observability data:

- :class:`JsonlWriter` — one JSON object per line, schema pinned to
  ``{"seq", "ts", "kind", "data"}``; greppable, streamable, diffable.
- :func:`chrome_trace_dict` / :func:`write_chrome_trace` — the Chrome
  trace-event format (a ``{"traceEvents": [...]}`` JSON document that
  ``chrome://tracing`` and Perfetto load directly): phase timer spans
  become ``"X"`` duration events, bus events become ``"i"`` instants
  on one track per event category, so a run's trace-cache dynamics can
  be inspected visually on a timeline.
- :func:`build_snapshot` — a point-in-time dict with a stable schema
  (BCG size and state census, cache occupancy, codegen cache stats,
  phase timings, event accounting) suitable for periodic polling from
  a serving layer.  Schema changes must bump ``SNAPSHOT_SCHEMA``.
"""

from __future__ import annotations

import enum
import json

SNAPSHOT_SCHEMA = 5

# Microseconds; the trace-event format's native unit.
_US = 1e6


def _jsonable(value):
    """Coerce payload values to JSON-safe equivalents."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) \
            else value
        return [_jsonable(v) for v in items]
    return str(value)


def event_to_dict(event) -> dict:
    """The pinned JSONL record shape for one event."""
    return {
        "seq": event.seq,
        "ts": event.ts,
        "kind": event.kind,
        "data": _jsonable(event.data),
    }


class JsonlWriter:
    """Append events to a file as JSON lines (opened lazily)."""

    def __init__(self, path) -> None:
        self.path = path
        self.written = 0
        self._handle = None

    def write(self, event) -> None:
        if self._handle is None:
            self._handle = open(self.path, "w")
        json.dump(event_to_dict(event), self._handle,
                  separators=(",", ":"))
        self._handle.write("\n")
        self.written += 1

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ----------------------------------------------------------------------
def chrome_trace_dict(events, timers, *, pid: int = 1) -> dict:
    """Events + timer spans as a Chrome trace-event document.

    Track layout: tid 0 carries the phase spans (run / construct /
    codegen), then one instant-event track per event category, named
    via thread-metadata records so Perfetto shows readable lanes.
    """
    trace_events = [{
        "ph": "M", "name": "thread_name", "pid": pid, "tid": 0,
        "args": {"name": "phases"},
    }]
    for phase, started, duration in timers.spans:
        trace_events.append({
            "name": phase, "cat": "phase", "ph": "X", "pid": pid,
            "tid": 0, "ts": started * _US, "dur": duration * _US,
        })

    tids: dict[str, int] = {}
    for event in events:
        category = event.category
        tid = tids.get(category)
        if tid is None:
            tid = len(tids) + 1
            tids[category] = tid
            trace_events.append({
                "ph": "M", "name": "thread_name", "pid": pid,
                "tid": tid, "args": {"name": category},
            })
        trace_events.append({
            "name": event.kind, "cat": category, "ph": "i",
            "s": "t", "pid": pid, "tid": tid, "ts": event.ts * _US,
            "args": _jsonable(event.data),
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, events, timers) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace_dict(events, timers), handle)


# ----------------------------------------------------------------------
def build_snapshot(controller, *, dispatches: int | None = None) -> dict:
    """Point-in-time state of a controller, schema-stable.

    Works with or without an attached :class:`~repro.obs.Observability`
    (event/timer sections zero out), so ``VM.snapshot()`` is always
    available.  Every key below is part of the public schema; tests
    pin the exact key sets.
    """
    profiler = controller.profiler
    cache = controller.cache
    bcg = profiler.bcg
    pstats = profiler.stats
    cstats = cache.stats

    census: dict[str, int] = {}
    anchored = 0
    for node in bcg.nodes.values():
        name = node.summary[0].name
        census[name] = census.get(name, 0) + 1
        if node.trace is not None:
            anchored += 1

    optimizer = getattr(controller, "optimizer", None)
    codecache = getattr(optimizer, "codecache", None)
    if codecache is not None:
        cg = codecache.stats
        codegen = {
            "enabled": True,
            "traces_compiled": cg.traces_compiled,
            "blocks_compiled": cg.blocks_compiled,
            "uncompilable": cg.traces_uncompilable,
            "cache_hits": cg.cache_hits,
            "cache_misses": cg.cache_misses,
            "shared_hits": cg.shared_hits,
            "source_bytes": cg.source_bytes,
            "compile_seconds": cg.compile_seconds,
            "side_exits": codecache.side_exits_total(),
        }
    else:
        codegen = {
            "enabled": False, "traces_compiled": 0, "blocks_compiled": 0,
            "uncompilable": 0,
            "cache_hits": 0, "cache_misses": 0, "shared_hits": 0,
            "source_bytes": 0, "compile_seconds": 0.0, "side_exits": 0,
        }

    linker = getattr(controller, "_linker", None)
    if linker is not None:
        lstats = linker.stats
        linking = {
            "enabled": True,
            "links": len(linker.links),
            "edges_tracked": len(linker.edges),
            "installed": lstats.links_installed,
            "severed": lstats.links_severed,
            "fanout_rejections": lstats.fanout_rejections,
            "superblocks_grown": cstats.superblocks_grown,
        }
    else:
        linking = {
            "enabled": False, "links": 0, "edges_tracked": 0,
            "installed": 0, "severed": 0, "fanout_rejections": 0,
            "superblocks_grown": 0,
        }

    obs = getattr(controller, "obs", None)
    if obs is not None:
        bus = obs.bus
        recorder = obs.recorder
        events = {
            "emitted": bus.emitted,
            "suppressed": bus.suppressed,
            "recorded": len(recorder.events) if recorder else 0,
            "dropped": recorder.dropped if recorder else 0,
        }
        timers = obs.timers.snapshot()
    else:
        events = {"emitted": 0, "suppressed": 0, "recorded": 0,
                  "dropped": 0}
        timers = {"phases": {}, "dispatch_seconds": 0.0,
                  "spans_recorded": 0, "spans_dropped": 0}

    # Persistent-profile activity (repro.store).  The controller keeps
    # a running info dict; a cold, never-saved VM reports the zeros.
    pinfo = getattr(controller, "profile_info", None) or {}
    profile = {
        "warm_started": bool(pinfo.get("warm_started", False)),
        "loaded_nodes": pinfo.get("loaded_nodes", 0),
        "loaded_traces": pinfo.get("loaded_traces", 0),
        "loaded_links": pinfo.get("loaded_links", 0),
        "shapes_precompiled": pinfo.get("shapes_precompiled", 0),
        "saves": pinfo.get("saves", 0),
    }

    return {
        "schema": SNAPSHOT_SCHEMA,
        "dispatches": pstats.advances if dispatches is None
        else dispatches,
        "bcg": {
            "nodes": len(bcg),
            "edges": bcg.edge_count,
            "decays": bcg.decay_count,
            "state_census": census,
        },
        "cache": {
            "traces": len(cache),
            "anchored": anchored,
            "constructed": cstats.traces_constructed,
            "linked": cstats.traces_linked,
            "invalidated": cstats.traces_invalidated,
            "anchors_replaced": cstats.anchors_replaced,
        },
        "profiler": {
            "advances": pstats.advances,
            "signals": pstats.signals,
            "resignals": pstats.resignals,
            "rechecks": pstats.state_rechecks,
            "decays": pstats.decays,
        },
        "codegen": codegen,
        "linking": linking,
        "profile": profile,
        "events": events,
        "timers": timers,
    }
