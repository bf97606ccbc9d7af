"""Exporter schema pins: JSONL lines, Chrome traces, snapshots.

These schemas are consumed outside the repo (Perfetto, polling
services, log pipelines); changes must be deliberate, so the key sets
are asserted exactly.
"""

from __future__ import annotations

import json

import pytest

from repro import VM, Observability
from repro.lang import compile_source
from repro.obs.bus import KINDS
from repro.obs.export import SNAPSHOT_SCHEMA

SOURCE = """
class Main {
    static int work(int x) {
        if ((x & 7) == 0) { return x * 3; }
        return x + 1;
    }
    static int main() {
        int total = 0;
        for (int outer = 0; outer < 150; outer = outer + 1) {
            for (int i = 0; i < 40; i = i + 1) {
                total = (total + work(i)) & 1048575;
            }
        }
        return total;
    }
}
"""


@pytest.fixture(scope="module")
def program():
    return compile_source(SOURCE)


@pytest.fixture()
def observed_run(tmp_path, program):
    events_path = tmp_path / "events.jsonl"
    chrome_path = tmp_path / "trace.json"
    obs = Observability(events_path=str(events_path),
                        chrome_trace_path=str(chrome_path),
                        snapshot_every=2_000)
    vm = VM(program, obs=obs, start_state_delay=16,
            optimize_traces=True)
    vm.run()
    vm.close()
    return vm, obs, events_path, chrome_path


class TestJsonlSchema:
    def test_line_schema_pinned(self, observed_run):
        _vm, _obs, events_path, _chrome = observed_run
        lines = events_path.read_text().splitlines()
        assert lines
        seqs = []
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"seq", "ts", "kind", "data"}
            assert record["kind"] in KINDS
            assert isinstance(record["data"], dict)
            seqs.append(record["seq"])
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_stream_covers_the_taxonomy_categories(self, observed_run):
        _vm, _obs, events_path, _chrome = observed_run
        kinds = {json.loads(line)["kind"]
                 for line in events_path.read_text().splitlines()}
        categories = {k.partition(".")[0] for k in kinds}
        assert {"vm", "profiler", "cache", "constructor", "codegen",
                "obs"} <= categories

    def test_snapshot_events_carry_snapshot_schema(self, observed_run):
        vm, _obs, events_path, _chrome = observed_run
        snaps = [json.loads(line)["data"]
                 for line in events_path.read_text().splitlines()
                 if json.loads(line)["kind"] == "obs.snapshot"]
        assert snaps
        assert set(snaps[0]) == set(vm.snapshot())


class TestChromeTraceSchema:
    def test_perfetto_loadable_shape(self, observed_run):
        _vm, _obs, _events, chrome_path = observed_run
        doc = json.loads(chrome_path.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        assert events
        phases = {e["ph"] for e in events}
        assert phases <= {"M", "X", "i"}
        assert "X" in phases        # timer spans
        assert "i" in phases        # instant events
        for entry in events:
            assert {"ph", "name", "pid", "tid"} <= set(entry)
            if entry["ph"] in ("X", "i"):
                assert entry["ts"] >= 0
            if entry["ph"] == "X":
                assert entry["dur"] >= 0

    def test_category_tracks_are_named(self, observed_run):
        _vm, _obs, _events, chrome_path = observed_run
        doc = json.loads(chrome_path.read_text())
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M"}
        assert "phases" in names
        assert "cache" in names

    def test_json_serializable_end_to_end(self, observed_run):
        _vm, _obs, _events, chrome_path = observed_run
        # A round-trip proves no repr-leaks of VM objects.
        doc = json.loads(chrome_path.read_text())
        json.dumps(doc)


class TestSnapshotSchema:
    TOP = {"schema", "dispatches", "bcg", "cache", "profiler",
           "codegen", "linking", "profile", "events", "timers"}

    def test_top_level_keys_pinned(self, observed_run):
        vm, _obs, _events, _chrome = observed_run
        snap = vm.snapshot()
        assert set(snap) == self.TOP
        assert snap["schema"] == SNAPSHOT_SCHEMA == 5

    def test_section_keys_pinned(self, observed_run):
        vm, _obs, _events, _chrome = observed_run
        snap = vm.snapshot()
        assert set(snap["bcg"]) == {"nodes", "edges", "decays",
                                    "state_census"}
        assert set(snap["cache"]) == {"traces", "anchored",
                                      "constructed", "linked",
                                      "invalidated", "anchors_replaced"}
        assert set(snap["profiler"]) == {"advances", "signals",
                                         "resignals", "rechecks",
                                         "decays"}
        assert set(snap["codegen"]) == {"enabled", "traces_compiled",
                                        "blocks_compiled",
                                        "uncompilable", "cache_hits",
                                        "cache_misses", "shared_hits",
                                        "source_bytes",
                                        "compile_seconds", "side_exits"}
        assert set(snap["linking"]) == {"enabled", "links",
                                        "edges_tracked", "installed",
                                        "severed", "fanout_rejections",
                                        "superblocks_grown"}
        assert set(snap["events"]) == {"emitted", "suppressed",
                                       "recorded", "dropped"}
        assert set(snap["profile"]) == {"warm_started", "loaded_nodes",
                                        "loaded_traces", "loaded_links",
                                        "shapes_precompiled", "saves"}
        assert snap["profile"]["warm_started"] is False

    def test_snapshot_is_json_serializable(self, observed_run):
        vm, _obs, _events, _chrome = observed_run
        json.dumps(vm.snapshot())

    def test_snapshot_without_obs(self, program):
        vm = VM(program)
        vm.run()
        snap = vm.snapshot()
        assert set(snap) == self.TOP
        assert snap["events"] == {"emitted": 0, "suppressed": 0,
                                  "recorded": 0, "dropped": 0}
        assert snap["cache"]["traces"] == len(vm.cache)

    def test_periodic_snapshots_monotonic(self, observed_run):
        _vm, obs, _events, _chrome = observed_run
        assert obs.snapshots_taken >= 2
        serials = [s["dispatches"] for s in obs.snapshots]
        assert serials == sorted(serials)

    def test_census_sums_to_node_count(self, observed_run):
        vm, _obs, _events, _chrome = observed_run
        snap = vm.snapshot()
        assert sum(snap["bcg"]["state_census"].values()) \
            == snap["bcg"]["nodes"]
