"""Warm-start seeding: parity with cold runs, events, snapshots."""

from __future__ import annotations

import pytest

from repro import VM, Observability
from repro.check import InvariantChecker
from repro.core import TraceCacheConfig
from repro.lang import compile_source
from repro.store import ProfileError, capture_profile, seed_controller

SOURCE = """
class Main {
    static int work(int x) {
        if ((x & 3) == 0) { return x * 2; }
        return x + 1;
    }
    static int main() {
        int total = 0;
        for (int outer = 0; outer < 120; outer = outer + 1) {
            for (int i = 0; i < 30; i = i + 1) {
                total = (total + work(i)) & 1048575;
            }
        }
        return total;
    }
}
"""

CONFIG = TraceCacheConfig(start_state_delay=8, decay_period=32,
                          optimize_traces=True, compile_threshold=1)


@pytest.fixture(scope="module")
def program():
    return compile_source(SOURCE)


@pytest.fixture(scope="module")
def cold(program):
    vm = VM(program, config=CONFIG)
    vm.run()
    return vm


@pytest.fixture(scope="module")
def store(cold):
    return capture_profile(cold.controller)


class TestSeeding:
    def test_traces_exist_before_first_dispatch(self, program, store):
        vm = VM(program, config=CONFIG, profile=store)
        assert len(vm.cache) == len(store.traces)
        assert vm.controller.profile_info["warm_started"] is True

    def test_summaries_restored_verbatim(self, program, store, cold):
        vm = VM(program, config=CONFIG, profile=store)
        for node in cold.controller.profiler.bcg.nodes.values():
            restored = vm.controller.profiler.bcg.nodes[node.key]
            assert restored.summary == node.summary
            assert restored.exec_count == node.exec_count

    def test_observably_identical_to_cold(self, program, store, cold):
        vm = VM(program, config=CONFIG, profile=store)
        warm = vm.run()
        reference = VM(program, config=CONFIG).run()
        assert warm.value == reference.value
        assert warm.output == reference.output
        assert (warm.machine.instr_count
                == reference.machine.instr_count)

    def test_warm_run_skips_the_profiling_ramp(self, program, store):
        vm = VM(program, config=CONFIG, profile=store)
        result = vm.run()
        # The restored cache serves from the first loop iterations, so
        # construction work approaches zero instead of re-learning.
        assert result.stats.traces_constructed == 0

    def test_shared_shapes_adopted(self, program, store):
        vm = VM(program, config=CONFIG, profile=store)
        vm.run()
        snap = vm.snapshot()
        assert snap["codegen"]["shared_hits"] > 0

    def test_invariants_hold_across_seeding(self, program, store):
        obs = Observability()
        vm = VM(program, config=CONFIG, obs=obs)
        checker = InvariantChecker(vm.controller).attach(obs.bus)
        vm.load_profile(store)
        vm.run()
        checker.raise_if_violated()


class TestEventsAndSnapshot:
    def test_profile_loaded_event(self, program, store):
        obs = Observability()
        vm = VM(program, config=CONFIG, obs=obs)
        vm.load_profile(store)
        kinds = [event.kind for event in obs.events]
        assert "profile.loaded" in kinds
        restored = [e for e in obs.events
                    if e.kind == "cache.trace_restored"]
        assert len(restored) == len(store.traces)

    def test_profile_saved_event(self, program, tmp_path):
        obs = Observability()
        vm = VM(program, config=CONFIG, obs=obs)
        vm.run()
        vm.save_profile(tmp_path / "out.rprof")
        saved = [e for e in obs.events if e.kind == "profile.saved"]
        assert len(saved) == 1
        assert saved[0].data["nodes"] > 0

    def test_snapshot_profile_section(self, program, store):
        # Empty the process-wide code memo so every stored shape is
        # genuinely pre-compiled here (earlier cold runs fill it).
        from repro.opt.codecache import CodeCache
        saved_memo = CodeCache._shared_code
        CodeCache._shared_code = {}
        try:
            vm = VM(program, config=CONFIG, profile=store)
        finally:
            CodeCache._shared_code = saved_memo
        section = vm.snapshot()["profile"]
        assert section["warm_started"] is True
        assert section["loaded_traces"] == len(store.traces)
        assert section["loaded_nodes"] == len(store.nodes)
        assert section["shapes_precompiled"] == len(store.shapes)

    def test_save_counts_in_snapshot(self, program, tmp_path):
        vm = VM(program, config=CONFIG)
        vm.run()
        vm.save_profile(tmp_path / "a.rprof")
        vm.save_profile(tmp_path / "b.rprof")
        section = vm.snapshot()["profile"]
        assert section["warm_started"] is False
        assert section["saves"] == 2


class TestSeedingRejection:
    def test_corrupt_anchor_rejected(self, program, store):
        import json
        from repro.store import ProfileStore
        doc = json.loads(store.to_json())
        anchored = next(t for t in doc["traces"] if t["anchor"])
        anchored["anchor"] = [999, 998]
        bad = ProfileStore.from_dict(doc)
        vm = VM(program, config=CONFIG)
        with pytest.raises(ProfileError, match="anchor"):
            seed_controller(vm.controller, bad, "<test>")

    def test_unknown_state_rejected(self, program, store):
        import json
        from repro.store import ProfileStore
        doc = json.loads(store.to_json())
        doc["bcg"]["nodes"][0]["state"] = "IMAGINARY"
        bad = ProfileStore.from_dict(doc)
        vm = VM(program, config=CONFIG)
        with pytest.raises(ProfileError, match="state"):
            seed_controller(vm.controller, bad, "<test>")

    def test_bad_link_exit_rejected(self, program, store):
        import json
        from repro.store import ProfileStore
        doc = json.loads(store.to_json())
        if not doc["links"]:
            pytest.skip("run produced no links")
        doc["links"][0]["executed"] = 10_000
        bad = ProfileStore.from_dict(doc)
        vm = VM(program, config=CONFIG)
        with pytest.raises(ProfileError, match="link"):
            seed_controller(vm.controller, bad, "<test>")

    def test_unparsable_shape_rejected(self, program, store):
        import json
        from repro.store import ProfileStore
        doc = json.loads(store.to_json())
        doc["shapes"] = ["def broken(:"]
        bad = ProfileStore.from_dict(doc)
        vm = VM(program, config=CONFIG)
        with pytest.raises(ProfileError, match="shape"):
            seed_controller(vm.controller, bad, "<test>")
