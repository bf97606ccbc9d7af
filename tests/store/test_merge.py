"""Cross-run profile merging: commutativity, normalization, conflicts."""

from __future__ import annotations

import pytest

from repro import VM
from repro.core import TraceCacheConfig
from repro.lang import compile_source
from repro.store import (ProfileError, ProfileStore, capture_profile,
                         merge_profiles)

SOURCE = """
class Main {
    static int work(int x, int bias) {
        if (((x + bias) & 3) == 0) { return x * 2; }
        return x + 1;
    }
    static int main() {
        int total = 0;
        for (int outer = 0; outer < 90; outer = outer + 1) {
            for (int i = 0; i < 25; i = i + 1) {
                total = (total + work(i, outer & 1)) & 1048575;
            }
        }
        return total;
    }
}
"""

CONFIG = TraceCacheConfig(start_state_delay=8, decay_period=32,
                          optimize_traces=True, compile_threshold=1)


def _profile(program, max_instructions):
    vm = VM(program, config=CONFIG, max_instructions=max_instructions)
    try:
        vm.run()
    except Exception:
        pass                      # budget-cut runs still hold a profile
    return capture_profile(vm.controller)


@pytest.fixture(scope="module")
def program():
    return compile_source(SOURCE)


@pytest.fixture(scope="module")
def profiles(program):
    # Different instruction budgets cut the runs at different points,
    # so the two stores hold genuinely different counters and traces.
    return (_profile(program, 30_000), _profile(program, 5_000_000))


class TestMerge:
    def test_commutative(self, profiles):
        a, b = profiles
        ab = merge_profiles([a, b])
        ba = merge_profiles([b, a])
        assert ab.to_dict() == ba.to_dict()

    def test_associative(self, profiles, program):
        a, b = profiles
        c = _profile(program, 100_000)
        left = merge_profiles([merge_profiles([a, b]), c])
        right = merge_profiles([a, merge_profiles([b, c])])
        assert left.to_dict() == right.to_dict()

    def test_runs_accumulate(self, profiles):
        a, b = profiles
        assert merge_profiles([a, b]).runs == a.runs + b.runs

    def test_identity_merge_keeps_fingerprints(self, profiles):
        a, _ = profiles
        merged = merge_profiles([a])
        assert merged.program == a.program
        assert merged.config == a.config
        assert merged.runs == a.runs

    def test_union_covers_both_inputs(self, profiles):
        a, b = profiles
        merged = merge_profiles([a, b])
        node_keys = {tuple(n["key"]) for n in merged.nodes}
        for source in (a, b):
            assert {tuple(n["key"]) for n in source.nodes} <= node_keys
        trace_keys = {tuple(t["blocks"]) for t in merged.traces}
        for source in (a, b):
            assert {tuple(t["blocks"])
                    for t in source.traces} <= trace_keys
        assert set(merged.shapes) == set(a.shapes) | set(b.shapes)

    def test_counters_fit_under_the_cap(self, profiles):
        a, b = profiles
        merged = merge_profiles([a, b])
        counter_bits = merged.config_fields["counter_bits"]
        cap = (1 << counter_bits) - 1
        for node in merged.nodes:
            for weight in node["edges"].values():
                assert 0 < weight <= cap

    def test_merged_store_validates_and_loads(self, profiles,
                                              program, tmp_path):
        merged = merge_profiles(list(profiles))
        path = merged.save(tmp_path / "merged.rprof")
        vm = VM(program, config=CONFIG, profile=str(path))
        result = vm.run()
        baseline = VM(program, config=CONFIG).run()
        assert result.value == baseline.value
        assert (result.machine.instr_count
                == baseline.machine.instr_count)

    def test_empty_input_rejected(self):
        with pytest.raises(ProfileError):
            merge_profiles([])

    def test_mismatched_programs_rejected(self, profiles):
        a, _ = profiles
        other = ProfileStore.from_dict(
            dict(a.to_dict(), program="0" * 16))
        with pytest.raises(ProfileError, match="program"):
            merge_profiles([a, other])

    def test_mismatched_configs_rejected(self, profiles):
        a, _ = profiles
        other = ProfileStore.from_dict(
            dict(a.to_dict(), config="0" * 16))
        with pytest.raises(ProfileError, match="config"):
            merge_profiles([a, other])
