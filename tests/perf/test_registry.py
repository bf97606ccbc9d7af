"""Registry resolution: tiers, profiles, case selection."""

from __future__ import annotations

import pytest

from repro.perf import (all_cases, canonical_tier, case_by_id, groups,
                        profile_config, select, set_profile_overrides,
                        workload_size)
from repro.perf.registry import (CONFIG_PROFILES, DEFAULT_TOLERANCES,
                                 SIZE_TIERS, Metric, size_from_env)


class TestTiers:
    @pytest.mark.parametrize("tier", SIZE_TIERS)
    def test_canonical_identity(self, tier):
        assert canonical_tier(tier) == tier

    def test_paper_alias_maps_to_full(self):
        assert canonical_tier("paper") == "full"

    def test_unknown_tier_raises(self):
        with pytest.raises(KeyError):
            canonical_tier("huge")

    def test_workload_size_mapping(self):
        assert workload_size("tiny") == "tiny"
        assert workload_size("small") == "small"
        # The perf tier "full" is the workload registry's "paper".
        assert workload_size("full") == "paper"
        assert workload_size("paper") == "paper"

    def test_size_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SIZE", raising=False)
        assert size_from_env() == "small"
        monkeypatch.setenv("REPRO_BENCH_SIZE", "tiny")
        assert size_from_env() == "tiny"
        monkeypatch.setenv("REPRO_BENCH_SIZE", "paper")
        assert size_from_env() == "full"


class TestProfiles:
    def test_known_profiles(self):
        assert set(CONFIG_PROFILES) == {"plain", "py", "py-nolink"}

    @pytest.mark.parametrize("profile", sorted(CONFIG_PROFILES))
    def test_profile_config_builds(self, profile):
        config = profile_config(profile)
        if profile == "plain":
            assert not config.optimize_traces
        else:
            assert config.optimize_traces

    def test_nolink_profile_ablates_linking(self):
        assert profile_config("py").trace_linking
        assert not profile_config("py-nolink").trace_linking

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError):
            profile_config("jit")

    def test_profile_overrides_win_and_clear(self):
        set_profile_overrides(trace_linking=False, superblock_iters=2)
        try:
            config = profile_config("py")
            assert not config.trace_linking
            assert config.superblock_iters == 2
        finally:
            set_profile_overrides()
        assert profile_config("py").trace_linking

    def test_none_overrides_pass_through(self):
        set_profile_overrides(trace_linking=None)
        try:
            assert profile_config("py").trace_linking
        finally:
            set_profile_overrides()


class TestMetric:
    def test_default_tolerance_comes_from_kind(self):
        assert Metric("t").effective_tolerance \
            == DEFAULT_TOLERANCES["time"]
        assert Metric("c", kind="count").effective_tolerance \
            == DEFAULT_TOLERANCES["count"]

    def test_explicit_tolerance_wins(self):
        assert Metric("t", tolerance=0.5).effective_tolerance == 0.5

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            Metric("t", direction="sideways")

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            Metric("t", kind="vibes")


class TestSelect:
    def test_all_cases_unique_ids(self):
        ids = [case.id for case in all_cases()]
        assert len(ids) == len(set(ids))
        # 6 dispatch + 3 obs + 6 linking + 6 warmstart + 6 table1
        # + 3 table7
        assert len(ids) >= 24

    def test_groups_cover_matrix(self):
        assert set(groups()) == {"dispatch", "obs", "linking",
                                 "warmstart", "table1", "table7"}

    def test_warmstart_group_pairs_cold_and_warm(self):
        cases = select(["warmstart"])
        variants = {(c.workload, c.variant) for c in cases}
        workloads = {w for w, _ in variants}
        assert len(workloads) >= 2
        for workload in workloads:
            assert (workload, "cold") in variants
            assert (workload, "warm") in variants

    def test_linking_group_pairs_linked_and_control(self):
        cases = select(["linking"])
        variants = {(c.workload, c.variant): c.profile for c in cases}
        workloads = {w for w, _ in variants}
        for workload in workloads:
            assert variants[(workload, "linked")] == "py"
            assert variants[(workload, "nolink")] == "py-nolink"

    def test_group_name_selects_whole_group(self):
        cases = select(["dispatch"])
        assert cases and all(c.group == "dispatch" for c in cases)
        assert {c.profile for c in cases} == {"py"}

    def test_glob_selects_by_id(self):
        cases = select(["dispatch.compressx.*"])
        assert {c.id for c in cases} == {"dispatch.compressx.py"}

    def test_select_deduplicates_overlap(self):
        cases = select(["dispatch", "dispatch.compressx.py"])
        ids = [c.id for c in cases]
        assert len(ids) == len(set(ids))

    def test_empty_selection_is_everything(self):
        assert select() == all_cases()

    def test_unknown_pattern_raises(self):
        with pytest.raises(KeyError, match="matches no benchmark"):
            select(["dispatch.nonexistent.*"])

    def test_case_by_id_roundtrip(self):
        case = case_by_id("dispatch.compressx.py")
        assert case.workload == "compressx"
        assert case.profile == "py"
        with pytest.raises(KeyError):
            case_by_id("nope.nope.nope")

    def test_every_case_has_a_tracked_metric(self):
        for case in all_cases():
            assert any(m.tracked for m in case.metrics), case.id
