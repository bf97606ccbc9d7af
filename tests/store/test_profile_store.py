"""ProfileStore round-trip, schema pinning, and rejection modes."""

from __future__ import annotations

import json

import pytest

from repro import VM
from repro.core import TraceCacheConfig
from repro.lang import compile_source
from repro.store import (PROFILE_SCHEMA, ProfileError, ProfileStore,
                         capture_profile, config_fingerprint,
                         program_fingerprint)

LOOPY = """
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

OTHER = """
class Main {
    static int main() {
        int s = 0;
        for (int i = 0; i < 500; i = i + 1) { s = s + i; }
        return s;
    }
}
"""

CONFIG = TraceCacheConfig(start_state_delay=8, decay_period=32,
                          optimize_traces=True, compile_threshold=1)


@pytest.fixture(scope="module")
def program():
    return compile_source(LOOPY)


@pytest.fixture(scope="module")
def trained(program):
    vm = VM(program, config=CONFIG)
    vm.run()
    return vm


@pytest.fixture(scope="module")
def store(trained):
    return capture_profile(trained.controller)


class TestCapture:
    def test_captures_learned_state(self, store):
        assert store.schema == PROFILE_SCHEMA
        assert store.nodes
        assert store.traces
        assert store.shapes
        assert any(t["anchor"] is not None for t in store.traces)

    def test_fingerprints_match_producers(self, store, program):
        assert store.program == program_fingerprint(program)
        assert store.config == config_fingerprint(CONFIG)
        assert store.config_fields["start_state_delay"] == 8

    def test_links_reference_stored_traces(self, store):
        for record in store.links:
            assert 0 <= record["source"] < len(store.traces)
            assert 0 <= record["target"] < len(store.traces)

    def test_superblock_bases_ordered_first(self, store):
        iterations = [t.get("iterations", 1) for t in store.traces]
        first_super = next(
            (i for i, k in enumerate(iterations) if k > 1),
            len(iterations))
        assert all(k == 1 for k in iterations[:first_super])


class TestRoundTrip:
    def test_json_round_trip_is_identity(self, store):
        doc = json.loads(store.to_json())
        again = ProfileStore.from_dict(doc)
        assert again.to_dict() == store.to_dict()

    def test_file_round_trip(self, store, tmp_path):
        path = store.save(tmp_path / "run.rprof")
        again = ProfileStore.load(path)
        assert again.to_dict() == store.to_dict()

    def test_describe_mentions_counts(self, store):
        text = store.describe()
        assert f"{len(store.nodes)} BCG node(s)" in text
        assert f"{len(store.traces)} trace(s)" in text


def _doc(store) -> dict:
    """A deep, independent copy of the store's document (to_dict
    aliases the live record lists)."""
    return json.loads(store.to_json())


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ProfileError, match="no profile store"):
            ProfileStore.load(tmp_path / "absent.rprof")

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.rprof"
        path.write_text("{not json")
        with pytest.raises(ProfileError, match="not JSON"):
            ProfileStore.load(path)

    def test_future_schema_rejected(self, store, tmp_path):
        doc = _doc(store)
        doc["schema"] = PROFILE_SCHEMA + 1
        path = tmp_path / "future.rprof"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProfileError, match="schema"):
            ProfileStore.load(path)

    def test_wrong_kind_rejected(self, store):
        doc = _doc(store)
        doc["kind"] = "something-else"
        with pytest.raises(ProfileError, match="kind"):
            ProfileStore.from_dict(doc)

    def test_non_document_rejected(self):
        with pytest.raises(ProfileError):
            ProfileStore.from_dict([1, 2, 3])

    def test_missing_sections_rejected(self, store):
        doc = _doc(store)
        del doc["bcg"]
        with pytest.raises(ProfileError, match="malformed"):
            ProfileStore.from_dict(doc)

    def test_corrupt_node_record_rejected(self, store):
        doc = _doc(store)
        doc["bcg"]["nodes"] = [{"key": [1], "edges": {}}]
        with pytest.raises(ProfileError, match="node record"):
            ProfileStore.from_dict(doc)
        doc = _doc(store)
        doc["bcg"]["nodes"][0] = dict(doc["bcg"]["nodes"][0],
                                      edges="nope")
        with pytest.raises(ProfileError, match="node record"):
            ProfileStore.from_dict(doc)

    def test_corrupt_trace_record_rejected(self, store):
        doc = _doc(store)
        doc["traces"] = [{"blocks": [1, 2], "node_keys": [[0, 1]],
                          "p": 0.9}]
        with pytest.raises(ProfileError, match="trace record"):
            ProfileStore.from_dict(doc)

    def test_dangling_link_rejected(self, store):
        doc = _doc(store)
        doc["links"] = [{"source": 0, "executed": 1, "succ": 2,
                         "target": len(doc["traces"])}]
        with pytest.raises(ProfileError, match="link record"):
            ProfileStore.from_dict(doc)

    def test_non_text_shape_rejected(self, store):
        doc = _doc(store)
        doc["shapes"] = [42]
        with pytest.raises(ProfileError, match="shape"):
            ProfileStore.from_dict(doc)


class TestCompatibility:
    def test_other_program_rejected(self, store):
        other = compile_source(OTHER)
        with pytest.raises(ProfileError, match="program"):
            store.check_compatible(other, CONFIG)

    def test_other_config_rejected(self, store, program):
        import dataclasses
        other = dataclasses.replace(CONFIG, start_state_delay=16)
        with pytest.raises(ProfileError, match="config"):
            store.check_compatible(program, other)

    def test_executor_knobs_are_free(self, store, program):
        import dataclasses
        other = dataclasses.replace(CONFIG, compile_threshold=7,
                                    link_threshold=3)
        store.check_compatible(program, other)

    def test_vm_load_rejects_mismatch(self, store, tmp_path):
        path = store.save(tmp_path / "run.rprof")
        with pytest.raises(ProfileError, match="program"):
            VM(OTHER, config=CONFIG, profile=str(path))
