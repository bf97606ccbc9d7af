"""Trace objects."""

from __future__ import annotations

from repro.core import Trace

from .test_bcg import FakeBlock


def make_trace(bids=(1, 2, 3), probability=0.98):
    blocks = tuple(FakeBlock(b) for b in bids)
    node_keys = tuple((0, b) for b in bids)
    return Trace(blocks, node_keys, probability, serial=1)


class TestTrace:
    def test_key_from_block_ids(self):
        trace = make_trace((5, 6, 7))
        assert trace.key == (5, 6, 7)
        assert len(trace) == 3

    def test_completion_rate_defaults_to_one(self):
        assert make_trace().completion_rate == 1.0

    def test_record_completion(self):
        trace = make_trace()
        trace.record_completion(30)
        trace.record_completion(30)
        assert trace.entries == 2
        assert trace.completions == 2
        assert trace.completed_blocks == 6
        assert trace.instr_completed == 60
        assert trace.completion_rate == 1.0

    def test_record_partial(self):
        trace = make_trace()
        trace.record_completion(30)
        trace.record_partial(1, 9)
        assert trace.entries == 2
        assert trace.completion_rate == 0.5
        assert trace.partial_blocks == 1
        assert trace.instr_partial == 9

    def test_describe_mentions_stats(self):
        trace = make_trace()
        trace.record_completion(10)
        text = trace.describe()
        assert "entries=1" in text
        assert "p=0.980" in text

