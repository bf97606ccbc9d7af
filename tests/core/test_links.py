"""Trace-to-trace linking: hotness, fanout, severance, superblocks."""

from __future__ import annotations

from repro.core import Trace, TraceCacheConfig, run_traced
from repro.core.links import TraceLinker
from repro.lang import compile_source

from .test_bcg import FakeBlock


def make_trace(bids, serial, iterations=1):
    blocks = tuple(FakeBlock(b) for b in bids)
    node_keys = tuple((0, b) for b in bids)
    return Trace(blocks, node_keys, 0.95, serial=serial,
                 iterations=iterations)


class FakeCache:
    """Stands in for TraceCache; scripted grow_superblock result."""

    def __init__(self, grown=None):
        self.grown = grown
        self.requests = []

    def grow_superblock(self, base):
        self.requests.append(base)
        return self.grown


def make_linker(grown=None, **config_kw):
    config_kw.setdefault("link_threshold", 3)
    config = TraceCacheConfig(**config_kw)
    cache = FakeCache(grown)
    return TraceLinker(config, cache), cache


class TestLinkInstallation:
    def test_cold_edge_is_counted_not_linked(self):
        linker, _ = make_linker()
        a, b = make_trace((1, 2), 1), make_trace((3, 4), 2)
        linker.record(a, 2, b)
        assert len(linker) == 0
        assert linker.edges == {(1, 2, 3): 1}
        assert linker.stats.edges_recorded == 1

    def test_hot_edge_installs_link(self):
        linker, _ = make_linker()
        a, b = make_trace((1, 2), 1), make_trace((3, 4), 2)
        for _ in range(3):
            linker.record(a, 2, b)
        assert linker.links == {(1, 2, 3): b}
        assert linker.stats.links_installed == 1
        # Re-observation of a linked edge is a no-op.
        linker.record(a, 2, b)
        assert linker.stats.links_installed == 1
        assert linker.invariant_errors() == []

    def test_side_exit_edges_key_on_executed_count(self):
        linker, _ = make_linker()
        a, b = make_trace((1, 2, 5), 1), make_trace((3, 4), 2)
        for _ in range(3):
            linker.record(a, 1, b)      # guard exit after one block
            linker.record(a, 3, b)      # completion exit
        assert set(linker.links) == {(1, 1, 3), (1, 3, 3)}

    def test_fanout_cap_rejects_and_stops_counting(self):
        linker, _ = make_linker(link_max_fanout=1)
        a = make_trace((1, 2), 1)
        b, c = make_trace((3,), 2), make_trace((4,), 3)
        for _ in range(3):
            linker.record(a, 2, b)
        for _ in range(3):
            linker.record(a, 2, c)
        assert linker.links == {(1, 2, 3): b}
        assert linker.stats.fanout_rejections == 1
        assert (1, 2, 4) not in linker.edges
        assert linker.invariant_errors() == []


class TestSever:
    def test_sever_drops_links_on_both_sides(self):
        linker, _ = make_linker()
        a, b = make_trace((1, 2), 1), make_trace((3, 4), 2)
        for _ in range(3):
            linker.record(a, 2, b)      # a -> b
            linker.record(b, 2, a)      # b -> a
        assert len(linker) == 2
        linker.sever(b)
        assert len(linker) == 0
        assert linker.stats.links_severed == 2

    def test_sever_frees_fanout_budget(self):
        linker, _ = make_linker(link_max_fanout=1)
        a = make_trace((1, 2), 1)
        b, c = make_trace((3,), 2), make_trace((4,), 3)
        for _ in range(3):
            linker.record(a, 2, b)
        linker.sever(b)
        for _ in range(3):
            linker.record(a, 2, c)
        assert linker.links == {(1, 2, 4): c}
        assert linker.invariant_errors() == []

    def test_sever_unknown_trace_is_noop(self):
        linker, _ = make_linker()
        linker.sever(make_trace((9,), 99))
        assert linker.stats.links_severed == 0


class TestSuperblockRequests:
    def test_hot_self_completion_asks_the_cache(self):
        sb = make_trace((1, 2, 1, 2), 7, iterations=2)
        linker, cache = make_linker(grown=sb, superblock_iters=2)
        a = make_trace((1, 2), 1)
        for _ in range(3):
            linker.record(a, 2, a)
        assert cache.requests == [a]
        assert linker.stats.superblocks_requested == 1
        # Growth succeeded: the anchor moved, no self-link installed.
        assert len(linker) == 0

    def test_declined_growth_falls_back_to_self_link(self):
        linker, cache = make_linker(grown=None, superblock_iters=4)
        a = make_trace((1, 2), 1)
        for _ in range(3):
            linker.record(a, 2, a)
        assert cache.requests == [a]
        assert linker.links == {(1, 2, 1): a}

    def test_guard_exit_self_edge_is_not_a_superblock(self):
        # Only the *completion* re-entering the anchor is a loop back
        # edge; a guard exit back to the entry is an ordinary link.
        linker, cache = make_linker(superblock_iters=4)
        a = make_trace((1, 2), 1)
        for _ in range(3):
            linker.record(a, 1, a)
        assert cache.requests == []
        assert linker.links == {(1, 1, 1): a}

    def test_superblocks_never_regrow_recursively(self):
        sb = make_trace((1, 2, 1, 2), 7, iterations=2)
        linker, cache = make_linker(superblock_iters=2)
        for _ in range(3):
            linker.record(sb, 4, sb)
        assert cache.requests == []             # iterations > 1
        assert linker.links == {(7, 4, 1): sb}  # plain self-link


class TestDispatchMirror:
    """The per-trace link mirror the dispatch trampoline reads."""

    def test_install_fills_the_source_trace_mirror(self):
        linker, _ = make_linker()
        a, b = make_trace((1, 2), 1), make_trace((3, 4), 2)
        node = object()
        for _ in range(3):
            linker.record(a, 2, b, edge_node=node)
        entry = a.links[(2, 3)]
        assert entry[0] is b            # target trace
        assert entry[1] is node         # pinned link-edge BCG node
        assert entry[2] is None         # prev-pair node: lazy
        assert entry[3] is None         # optimizer record: lazy
        assert entry[4] == 2            # exit block id (last executed)
        assert b.links is None          # no links *out of* b

    def test_sever_source_clears_its_mirror(self):
        linker, _ = make_linker()
        a, b = make_trace((1, 2), 1), make_trace((3, 4), 2)
        for _ in range(3):
            linker.record(a, 2, b)
        linker.sever(a)
        assert a.links is None
        assert linker.invariant_errors() == []

    def test_sever_target_clears_the_source_mirror(self):
        linker, _ = make_linker()
        a, b = make_trace((1, 2), 1), make_trace((3, 4), 2)
        for _ in range(3):
            linker.record(a, 2, b)
        linker.sever(b)
        assert a.links == {}
        assert linker.invariant_errors() == []

    def test_mirror_drift_is_an_invariant_error(self):
        linker, _ = make_linker()
        a, b = make_trace((1, 2), 1), make_trace((3, 4), 2)
        for _ in range(3):
            linker.record(a, 2, b)
        a.links.clear()     # simulate a mirror losing an entry
        assert any("mirror" in e for e in linker.invariant_errors())


LOOP_SOURCE = """
class Main {
    static int main() {
        int total = 0;
        for (int outer = 0; outer < 150; outer = outer + 1) {
            for (int i = 0; i < 40; i = i + 1) {
                total = (total + i * 3) & 1048575;
            }
        }
        return total;
    }
}
"""


def linking_config(**overrides):
    base = dict(start_state_delay=8, optimize_traces=True,
                compile_threshold=1,
                link_threshold=2)
    base.update(overrides)
    return TraceCacheConfig(**base)


class TestLinkingEndToEnd:
    def test_linked_run_matches_unlinked_run(self):
        program = compile_source(LOOP_SOURCE)
        linked = run_traced(program, linking_config())
        plain = run_traced(program,
                           linking_config(trace_linking=False))
        assert linked.value == plain.value
        assert linked.output == plain.output
        assert linked.stats.instr_total == plain.stats.instr_total

    def test_hot_loop_links_and_transfers(self):
        result = run_traced(compile_source(LOOP_SOURCE),
                            linking_config())
        stats = result.stats
        assert stats.links_installed > 0
        assert stats.linked_transfers > 0
        assert stats.superblock_traces > 0
        # Every linked transfer is also counted as a trace dispatch,
        # and the first dispatch of a chain is never linked.
        assert stats.linked_transfers < stats.trace_dispatches

    def test_superblocks_cover_multiple_iterations(self):
        program = compile_source(LOOP_SOURCE)
        flat = run_traced(program,
                          linking_config(superblock_iters=1))
        unrolled = run_traced(program, linking_config())
        assert flat.stats.superblock_traces == 0
        assert unrolled.stats.superblock_traces > 0
        # k iterations per dispatch: strictly fewer total dispatches.
        assert unrolled.stats.trace_dispatches \
            < flat.stats.trace_dispatches
        assert unrolled.value == flat.value

    def test_ablated_run_keeps_counters_zero(self):
        result = run_traced(compile_source(LOOP_SOURCE),
                            linking_config(trace_linking=False))
        stats = result.stats
        assert stats.links_installed == 0
        assert stats.linked_transfers == 0
        assert stats.superblock_traces == 0
