"""Unit tests for the template-compilation backend (codegen + cache)."""

from __future__ import annotations

import pytest

from repro.core import TraceCacheConfig, TraceController, run_traced
from repro.core.trace import Trace
from repro.jvm import ThreadedInterpreter
from repro.jvm.basicblock import KIND_FALL, KIND_GOTO
from repro.lang import compile_source
from repro.opt import CodeCache, CompiledTrace, TraceOptimizer, lower
from repro.workloads import load_workload
from tests.conftest import int_main

AGGRESSIVE = dict(start_state_delay=4, decay_period=16)


def run_py(source: str, compile_threshold: int = 1):
    controller = TraceController(
        compile_source(source),
        TraceCacheConfig(optimize_traces=True,
                         compile_threshold=compile_threshold,
                         **AGGRESSIVE))
    return controller, controller.run()


TWIN_LOOPS = """
    class Main {
        static int loopA(int n) {
            int s = 0;
            for (int i = 0; i < n; i = i + 1) { s = (s + i) & 4095; }
            return s;
        }
        static int loopB(int n) {
            int s = 0;
            for (int i = 0; i < n; i = i + 1) { s = (s + i) & 4095; }
            return s;
        }
        static int main() { return loopA(3000) + loopB(3000); }
    }
"""


class TestCodeCacheSharing:
    def test_identical_shapes_share_code_objects(self):
        controller, result = run_py(TWIN_LOOPS)
        stats = result.stats
        # Two structurally identical hot loops: at least one compile
        # must be served from the cache instead of compile()d again.
        assert stats.codegen_traces_compiled >= 2
        assert stats.codegen_cache_hits >= 1
        assert stats.codegen_cache_misses >= 1
        codecache = controller.optimizer.codecache
        assert stats.codegen_cache_misses == len(codecache)

    def test_lowering_is_deterministic(self):
        a, _ = run_py(TWIN_LOOPS)
        b, _ = run_py(TWIN_LOOPS)
        assert (set(a.optimizer.codecache._code)
                == set(b.optimizer.codecache._code))

    def test_shapes_are_shared_across_cache_instances(self):
        # The process-wide memo: a second VM compiling the same trace
        # shapes adopts the code objects the first VM paid for, so it
        # spends no time inside compile() — the warm-start property
        # fresh-VM benchmark reps and fleet workers rely on.
        a, ra = run_py(TWIN_LOOPS)
        b, rb = run_py(TWIN_LOOPS)
        sb = b.optimizer.codecache.stats
        assert sb.shared_hits == sb.cache_misses > 0
        assert sb.compile_seconds == 0.0
        # Per-instance accounting is unchanged by the memo.
        assert sb.cache_misses == len(b.optimizer.codecache)
        assert sb.source_bytes > 0
        assert ra.value == rb.value

    def test_distinct_constants_are_distinct_shapes(self):
        # Literal operands are part of the source text, so loops that
        # differ only in a mask constant must not share code objects.
        controller, _ = run_py("""
            class Main {
                static int loopA(int n) {
                    int s = 0;
                    for (int i = 0; i < n; i = i + 1) {
                        s = (s + i) & 4095;
                    }
                    return s;
                }
                static int loopB(int n) {
                    int s = 0;
                    for (int i = 0; i < n; i = i + 1) {
                        s = (s + i) & 2047;
                    }
                    return s;
                }
                static int main() { return loopA(3000) + loopB(3000); }
            }
        """)
        sources = list(controller.optimizer.codecache._code)
        assert any("2047" in src for src in sources)
        assert any("4095" in src for src in sources)


class TestSideExits:
    def test_guard_exits_counted_per_guard(self):
        controller, result = run_py("""
            class A { int f(int x) { return x + 1; } }
            class B extends A { int f(int x) { return x * 2; } }
            class Main {
                static int main() {
                    A[] objs = new A[3];
                    objs[0] = new A();
                    objs[1] = new B();
                    objs[2] = new A();
                    int s = 0;
                    for (int i = 0; i < 5000; i = i + 1) {
                        s = (s + objs[i % 3].f(i)) & 65535;
                    }
                    return s;
                }
            }
        """)
        assert result.stats.codegen_side_exits > 0
        exits = [c.side_exit_counts
                 for c in controller.optimizer.compiled.values()
                 if c.side_exit_counts]
        assert any(sum(counts) > 0 for counts in exits)
        # The stat is exactly the sum over installed functions.
        assert result.stats.codegen_side_exits == \
            sum(sum(counts) for counts in exits)


class TestLazyCompilation:
    def test_cold_traces_never_pay_codegen(self):
        _, result = run_py(int_main(
            "int s = 0;"
            "for (int i = 0; i < 3000; i = i + 1) { s = (s + i) & 255; }"
            "return s;"), compile_threshold=10 ** 9)
        assert result.stats.trace_dispatches > 0
        assert result.stats.codegen_traces_compiled == 0

    def test_hot_traces_compile(self):
        _, result = run_py(int_main(
            "int s = 0;"
            "for (int i = 0; i < 3000; i = i + 1) { s = (s + i) & 255; }"
            "return s;"), compile_threshold=2)
        assert result.stats.codegen_traces_compiled > 0
        assert result.stats.codegen_source_bytes > 0


class TestInvalidation:
    def test_sink_wired_to_optimizer(self):
        controller, _ = run_py(TWIN_LOOPS)
        assert controller.cache.invalidation_sink == \
            controller.optimizer.invalidate

    def test_invalidate_drops_generated_code(self):
        controller, _ = run_py(TWIN_LOOPS)
        optimizer = controller.optimizer
        trace, compiled = next(
            (t, optimizer.compiled[id(t)])
            for t in controller.cache.traces.values()
            if id(t) in optimizer.compiled
            and optimizer.compiled[id(t)].fn is not None)
        optimizer.invalidate(trace)
        assert id(trace) not in optimizer.compiled
        assert compiled.fn is None
        # A trace dispatched again starts over with a fresh record.
        assert optimizer.get(trace) is not compiled


def declined_traces() -> dict:
    """Traces codegen must decline, over the blocks of a real loop."""
    program = compile_source(int_main(
        "int s = 0;"
        "for (int i = 0; i < 10; i = i + 1) { s = s + i; }"
        "return s;"))
    block = next(b for b in program.blocks
                 if b.kind in (KIND_FALL, KIND_GOTO))
    successor = block.succ_fall if block.kind == KIND_FALL \
        else block.succ_target
    stranger = next(b for b in program.blocks if b is not successor)
    return {
        "one block": Trace((block,), (), 1.0, serial=1),
        # The block's only successor is not the trace's next block.
        "contradicted successor": Trace((block, stranger), (), 1.0,
                                        serial=2),
    }


class TestUncompilable:
    @pytest.mark.parametrize("case", ["one block", "contradicted successor"])
    def test_lower_declines(self, case):
        assert lower(declined_traces()[case]) is None

    def test_install_marks_and_counts(self):
        cache = CodeCache()
        compiled = CompiledTrace(declined_traces()["contradicted successor"])
        assert cache.install(compiled) is None
        assert compiled.declined
        assert cache.stats.traces_uncompilable == 1

    def test_backend_fn_falls_back_forever(self):
        optimizer = TraceOptimizer(compile_threshold=1)
        trace = declined_traces()["one block"]
        trace.entries = 10
        compiled = optimizer.get(trace)
        assert optimizer.get(trace) is compiled
        assert optimizer.backend_fn(compiled) is None
        assert optimizer.backend_fn(compiled) is None   # cached decline
        assert optimizer.codecache.stats.traces_uncompilable == 1


class TestDeclinedFallback:
    def test_declined_traces_run_on_block_path(self, monkeypatch):
        """With codegen declining every trace, dispatch falls back to
        block-by-block execution and stays exact."""
        import repro.opt.codecache as codecache

        monkeypatch.setattr(codecache, "lower", lambda trace: None)
        program = load_workload("compressx", "tiny")
        ref = ThreadedInterpreter(program).run()
        result = run_traced(program, TraceCacheConfig(
            optimize_traces=True, compile_threshold=1, **AGGRESSIVE))
        assert result.value == ref.result
        assert result.output == ref.output
        assert result.stats.instr_total == ref.instr_count
        assert result.stats.codegen_uncompilable > 0
        assert result.stats.codegen_traces_compiled == 0

    @pytest.mark.parametrize("mangle", [
        lambda blocks: blocks[:1],
        # The first block repeated: its static successor contradicts
        # the trace wherever it is not a one-block loop.
        lambda blocks: blocks[:1] + blocks,
    ], ids=["one block", "contradicted successor"])
    def test_malformed_traces_are_declined(self, monkeypatch, mangle):
        """Traces the constructor never builds — one block long, or
        against a block's own successor — are declined by codegen and
        still run exactly, block by block."""
        import repro.core.trace_cache as trace_cache

        def build(blocks, **fields):
            return Trace(mangle(blocks), **fields)

        monkeypatch.setattr(trace_cache, "Trace", build)
        program = load_workload("compressx", "tiny")
        ref = ThreadedInterpreter(program).run()
        result = run_traced(program, TraceCacheConfig(
            optimize_traces=True, compile_threshold=1, **AGGRESSIVE))
        assert result.value == ref.result
        assert result.output == ref.output
        assert result.stats.instr_total == ref.instr_count
        assert result.stats.trace_dispatches > 0
        assert result.stats.codegen_uncompilable > 0

    def test_declined_blocks_stay_interpreted(self, monkeypatch):
        """A hot lone block codegen declines keeps running through
        ``execute_block``, and is not offered to codegen again."""
        import repro.opt.codecache as codecache

        declined = []
        monkeypatch.setattr(codecache, "lower_block",
                            lambda block: declined.append(block))
        program = load_workload("compressx", "tiny")
        ref = ThreadedInterpreter(program).run()
        controller = TraceController(program, TraceCacheConfig(
            optimize_traces=True, compile_threshold=1, **AGGRESSIVE))
        result = controller.run()
        assert result.value == ref.result
        assert result.stats.instr_total == ref.instr_count
        assert declined
        assert len(declined) == len(set(declined))
        assert result.stats.codegen_blocks_compiled == 0
        assert set(controller.optimizer.block_fns) == set(declined)


class TestWrapElision:
    def test_masked_addition_drops_wrap_int(self):
        controller, result = run_py(int_main(
            "int s = 0;"
            "for (int i = 0; i < 3000; i = i + 1) {"
            "  s = ((s & 255) + (i & 255)) & 1023;"
            "}"
            "return s;"))
        ref = ThreadedInterpreter(
            compile_source(int_main(
                "int s = 0;"
                "for (int i = 0; i < 3000; i = i + 1) {"
                "  s = ((s & 255) + (i & 255)) & 1023;"
                "}"
                "return s;"))).run()
        assert result.value == ref.result
        sources = list(controller.optimizer.codecache._code)
        # Interval analysis proves (x & 255) + (y & 255) <= 510 fits a
        # Java int, so the hot-loop source carries the raw addition.
        assert any("& 255) + (" in src
                   and "& 255)) + 2147483648" not in src
                   for src in sources)
