"""Optimizer bookkeeping: per-trace records, declines and invalidation."""

from __future__ import annotations

from repro.core import TraceCacheConfig, run_traced
from repro.core.trace import Trace
from repro.opt import TraceOptimizer


class TestOptimizerBookkeeping:
    def test_unoptimizable_remembered(self, counting_program):
        optimizer = TraceOptimizer(compile_threshold=1)
        too_short = Trace((counting_program.blocks[0],), (), 1.0, serial=1)
        too_short.entries = 5
        compiled = optimizer.get(too_short)
        assert optimizer.backend_fn(compiled) is None
        assert compiled.declined
        assert optimizer.get(too_short) is compiled
        assert optimizer.backend_fn(compiled) is None
        # only counted once
        assert optimizer.codecache.stats.traces_uncompilable == 1

    def test_invalidate_clears_cache(self, counting_program):
        result = run_traced(counting_program,
                            TraceCacheConfig(start_state_delay=4))
        traces = list(result.cache.traces.values())
        assert traces
        optimizer = TraceOptimizer()
        compiled = optimizer.get(traces[0])
        assert optimizer.get(traces[0]) is compiled
        optimizer.invalidate(traces[0])
        assert id(traces[0]) not in optimizer.compiled
        recompiled = optimizer.get(traces[0])
        assert recompiled is not compiled
        assert not recompiled.declined and recompiled.fn is None
