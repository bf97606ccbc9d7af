"""Optimized-trace execution: full differential equivalence."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TraceCacheConfig, run_traced
from repro.jvm import StepLimitExceeded, ThreadedInterpreter
from repro.core import TraceController
from repro.lang import compile_source
from repro.workloads import WORKLOAD_NAMES, load_workload
from tests.conftest import int_main
from tests.test_integration import _branchy_program

AGGRESSIVE = dict(start_state_delay=4, decay_period=16)


def both_runs(program):
    ref = ThreadedInterpreter(program).run()
    plain = run_traced(program, TraceCacheConfig(**AGGRESSIVE))
    opt = run_traced(program, TraceCacheConfig(optimize_traces=True,
                                               **AGGRESSIVE))
    return ref, plain, opt


class TestEquivalence:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workloads(self, name):
        program = load_workload(name, "tiny")
        ref = ThreadedInterpreter(program).run()
        opt = run_traced(program, TraceCacheConfig(optimize_traces=True))
        assert opt.value == ref.result, name
        assert opt.output == ref.output, name
        assert opt.stats.instr_total == ref.instr_count, name

    def test_loop_with_exceptions(self):
        program = compile_source("""
            class Main {
                static int main() {
                    int total = 0;
                    for (int i = 0; i < 4000; i = i + 1) {
                        try {
                            if (i % 89 == 0) { throw new Exception(); }
                            total = total + 1;
                        } catch (Exception e) { total = total + 50; }
                    }
                    return total;
                }
            }
        """)
        ref, plain, opt = both_runs(program)
        assert opt.value == ref.result
        assert opt.stats.instr_total == ref.instr_count

    def test_polymorphic_guard_failures(self):
        # alternating receivers force virtual-call guard failures
        program = compile_source("""
            class A { int f() { return 1; } }
            class B extends A { int f() { return 2; } }
            class Main {
                static int main() {
                    A[] objs = new A[3];
                    objs[0] = new A();
                    objs[1] = new B();
                    objs[2] = new A();
                    int s = 0;
                    for (int i = 0; i < 5000; i = i + 1) {
                        s = (s + objs[i % 3].f()) & 65535;
                    }
                    return s;
                }
            }
        """)
        ref, plain, opt = both_runs(program)
        assert opt.value == ref.result
        assert opt.stats.instr_total == ref.instr_count
        # same coverage accounting as the unoptimized trace dispatch
        assert abs(opt.stats.coverage - plain.stats.coverage) < 0.15

    def test_step_limit_respected(self):
        program = compile_source(int_main(
            "int i = 0; while (true) { i = i + 1; } return i;"))
        controller = TraceController(
            program, TraceCacheConfig(optimize_traces=True, **AGGRESSIVE),
            max_instructions=30_000)
        with pytest.raises(StepLimitExceeded):
            controller.run()

    @given(st.tuples(st.integers(1, 50), st.integers(1, 50),
                     st.integers(1, 50)),
           st.integers(min_value=50, max_value=300),
           st.integers(min_value=2, max_value=7))
    @settings(max_examples=15, deadline=None)
    def test_generated_programs(self, seeds, loops, mod):
        program = compile_source(_branchy_program(seeds, loops, mod))
        ref = ThreadedInterpreter(program).run()
        opt = run_traced(program, TraceCacheConfig(
            optimize_traces=True, **AGGRESSIVE))
        assert opt.value == ref.result
        assert opt.stats.instr_total == ref.instr_count


class TestOptimizerRecords:
    def test_disabled_by_default(self, counting_program):
        result = run_traced(counting_program)
        assert result.stats.trace_dispatches > 0
        assert result.stats.codegen_traces_compiled == 0
        assert result.stats.codegen_blocks_compiled == 0

    def test_compilation_cached(self):
        from repro.opt import TraceOptimizer
        program = compile_source(int_main(
            "int s = 0;"
            "for (int i = 0; i < 2000; i = i + 1) { s = s + 1; }"
            "return s;"))
        result = run_traced(program, TraceCacheConfig(**AGGRESSIVE))
        optimizer = TraceOptimizer()
        traces = list(result.cache.traces.values())
        if not traces:
            pytest.skip("no traces built")
        first = optimizer.get(traces[0])
        second = optimizer.get(traces[0])
        assert first is second
        assert len(optimizer.compiled) == 1
