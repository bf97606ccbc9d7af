"""Trace-dispatching controller: equivalence, stats, trace execution."""

from __future__ import annotations

import pytest

from repro.core import TraceCacheConfig, TraceController, run_traced
from repro.jvm import StepLimitExceeded, ThreadedInterpreter
from repro.lang import compile_source
from repro.obs import EventRecorder, Observability
from tests.conftest import int_main


def reference(program):
    interp = ThreadedInterpreter(program)
    machine = interp.run()
    return machine, interp.dispatch_count


class TestEquivalence:
    def test_result_matches_plain_interpreter(self, counting_program):
        machine, _ = reference(counting_program)
        result = run_traced(counting_program)
        assert result.value == machine.result
        assert result.stats.instr_total == machine.instr_count

    def test_output_matches(self):
        program = compile_source("""
            class Main {
                static void main() {
                    for (int i = 0; i < 200; i = i + 1) {
                        if (i % 50 == 0) { Sys.print(i); }
                    }
                }
            }
        """)
        machine, _ = reference(program)
        result = run_traced(program)
        assert result.output == machine.output

    def test_exceptions_inside_traces(self):
        # a hot loop that throws every K iterations: traces must exit
        # cleanly through the handler path
        program = compile_source("""
            class Main {
                static int main() {
                    int total = 0;
                    for (int i = 0; i < 3000; i = i + 1) {
                        try {
                            if (i % 97 == 0) { throw new Exception(); }
                            total = total + 1;
                        } catch (Exception e) { total = total + 100; }
                    }
                    return total;
                }
            }
        """)
        machine, _ = reference(program)
        result = run_traced(program)
        assert result.value == machine.result

    def test_workloads_equivalent(self):
        from repro.workloads import WORKLOAD_NAMES, load_workload
        for name in WORKLOAD_NAMES:
            program = load_workload(name, "tiny")
            machine, _ = reference(program)
            result = run_traced(program)
            assert result.value == machine.result, name
            assert result.stats.instr_total == machine.instr_count, name

    def test_step_limit_enforced(self):
        program = compile_source(int_main(
            "int i = 0; while (true) { i = i + 1; } return i;"))
        controller = TraceController(program, max_instructions=20_000)
        with pytest.raises(StepLimitExceeded):
            controller.run()


class TestDispatchAccounting:
    def test_dispatch_reduction(self, counting_program):
        _machine, plain_dispatches = reference(counting_program)
        result = run_traced(counting_program)
        stats = result.stats
        assert stats.baseline_dispatches == plain_dispatches
        assert stats.total_dispatches < plain_dispatches

    def test_stats_identities(self, counting_program):
        stats = run_traced(counting_program).stats
        assert stats.trace_entries == \
            stats.trace_completions + (stats.trace_entries
                                       - stats.trace_completions)
        assert stats.instr_in_completed + stats.instr_in_partial \
            <= stats.instr_total
        assert 0.0 <= stats.coverage <= stats.cache_coverage <= 1.0
        assert 0.0 <= stats.completion_rate <= 1.0

    def test_trace_entries_equal_trace_dispatches(self, counting_program):
        stats = run_traced(counting_program).stats
        assert stats.trace_entries == stats.trace_dispatches

    def test_traces_actually_dispatch(self, counting_program):
        stats = run_traced(counting_program).stats
        assert stats.trace_dispatches > 0
        assert stats.trace_completions > 0

    def test_per_trace_stats_consistent(self, counting_program):
        result = run_traced(counting_program)
        total_entries = sum(t.entries
                            for t in result.cache.traces.values())
        assert total_entries == result.stats.trace_entries
        total_completed_blocks = sum(
            t.completed_blocks for t in result.cache.traces.values())
        assert total_completed_blocks == result.stats.completed_blocks

    def test_finalize_copies_counters(self, counting_program):
        result = run_traced(counting_program)
        stats = result.stats
        assert stats.signals == result.profiler.stats.signals
        assert stats.traces_constructed == \
            result.cache.stats.traces_constructed
        assert stats.bcg_nodes == len(result.profiler.bcg)
        assert stats.traces_in_cache == len(result.cache)


class TestConfigSensitivity:
    def test_threshold_one_shorter_or_equal_traces(self, counting_program):
        strict = run_traced(counting_program,
                            TraceCacheConfig(threshold=1.0)).stats
        loose = run_traced(counting_program,
                           TraceCacheConfig(threshold=0.90)).stats
        # completion rate with 100% threshold should not be lower
        assert strict.completion_rate >= loose.completion_rate - 0.02

    def test_huge_delay_suppresses_traces(self, counting_program):
        config = TraceCacheConfig(start_state_delay=1_000_000)
        stats = run_traced(counting_program, config).stats
        assert stats.trace_dispatches == 0
        assert stats.coverage == 0.0

    def test_delay_one_traces_quickly(self, counting_program):
        fast = run_traced(counting_program,
                          TraceCacheConfig(start_state_delay=1)).stats
        slow = run_traced(counting_program,
                          TraceCacheConfig(start_state_delay=4096)).stats
        assert fast.coverage >= slow.coverage

    def test_state_change_capture(self, counting_program):
        obs = Observability(history=0)
        recorder = EventRecorder()
        obs.bus.subscribe(recorder.record,
                          kinds=("profiler.state_change",))
        result = run_traced(counting_program, obs=obs)
        assert recorder.total == result.stats.signals


class TestProfilerTraceInteraction:
    def test_single_profiling_statement_per_trace_dispatch(
            self, counting_program):
        result = run_traced(counting_program)
        stats = result.stats
        # the profiler ran once per dispatch (block or trace), minus
        # the very first dispatch which has no branch context
        assert result.profiler.stats.advances == \
            stats.total_dispatches - 1

    def test_bcg_invariants_after_run(self, counting_program):
        result = run_traced(counting_program)
        assert result.profiler.bcg.invariant_errors() == []

    def test_coverage_meaningful_on_loop(self, counting_program):
        stats = run_traced(counting_program).stats
        assert stats.coverage > 0.5
        assert stats.completion_rate > 0.9


class TestSingleLoop:
    """Observability wraps the one dispatch loop; it never changes it."""

    CONFIG = TraceCacheConfig(start_state_delay=4, decay_period=16,
                              optimize_traces=True, compile_threshold=1,
                              link_threshold=2)

    def counters(self, program, obs):
        from repro import VM
        stats = VM(program, config=self.CONFIG, obs=obs).run().stats
        return (stats.block_dispatches, stats.trace_dispatches,
                stats.linked_transfers, stats.instr_total)

    def test_observed_runs_dispatch_identically(self, counting_program):
        from repro import Observability
        plain = self.counters(counting_program, None)
        assert plain[2] > 0          # links fire inside the loop
        assert self.counters(counting_program,
                             Observability(history=0)) == plain
        assert self.counters(counting_program,
                             Observability(snapshot_every=1)) == plain

    @pytest.mark.parametrize("every", [1, 50])
    def test_snapshots_spaced_by_dispatches(self, counting_program, every):
        from repro import Observability
        obs = Observability(history=0, snapshot_every=every,
                            snapshot_history=10_000)
        self.counters(counting_program, obs)
        marks = [snap["dispatches"] for snap in obs.snapshots]
        assert len(marks) > 2
        # The last snapshot is the end-of-run one, taken at the total.
        periodic = marks[:-1]
        assert all(b - a >= every for a, b in zip(periodic, periodic[1:]))
        assert marks[-1] > periodic[-1]
