"""Whitebox invariant checking: clean runs pass, seeded faults fail."""

from __future__ import annotations

import pytest

from repro.api import VM
from repro.check import InvariantChecker, InvariantViolation, generate
from repro.check.genprog import build_program
from repro.core import TraceCacheConfig
from repro.obs import Observability


AGGRESSIVE = TraceCacheConfig(threshold=0.55, start_state_delay=2,
                              decay_period=8, max_trace_blocks=8,
                              optimize_traces=True,
                              compile_threshold=1)


def _checked_run(program, config=AGGRESSIVE):
    obs = Observability(history=0)
    vm = VM(program, config=config, obs=obs)
    checker = InvariantChecker(vm.controller).attach(obs.bus)
    vm.run()
    return vm, checker


class TestCleanRuns:
    @pytest.mark.parametrize("seed", range(12))
    def test_generated_programs_hold_invariants(self, seed):
        _, checker = _checked_run(build_program(generate(seed)))
        assert checker.events_seen > 0
        checker.raise_if_violated()

    def test_final_check_is_idempotent(self):
        _, checker = _checked_run(build_program(generate(0)))
        first = list(checker.final_check())
        assert first == []
        assert checker.final_check() == []

    def test_subscribes_only_its_kinds(self):
        obs = Observability(history=0)
        vm = VM(build_program(generate(0)), config=AGGRESSIVE, obs=obs)
        InvariantChecker(vm.controller).attach(obs.bus)
        assert obs.bus.wants("profiler.decay")
        assert obs.bus.wants("cache.trace_created")
        # Unrelated kinds stay on the suppressed fast path.
        assert not obs.bus.wants("codegen.compile")
        assert not obs.bus.wants("vm.run_started")


class TestSeededFaults:
    """Each fault breaks one structure; its checker must notice."""

    def test_counter_overflow_detected(self):
        vm, checker = _checked_run(build_program(generate(1)))
        node = next(iter(vm.profiler.bcg.nodes.values()))
        if not node.edges:
            node = max(vm.profiler.bcg.nodes.values(),
                       key=lambda n: len(n.edges))
        edge = next(iter(node.edges.values()))
        edge.weight = vm.config.counter_max + 7    # out of 16-bit range
        node.total = sum(e.weight for e in node.edges.values())
        node.predicted = max(node.edges.values(),
                             key=lambda e: e.weight)
        errors = checker.final_check()
        assert any("out of range" in e for e in errors)

    def test_stale_total_detected(self):
        vm, checker = _checked_run(build_program(generate(1)))
        node = max(vm.profiler.bcg.nodes.values(),
                   key=lambda n: len(n.edges))
        node.total += 5
        errors = checker.final_check()
        assert any("total" in e for e in errors)

    def test_table_key_mismatch_detected(self):
        vm, checker = _checked_run(build_program(generate(0)))
        cache = vm.cache
        assert cache.traces, "fixture program built no traces"
        key, trace = next(iter(cache.traces.items()))
        del cache.traces[key]
        cache.traces[(999_999,) + key[1:]] = trace
        errors = checker.final_check()
        assert any("trace table key" in e for e in errors)

    def test_dangling_compiled_form_detected(self):
        vm, checker = _checked_run(build_program(generate(0)))
        optimizer = vm.controller.optimizer
        assert optimizer.compiled, "fixture program compiled no traces"
        # Remove the trace from the table but "forget" to invalidate.
        some_id = next(iter(optimizer.compiled))
        trace = optimizer.compiled[some_id].trace
        vm.cache.traces.pop(trace.key, None)
        errors = checker.final_check()
        assert any("no longer in the cache table" in e for e in errors)

    def test_bad_anchor_detected(self):
        vm, checker = _checked_run(build_program(generate(0)))
        anchored = [n for n in vm.profiler.bcg.nodes.values()
                    if n.trace is not None]
        assert anchored, "fixture program anchored no traces"
        node = anchored[0]
        other = [n for n in vm.profiler.bcg.nodes.values()
                 if n.dst != node.trace.key[0]]
        other[0].trace = node.trace     # anchor at the wrong node
        errors = checker.final_check()
        assert any("starts at block" in e for e in errors)

    def test_raise_if_violated_raises(self):
        vm, checker = _checked_run(build_program(generate(1)))
        node = max(vm.profiler.bcg.nodes.values(),
                   key=lambda n: len(n.edges))
        node.total += 1
        with pytest.raises(InvariantViolation, match="violation"):
            checker.raise_if_violated()


class TestEventChecks:
    def test_illegal_state_change_flagged(self):
        obs = Observability(history=0)
        vm = VM(build_program(generate(0)), config=AGGRESSIVE, obs=obs)
        checker = InvariantChecker(vm.controller).attach(obs.bus)
        obs.bus.emit("profiler.state_change", node=(0, 1),
                     old_state="STRONG", old_best=2,
                     new_state="NEWLY_CREATED", new_best=None, serial=1)
        assert any("starvation guard" in v for v in checker.violations)

    def test_unchanged_summary_flagged(self):
        obs = Observability(history=0)
        vm = VM(build_program(generate(0)), config=AGGRESSIVE, obs=obs)
        checker = InvariantChecker(vm.controller).attach(obs.bus)
        obs.bus.emit("profiler.state_change", node=(0, 1),
                     old_state="STRONG", old_best=2,
                     new_state="STRONG", new_best=2, serial=1)
        assert any("unchanged summary" in v for v in checker.violations)

    def test_duplicate_serial_flagged(self):
        obs = Observability(history=0)
        vm = VM(build_program(generate(0)), config=AGGRESSIVE, obs=obs)
        checker = InvariantChecker(vm.controller).attach(obs.bus)
        payload = dict(serial=1, blocks=[1, 2, 3],
                       expected_completion=0.9)
        obs.bus.emit("cache.trace_created", **payload)
        obs.bus.emit("cache.trace_created", **payload)
        assert any("reused serial" in v for v in checker.violations)

    def test_linked_blocks_must_match_created(self):
        obs = Observability(history=0)
        vm = VM(build_program(generate(0)), config=AGGRESSIVE, obs=obs)
        checker = InvariantChecker(vm.controller).attach(obs.bus)
        obs.bus.emit("cache.trace_created", serial=1, blocks=[1, 2],
                     expected_completion=0.9)
        obs.bus.emit("cache.trace_linked", serial=1, blocks=[1, 9])
        assert any("blocks" in v for v in checker.violations)
