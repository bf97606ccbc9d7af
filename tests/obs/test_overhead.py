"""Disabled-observability cost: no bus, no Event allocations.

The acceptance bar for the obs layer is that a VM nobody is watching
pays nothing.  Two levels are pinned here:

1. With no Observability at all (the default), no component even holds
   a bus — every instrumentation point is one ``is None`` test.
2. With a wired bus but no subscribers, ``emit`` returns before the
   Event object is constructed (proved by making construction raise).
"""

from __future__ import annotations

import pytest

from repro import VM, Observability, run_traced
from repro.lang import compile_source
from repro.obs import bus as bus_module

SOURCE = """
class Main {
    static int main() {
        int total = 0;
        for (int outer = 0; outer < 200; outer = outer + 1) {
            for (int i = 0; i < 30; i = i + 1) {
                if ((i & 3) == 0) { total = total + 2; }
                else { total = total + 1; }
            }
        }
        return total;
    }
}
"""


@pytest.fixture(scope="module")
def program():
    return compile_source(SOURCE)


class TestFullyDisabled:
    def test_default_wires_no_bus_anywhere(self, program):
        vm = VM(program, start_state_delay=16, optimize_traces=True)
        assert vm.obs is None
        assert vm.controller.obs is None
        assert vm.controller.profiler.bus is None
        assert vm.controller.profiler.bcg.bus is None
        assert vm.controller.cache.bus is None
        assert vm.controller.optimizer.codecache.bus is None
        result = vm.run()
        assert result.stats.trace_dispatches > 0
        assert result.stats.events_emitted == 0
        assert result.stats.events_suppressed == 0
        assert result.stats.obs_snapshots == 0

    def test_run_traced_shim_defaults_disabled(self, program):
        result = run_traced(program)
        assert result.stats.events_emitted == 0


class TestSuppressedFastPath:
    def test_no_event_allocations_on_hot_run(self, program, monkeypatch):
        """A subscriber-free bus must never construct an Event, even
        across a full run exercising every instrumentation point."""
        baseline = VM(program, start_state_delay=16,
                      optimize_traces=True).run()

        obs = Observability(history=0)       # wired, nobody listening
        assert not obs.bus.active

        def boom(*args, **kwargs):
            raise AssertionError("Event allocated on suppressed path")
        monkeypatch.setattr(bus_module, "Event", boom)

        vm = VM(program, obs=obs, start_state_delay=16,
                optimize_traces=True)
        assert vm.controller.profiler.bus is obs.bus
        result = vm.run()
        assert result.value == baseline.value
        assert obs.bus.emitted == 0
        assert obs.bus.suppressed > 0
        assert result.stats.events_suppressed == obs.bus.suppressed

    def test_timers_still_account_when_unwatched(self, program):
        obs = Observability(history=0)
        vm = VM(program, obs=obs, start_state_delay=16,
                optimize_traces=True)
        vm.run()
        assert obs.timers.seconds("run") > 0
        assert obs.timers.counts["construct"] >= 1
        assert obs.timers.counts["codegen"] >= 1
