"""Directed tests for the rarer optimized-trace guard paths:
throw guards, return guards, virtual-call guards, and their side
exits."""

from __future__ import annotations

from repro.core import TraceCacheConfig, TraceController
from repro.jvm import ThreadedInterpreter
from repro.lang import compile_source

AGGRESSIVE = TraceCacheConfig(start_state_delay=4, decay_period=16,
                              optimize_traces=True)


def assert_equivalent(source):
    """Run `source` compiled and interpreted; returns the compiled
    run's controller."""
    program = compile_source(source)
    expected = ThreadedInterpreter(program).run()
    controller = TraceController(program, AGGRESSIVE)
    optimized = controller.run()
    assert optimized.value == expected.result
    assert optimized.stats.instr_total == expected.instr_count
    return controller


def trace_sources(controller) -> list[str]:
    """The generated source of every trace shape the run compiled."""
    return [source for source in controller.optimizer.codecache._code
            if source.startswith("def trace_fn")]


class TestThrowGuards:
    THROW_EVERY_ITERATION = """
        class Main {
            static int main() {
                int total = 0;
                for (int i = 0; i < 3000; i = i + 1) {
                    try { throw new Exception(); }
                    catch (Exception e) { total = total + 1; }
                }
                return total;
            }
        }
    """

    def test_trace_through_throw(self):
        # Throwing every iteration makes the throw->handler edge hot
        # and unique, so traces cross it and guard the handler (a
        # trace's final block returns `_throw(...)` unguarded instead).
        controller = assert_equivalent(self.THROW_EVERY_ITERATION)
        assert any(" = _throw(" in source
                   for source in trace_sources(controller))

    def test_multi_frame_unwind_inside_trace(self):
        assert_equivalent("""
            class Main {
                static void boom() { throw new Exception(); }
                static int main() {
                    int total = 0;
                    for (int i = 0; i < 2500; i = i + 1) {
                        try { boom(); }
                        catch (Exception e) { total = total + 2; }
                    }
                    return total;
                }
            }
        """)

    def test_alternating_handlers(self):
        # the same throw unwinds to different handlers depending on
        # call depth parity -> throw guard side exits
        assert_equivalent("""
            class Main {
                static int boomOrNot(int i) {
                    if (i % 5 == 0) { throw new Exception(); }
                    return 1;
                }
                static int main() {
                    int total = 0;
                    for (int i = 0; i < 3000; i = i + 1) {
                        try { total = total + boomOrNot(i); }
                        catch (Exception e) { total = total + 10; }
                    }
                    return total;
                }
            }
        """)


class TestReturnGuards:
    def test_shared_helper_two_call_sites(self):
        # helper returns alternately to two continuations; any trace
        # through the return guards one of them and side-exits on the
        # other
        controller = assert_equivalent("""
            class Main {
                static int helper(int x) { return x + 1; }
                static int main() {
                    int total = 0;
                    for (int i = 0; i < 4000; i = i + 1) {
                        if ((i & 1) == 0) {
                            total = total + helper(i);
                        } else {
                            total = total - helper(i / 2);
                        }
                        total = total & 65535;
                    }
                    return total;
                }
            }
        """)
        assert any(".return_block is not" in source
                   for source in trace_sources(controller))

    def test_recursive_returns(self):
        assert_equivalent("""
            class Main {
                static int sum(int n) {
                    if (n == 0) { return 0; }
                    return n + sum(n - 1);
                }
                static int main() {
                    int total = 0;
                    for (int i = 0; i < 200; i = i + 1) {
                        total = (total + sum(20)) & 65535;
                    }
                    return total;
                }
            }
        """)

    def test_program_end_inside_optimized_trace(self):
        # main's own return can sit inside a trace; the return guard
        # with an empty frame stack must terminate the program cleanly
        assert_equivalent("""
            class Main {
                static int work() {
                    int s = 0;
                    for (int i = 0; i < 2000; i = i + 1) { s = s + i; }
                    return s & 65535;
                }
                static int main() {
                    return work();
                }
            }
        """)


class TestSwitchGuards:
    def test_switch_inside_trace(self):
        assert_equivalent("""
            class Main {
                static int main() {
                    int total = 0;
                    for (int i = 0; i < 3000; i = i + 1) {
                        switch (i % 4) {
                            case 0: total = total + 1; break;
                            case 1: total = total + 2; break;
                            case 2: total = total + 3; break;
                            default: total = total - 1;
                        }
                    }
                    return total;
                }
            }
        """)

    def test_biased_switch_guard(self):
        # one dominant arm: traces cross the switch with a guard that
        # occasionally fails
        assert_equivalent("""
            class Main {
                static int main() {
                    int total = 0;
                    for (int i = 0; i < 3000; i = i + 1) {
                        int sel = i % 50 == 0 ? 1 : 0;
                        switch (sel) {
                            case 0: total = total + 1; break;
                            default: total = total + 100;
                        }
                    }
                    return total;
                }
            }
        """)


class TestVirtualGuards:
    def test_vcall_guard_present(self):
        # A monomorphic call site: the virtual edge is UNIQUE, so the
        # trace crosses it and guards the callee's entry block.
        controller = assert_equivalent("""
            class A { int f() { return 1; } }
            class B extends A { int f() { return 2; } }
            class Main {
                static int main() {
                    A obj = new B();
                    int s = 0;
                    for (int i = 0; i < 3000; i = i + 1) {
                        s = (s + obj.f()) & 4095;
                    }
                    return s;
                }
            }
        """)
        assert any(".entry_block is not" in source
                   for source in trace_sources(controller))
