"""Differential suite for compiler-visible programs.

Every check feeds a mini-Java program through
:func:`repro.check.assert_equivalent`, which runs the switch
interpreter (reference), the threaded interpreter, and the trace
controller under all :data:`~repro.check.differential.DIFF_PROFILES` —
including the ``optimize_traces=False`` profiles (``plain``/``chop``),
the never-compiling ``py-cold`` fallback and the ``py`` codegen
profiles — and requires agreement on
outcome, value, output, instruction count, and the statics snapshot.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import assert_equivalent
from repro.check.differential import (DIFF_PROFILES, NEVER_COMPILE,
                                      run_differential)
from repro.lang import compile_source
from repro.workloads import WORKLOAD_NAMES, load_workload
from tests.conftest import int_main
from tests.test_integration import _branchy_program


class TestProfileCoverage:
    def test_profiles_span_the_backend_matrix(self):
        """The default profile set must keep exercising unoptimized
        trace dispatch alongside both ways an optimized trace runs:
        generated code, and the block-path fallback of traces that
        never get hot enough to compile."""
        unoptimized = [n for n, c in DIFF_PROFILES.items()
                       if not c.optimize_traces]
        optimized = [c for c in DIFF_PROFILES.values()
                     if c.optimize_traces]
        assert len(unoptimized) >= 2
        assert any(c.compile_threshold == 1 for c in optimized)
        assert any(c.compile_threshold >= NEVER_COMPILE
                   for c in optimized)


class TestWorkloads:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_all_engines_agree(self, name):
        report = assert_equivalent(load_workload(name, "tiny"))
        # compile_threshold=1 means every flattened trace was fed to
        # codegen in the py profile.
        py = report.results["py"]
        assert py.stats.codegen_traces_compiled > 0, name
        assert py.stats.codegen_uncompilable == 0, name
        # Its lone blocks got generated code after a few dispatches.
        assert py.stats.codegen_blocks_compiled > 0, name
        # py-cold never compiles, so its links and superblocks all ran
        # on the block path, and its lone blocks were interpreted.
        cold = report.results["py-cold"]
        assert cold.stats.codegen_traces_compiled == 0, name
        assert cold.stats.codegen_blocks_compiled == 0, name
        assert cold.stats.linked_transfers > 0, name
        assert cold.stats.superblock_traces > 0, name


class TestControlFlowShapes:
    def test_calls_and_returns(self):
        assert_equivalent(compile_source("""
            class Main {
                static int add3(int a, int b, int c) {
                    return a + b + c;
                }
                static int main() {
                    int s = 0;
                    for (int i = 0; i < 4000; i = i + 1) {
                        s = (s + add3(i, s, 7)) & 65535;
                    }
                    return s;
                }
            }
        """))

    def test_virtual_calls_with_guard_failures(self):
        assert_equivalent(compile_source("""
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
        """))

    def test_natives_in_hot_loop(self):
        assert_equivalent(compile_source(int_main(
            "int s = 0;"
            "for (int i = 0; i < 3000; i = i + 1) {"
            "  s = (s + Sys.max(i, s % 97) + Sys.abs(s - i)) & 65535;"
            "  if (i % 500 == 0) { Sys.print(s); }"
            "}"
            "return s;")))

    def test_fdiv_nan_semantics(self):
        # Regression for the NaN/0.0 bug, driven through hot traces so
        # generated code and the block path both execute FDIV.
        assert_equivalent(compile_source("""
            class Main {
                static int main() {
                    float nan = 0.0 / 0.0;
                    int hits = 0;
                    for (int i = 0; i < 3000; i = i + 1) {
                        float q = nan / 0.0;
                        if (q != q) { hits = hits + 1; }
                        float p = 1.0 / 0.0;
                        if (p > 0.0) { hits = hits + 1; }
                    }
                    return hits;
                }
            }
        """))


class TestExceptionCarryingPrograms:
    def test_exceptions_caught_inside_traces(self):
        assert_equivalent(compile_source("""
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
        """))

    def test_exceptions_unwinding_through_calls(self):
        assert_equivalent(compile_source("""
            class Main {
                static int risky(int i) {
                    if (i % 113 == 0) { throw new Exception(); }
                    return i * 3;
                }
                static int main() {
                    int total = 0;
                    for (int i = 1; i < 4000; i = i + 1) {
                        try {
                            total = (total + risky(i)) & 65535;
                        } catch (Exception e) { total = total + 7; }
                    }
                    return total;
                }
            }
        """))

    def test_uncaught_exception_after_hot_loop(self):
        """All engines must agree on the uncaught outcome (and its
        class), plus the statics mutated before the throw."""
        report = run_differential(compile_source("""
            class Main {
                static int g;
                static int main() {
                    for (int i = 0; i < 3000; i = i + 1) {
                        g = (g + i) & 65535;
                    }
                    throw new Exception();
                }
            }
        """))
        assert report.ok, report.describe()
        assert report.results["switch"].outcome == "uncaught:Exception"
        assert report.results["switch"].statics


class TestGeneratedPrograms:
    @given(st.tuples(st.integers(1, 50), st.integers(1, 50),
                     st.integers(1, 50)),
           st.integers(min_value=50, max_value=300),
           st.integers(min_value=2, max_value=7))
    @settings(max_examples=15, deadline=None)
    def test_branchy_programs(self, seeds, loops, mod):
        report = run_differential(
            compile_source(_branchy_program(seeds, loops, mod)))
        assert report.ok, (f"seeds={seeds} loops={loops} mod={mod}\n"
                           + report.describe())
