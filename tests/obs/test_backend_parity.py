"""The structural event stream is execution-mode-independent.

Profiling, trace construction, and cache mutations are driven by
dispatch — whether an installed trace or a lone block runs as generated
code or interpreted must not change what the profiler sees.  The same
program runs with every trace compiled at its first hot entry
(``compile_threshold=1``, which also compiles lone blocks after
``start_state_delay`` dispatches) and with nothing ever compiled (a
threshold no entry count reaches); codegen events (``codegen.*``) are
the only permitted difference.
"""

from __future__ import annotations

import pytest

from repro import VM, Observability
from repro.check.differential import NEVER_COMPILE
from repro.lang import compile_source

SOURCE = """
class Main {
    static int step(int x) {
        if ((x & 7) < 3) { return x + 2; }
        return x + 1;
    }
    static int main() {
        int total = 0;
        for (int outer = 0; outer < 120; outer = outer + 1) {
            for (int i = 0; i < 50; i = i + 1) {
                total = (total + step(i)) & 1048575;
            }
        }
        return total;
    }
}
"""

STRUCTURAL = ("profiler", "cache", "constructor")

COMPILED = 1
NEVER = NEVER_COMPILE


def observed_run(compile_threshold):
    obs = Observability()
    vm = VM(compile_source(SOURCE), obs=obs, start_state_delay=16,
            optimize_traces=True, compile_threshold=compile_threshold)
    result = vm.run()
    structural = [(e.kind, e.data) for e in obs.events
                  if e.category in STRUCTURAL]
    kinds = {e.kind for e in obs.events}
    return result, structural, kinds


@pytest.fixture(scope="module")
def runs():
    return {mode: observed_run(mode) for mode in (COMPILED, NEVER)}


class TestBackendParity:
    def test_results_identical(self, runs):
        compiled, blocks = runs[COMPILED][0], runs[NEVER][0]
        assert compiled.value == blocks.value
        assert compiled.stats.instr_total == blocks.stats.instr_total
        assert compiled.stats.total_dispatches \
            == blocks.stats.total_dispatches

    def test_structural_event_streams_identical(self, runs):
        compiled, blocks = runs[COMPILED][1], runs[NEVER][1]
        assert compiled          # the workload must actually trace
        assert compiled == blocks

    def test_no_codegen_under_unreachable_threshold(self, runs):
        assert "codegen.compile" in runs[COMPILED][2]
        assert "codegen.compile" not in runs[NEVER][2]
        assert runs[NEVER][0].stats.codegen_traces_compiled == 0
        assert runs[NEVER][0].stats.codegen_blocks_compiled == 0

    def test_threshold_one_compiles_lone_blocks(self, runs):
        assert runs[COMPILED][0].stats.codegen_blocks_compiled > 0
