"""Future work (paper Section 6): executing *compiled* traces.

The paper's conclusion promises to "measure what further improvement
can be achieved by applying optimizations to the traces".  This
benchmark does that measurement with the `repro.opt` layer: hot traces
are lowered straight from their blocks into Python functions (a guard
at each branch, fused operand-stack traffic) and executed with
block-exact semantics.

Reported per workload: traces compiled, the guard side-exit rate (side
exits per trace entry), and wall-clock time of block-by-block trace
dispatch against compiled trace dispatch.
"""

from __future__ import annotations

import time

from repro.core import TraceCacheConfig, TraceController
from repro.jvm import ThreadedInterpreter
from repro.metrics.report import Table
from repro.workloads import WORKLOAD_NAMES, load_workload


def run_mode(program, optimize: bool):
    config = TraceCacheConfig(optimize_traces=optimize)
    controller = TraceController(program, config)
    started = time.perf_counter()
    result = controller.run()
    elapsed = time.perf_counter() - started
    return result, elapsed


def build_table(size: str):
    table = Table(
        "Future work: compiled trace execution",
        ["workload", "traces compiled", "side-exit rate", "plain (s)",
         "compiled (s)"],
        formats=["", "", ".1%", ".2f", ".2f"])
    compiled = {}
    for name in WORKLOAD_NAMES:
        program = load_workload(name, size)
        reference = ThreadedInterpreter(program).run()
        plain, plain_s = run_mode(program, optimize=False)
        opt, opt_s = run_mode(program, optimize=True)
        for result in (plain, opt):
            assert result.value == reference.result, name
            assert result.stats.instr_total == reference.instr_count, name
        stats = opt.stats
        side_exit_rate = stats.codegen_side_exits / max(
            1, stats.trace_entries)
        table.add_row(name, stats.codegen_traces_compiled,
                      side_exit_rate, plain_s, opt_s)
        compiled[name] = stats.codegen_traces_compiled
    table.notes.append(
        "plain runs dispatch every trace block by block; compiled runs "
        "template-compile hot traces and hot lone blocks")
    return table, compiled


def test_optimized_traces(benchmark, size, record_table):
    table, compiled = benchmark.pedantic(
        lambda: build_table(size), rounds=1, iterations=1)
    record_table("future_work_optimizer", table)

    # Every workload runs hot traces as generated code.
    for name, count in compiled.items():
        assert count > 0, name
