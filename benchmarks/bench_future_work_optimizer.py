"""Future work (paper Section 6): executing *optimized* traces.

The paper's conclusion promises to "measure what further improvement
can be achieved by applying optimizations to the traces".  This
benchmark does that measurement with the `repro.opt` layer: traces are
flattened to guarded linear IR (internal gotos vanish), peephole-
optimized (constant folding, IINC fusion, push/pop removal), and
executed with block-exact semantics.

Reported per workload: traces compiled, static IR reduction, dynamic
original-instructions saved, and wall-clock comparison of the two
trace-dispatch modes.
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
        "Future work: optimized trace execution",
        ["workload", "traces compiled", "static reduction",
         "dynamic instrs saved", "saved fraction", "plain (s)",
         "optimized (s)"],
        formats=["", "", ".1%", "", ".1%", ".2f", ".2f"])
    savings = {}
    for name in WORKLOAD_NAMES:
        program = load_workload(name, size)
        reference = ThreadedInterpreter(program).run()
        plain, plain_s = run_mode(program, optimize=False)
        opt, opt_s = run_mode(program, optimize=True)
        assert opt.value == reference.result, name
        assert opt.stats.instr_total == reference.instr_count, name
        stats = opt.stats
        static_reduction = (
            stats.opt_static_savings
            / max(1, stats.opt_static_savings
                  + sum(len(t.blocks) for t in opt.cache.traces.values())))
        fraction = stats.opt_dynamic_savings / stats.instr_total
        table.add_row(name, stats.traces_compiled, static_reduction,
                      stats.opt_dynamic_savings, fraction, plain_s,
                      opt_s)
        savings[name] = fraction
    table.notes.append(
        "optimized runs template-compile hot traces; the "
        "paper-relevant result here is the instruction-stream "
        "reduction")
    return table, savings


def test_optimized_traces(benchmark, size, record_table):
    table, savings = benchmark.pedantic(
        lambda: build_table(size), rounds=1, iterations=1)
    record_table("future_work_optimizer", table)

    # Every workload must save real work, and regular loop-heavy code
    # saves the most (IINC fusion + goto elimination in hot loops).
    for name, fraction in savings.items():
        assert fraction > 0.0, name
    assert max(savings.values()) > 0.02
