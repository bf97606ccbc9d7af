"""repro — Dynamic profiling and trace cache generation for a Java-like VM.

A full reproduction of Berndl & Hendren, *Dynamic Profiling and Trace
Cache Generation for a Java Virtual Machine* (CGO 2003): a JVM-like
bytecode substrate with switch and direct-threaded-inlining
interpreters, a mini-Java compiler used to express the paper's
workloads, the branch-correlation-graph profiler and trace cache that
are the paper's contribution, the Dynamo/rePLay/Whaley-style baselines
it compares against, and a harness regenerating every table in the
paper's evaluation.

Quickstart::

    from repro import VM

    vm = VM('''
        class Main {
            static int main() {
                int total = 0;
                for (int i = 0; i < 1000; i = i + 1) { total = total + i; }
                return total;
            }
        }
    ''', threshold=0.97)
    result = vm.run()
    print(result.value, vm.stats.coverage)

Attach an :class:`Observability` context to watch the run live —
JSONL event streams, Chrome/Perfetto trace files, periodic snapshots::

    from repro import VM, Observability

    obs = Observability(chrome_trace_path="run.trace.json")
    VM(program, obs=obs).run()
"""

from .api import VM, compile_program
from .check import (DiffReport, InvariantChecker, ProgramSpec,
                    assert_equivalent, run_differential)
from .core import (BranchCorrelationGraph, BranchNode, BranchState,
                   Profiler, RunResult, Trace, TraceCache,
                   TraceCacheConfig, TraceController, run_traced)
from .jvm import (Program, SwitchInterpreter, ThreadedInterpreter,
                  disassemble_program, link, verify_program)
from .lang import CompileError, compile_source
from .metrics.collectors import RunStats
from .obs import EventBus, Observability, PhaseTimers
from .workloads import SIZES, WORKLOAD_NAMES, load_workload, workload_source

__version__ = "1.2.0"

__all__ = [
    "VM", "compile_program", "Observability", "EventBus", "PhaseTimers",
    "DiffReport", "InvariantChecker", "ProgramSpec", "assert_equivalent",
    "run_differential",
    "BranchCorrelationGraph", "BranchNode", "BranchState", "Profiler",
    "RunResult", "Trace", "TraceCache", "TraceCacheConfig",
    "TraceController", "run_traced", "Program", "SwitchInterpreter",
    "ThreadedInterpreter", "disassemble_program", "link",
    "verify_program", "CompileError", "compile_source", "RunStats",
    "SIZES", "WORKLOAD_NAMES", "load_workload", "workload_source",
]
