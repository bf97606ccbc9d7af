"""Trace optimization (the paper's future-work step, implemented).

Flattens cached traces to a guarded linear IR, runs peephole passes
(goto elimination, constant folding, IINC fusion, push/pop removal)
and template-compiles hot traces, and hot blocks dispatched outside
any trace, into specialized Python functions (:mod:`codegen` +
:mod:`codecache`) with block-exact semantics and accounting.  Traces
that are cold, declined by codegen, or not flattenable run block by
block in the controller.
"""

from .codecache import CodeCache, CodegenStats
from .codegen import LoweredTrace, lower, lower_block
from .flatten import FlattenError, flatten
from .ir import CompiledTrace, TraceInstr
from .optimizer import OptimizerStats, TraceOptimizer
from .passes import (drop_push_pop, fold_constants, forward_store_load,
                     fuse_iinc, optimize)

__all__ = ["FlattenError", "flatten", "CompiledTrace",
           "TraceInstr", "OptimizerStats", "TraceOptimizer",
           "CodeCache", "CodegenStats", "LoweredTrace", "lower",
           "lower_block",
           "drop_push_pop", "fold_constants", "forward_store_load",
           "fuse_iinc", "optimize"]
