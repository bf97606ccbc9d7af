"""Trace optimization (the paper's future-work step, implemented).

Template-compiles hot traces, straight from their blocks, and hot
blocks dispatched outside any trace, into specialized Python functions
(:mod:`codegen` + :mod:`codecache`) with block-exact semantics and
accounting.  Traces that are cold or declined by codegen run block by
block in the controller.
"""

from .codecache import CodeCache, CodegenStats
from .codegen import LoweredTrace, lower, lower_block
from .optimizer import CompiledTrace, TraceOptimizer

__all__ = ["CompiledTrace", "TraceOptimizer", "CodeCache",
           "CodegenStats", "LoweredTrace", "lower", "lower_block"]
