"""The paper's contribution: BCG profiling and trace cache generation.

- :class:`BranchCorrelationGraph` — per-branch correlation statistics
  with 16-bit counters and periodic exponential decay (Section 3.5).
- :class:`Profiler` — the per-dispatch hook, start-state filtering,
  decay scheduling, and state-change signals (Section 4.1).
- :class:`TraceCache` + the constructor — signal-driven trace
  reconstruction with completion-probability cutting (Section 4.2).
- :class:`TraceController` — a trace-dispatching interpreter loop (the
  paper's future-work execution step, implemented).
"""

from .bcg import BranchCorrelationGraph, BranchEdge, BranchNode
from .completion import (completion_probability, cut_by_threshold,
                         step_probability)
from .config import TraceCacheConfig
from .constructor import (build_node_sequences, find_entry_points,
                          max_likelihood_walk)
from .controller import RunResult, TraceController, run_traced
from .profiler import Profiler, ProfilerStats
from .states import BranchState, classify, is_predictable
from .trace import Trace
from .trace_cache import TraceCache, TraceCacheStats

__all__ = [
    "BranchCorrelationGraph", "BranchEdge", "BranchNode",
    "completion_probability", "cut_by_threshold", "step_probability",
    "TraceCacheConfig", "build_node_sequences", "find_entry_points",
    "max_likelihood_walk", "RunResult", "TraceController", "run_traced",
    "Profiler", "ProfilerStats",
    "BranchState", "classify", "is_predictable", "Trace", "TraceCache",
    "TraceCacheStats",
]
