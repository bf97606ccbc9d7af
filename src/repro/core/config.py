"""Configuration for the profiler and trace cache.

The two parameters the paper sweeps (Section 5.2) are `threshold` (the
minimum expected trace completion rate, which doubles as the strong-
correlation cutoff) and `start_state_delay` (how many executions before
a branch leaves the *newly created* state).  The remaining knobs are
implementation constants the paper fixes (16-bit counters, decay every
256 executions) plus safety bounds for the trace constructor.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class TraceCacheConfig:
    """All tunables of the profiling / trace generation system."""

    threshold: float = 0.97
    start_state_delay: int = 64
    decay_period: int = 256
    counter_bits: int = 16
    max_trace_blocks: int = 64
    max_walk_nodes: int = 128
    max_backtrack_nodes: int = 64
    min_trace_blocks: int = 2
    loop_unroll_copies: int = 2
    # Future-work extension (paper Section 6): compile hot traces, and
    # hot blocks dispatched alone, to specialized Python functions.
    optimize_traces: bool = False
    # Trace entries before a trace is template-compiled into a
    # specialized Python function (guards become inline conditionals);
    # until then it runs block by block.
    compile_threshold: int = 2
    # Trace-to-trace linking (Dynamo-style exit patching): when a trace
    # exit is followed by another trace entry often enough, the exit is
    # linked straight to the successor so chained hot traces dispatch
    # without a controller round-trip per transfer.  Only active with
    # optimize_traces=True; ablatable independently.
    trace_linking: bool = True
    # Exit->successor observations before a link is installed.
    link_threshold: int = 8
    # Maximum distinct successors linked from one trace exit site.
    link_max_fanout: int = 4
    # Multi-iteration superblocks: a trace whose hot completion edge
    # re-enters its own anchor is regrown as a k-copy superblock so k
    # loop iterations execute as one straight-line compiled unit.
    # 1 disables superblock growth.
    superblock_iters: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(
                f"threshold must be in (0, 1], got {self.threshold}")
        if self.start_state_delay < 1:
            raise ValueError(
                f"start_state_delay must be >= 1, got "
                f"{self.start_state_delay}")
        if self.decay_period < 2:
            raise ValueError(
                f"decay_period must be >= 2, got {self.decay_period}")
        if not 1 <= self.counter_bits <= 64:
            raise ValueError(
                f"counter_bits must be in [1, 64], got {self.counter_bits}")
        if self.min_trace_blocks < 2:
            raise ValueError("min_trace_blocks must be >= 2")
        if self.max_trace_blocks < self.min_trace_blocks:
            raise ValueError("max_trace_blocks < min_trace_blocks")
        if self.loop_unroll_copies < 1:
            raise ValueError("loop_unroll_copies must be >= 1")
        if self.compile_threshold < 1:
            raise ValueError(
                f"compile_threshold must be >= 1, got "
                f"{self.compile_threshold}")
        if self.link_threshold < 1:
            raise ValueError(
                f"link_threshold must be >= 1, got {self.link_threshold}")
        if self.link_max_fanout < 1:
            raise ValueError(
                f"link_max_fanout must be >= 1, got "
                f"{self.link_max_fanout}")
        if self.superblock_iters < 1:
            raise ValueError(
                f"superblock_iters must be >= 1, got "
                f"{self.superblock_iters}")

    @property
    def counter_max(self) -> int:
        """Saturation value of the 16-bit (by default) counters."""
        return (1 << self.counter_bits) - 1
