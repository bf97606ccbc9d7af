"""Run-level statistics and the paper's five dependent values.

Section 5.2 of the paper defines: average (executed) trace length,
instruction stream coverage, dynamic trace completion rate, state
signal rate, and trace event interval.  :class:`RunStats` collects the
raw counters a trace-dispatching run produces and derives each
dependent value as a property.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class RunStats:
    """Counters from one trace-dispatching execution."""

    instr_total: int = 0
    block_dispatches: int = 0       # ordinary basic-block dispatches
    trace_dispatches: int = 0       # whole-trace dispatches
    trace_entries: int = 0
    trace_completions: int = 0
    trace_chains: int = 0           # trace dispatch right after a trace
    completed_blocks: int = 0       # blocks executed in completed traces
    partial_blocks: int = 0         # blocks executed in early-exited traces
    instr_in_completed: int = 0
    instr_in_partial: int = 0
    signals: int = 0
    signals_late: int = 0           # signals in the second half of the run
    resignals: int = 0              # repeat signals (BCG churn)
    traces_constructed: int = 0
    traces_linked: int = 0
    traces_invalidated: int = 0
    anchors_replaced: int = 0
    bcg_nodes: int = 0
    bcg_edges: int = 0
    decays: int = 0
    traces_in_cache: int = 0
    runtime_seconds: float = 0.0
    # Template codegen (config.optimize_traces).  All fields stay
    # zeroed when the optimizer is off, so table builders can read
    # them unconditionally.
    codegen_traces_compiled: int = 0   # specialized functions installed
    codegen_blocks_compiled: int = 0   # lone-block functions installed
    codegen_uncompilable: int = 0      # traces the backend declined
    codegen_cache_hits: int = 0        # code objects shared by shape
    codegen_cache_misses: int = 0      # distinct shapes compiled
    codegen_source_bytes: int = 0      # generated Python source, total
    codegen_compile_seconds: float = 0.0
    codegen_side_exits: int = 0        # guard exits in generated code
    # Trace-to-trace linking (config.trace_linking, with the optimizer
    # on).  Zeroed when linking is off, same convention as above.
    links_installed: int = 0           # exit->trace links installed
    linked_transfers: int = 0          # dispatches taken through a link
    superblock_traces: int = 0         # k-iteration superblocks grown
    # Observability layer (repro.obs).  Zeroed when no Observability
    # is attached, mirroring the codegen convention.
    events_emitted: int = 0            # bus events delivered
    events_suppressed: int = 0         # emits short-circuited (no sub)
    obs_snapshots: int = 0             # periodic snapshots taken

    # ------------------------------------------------------------------
    @property
    def total_dispatches(self) -> int:
        """Dispatches performed by the trace-dispatching interpreter."""
        return self.block_dispatches + self.trace_dispatches

    @property
    def baseline_dispatches(self) -> int:
        """Dispatches a plain threaded interpreter would have performed
        (every block, whether it ran inside a trace or not)."""
        return (self.block_dispatches + self.completed_blocks
                + self.partial_blocks)

    @property
    def average_trace_length(self) -> float:
        """Paper dependent value 1: mean executed length (in basic
        blocks) of traces that ran to completion."""
        if self.trace_completions == 0:
            return 0.0
        return self.completed_blocks / self.trace_completions

    @property
    def coverage(self) -> float:
        """Paper dependent value 2: fraction of all executed
        instructions that ran inside *completed* traces."""
        if self.instr_total == 0:
            return 0.0
        return self.instr_in_completed / self.instr_total

    @property
    def cache_coverage(self) -> float:
        """Coverage including partially executed traces (the paper's
        '90.7%' variant)."""
        if self.instr_total == 0:
            return 0.0
        return (self.instr_in_completed + self.instr_in_partial) \
            / self.instr_total

    @property
    def completion_rate(self) -> float:
        """Paper dependent value 3: completed / entered."""
        if self.trace_entries == 0:
            return 1.0
        return self.trace_completions / self.trace_entries

    @property
    def dispatches_per_signal(self) -> float:
        """Paper dependent value 4 (Table IV reports thousands)."""
        if self.signals == 0:
            return float("inf")
        return self.total_dispatches / self.signals

    @property
    def chain_rate(self) -> float:
        """Fraction of trace dispatches that immediately followed
        another trace dispatch (back-to-back trace execution)."""
        if self.trace_dispatches == 0:
            return 0.0
        return self.trace_chains / self.trace_dispatches

    @property
    def linked_transfer_rate(self) -> float:
        """Fraction of trace dispatches entered through an installed
        trace-to-trace link (no controller round-trip)."""
        if self.trace_dispatches == 0:
            return 0.0
        return self.linked_transfers / self.trace_dispatches

    @property
    def steady_state_dispatches_per_signal(self) -> float:
        """Dispatches per signal counting only second-half signals.

        Our runs are orders of magnitude shorter than the paper's SPEC
        runs, so warm-up signals dominate the raw Table IV ratio; the
        steady-state variant exposes the paper's point that stable code
        stops signalling entirely.
        """
        if self.signals_late == 0:
            return float("inf")
        return (self.total_dispatches / 2) / self.signals_late

    @property
    def trace_events(self) -> int:
        """Signals plus traces constructed (Section 5.2)."""
        return self.signals + self.traces_constructed

    @property
    def dispatches_per_trace_event(self) -> float:
        """Paper dependent value 5 (Table V reports thousands)."""
        if self.trace_events == 0:
            return float("inf")
        return self.total_dispatches / self.trace_events

    @property
    def dispatch_reduction(self) -> float:
        """Fraction of baseline dispatches eliminated by trace dispatch."""
        baseline = self.baseline_dispatches
        if baseline == 0:
            return 0.0
        return 1.0 - self.total_dispatches / baseline

    def as_dict(self) -> dict:
        """Raw counters plus derived values, for reports and tests."""
        raw = {name: getattr(self, name)
               for name in self.__dataclass_fields__}
        raw.update(
            total_dispatches=self.total_dispatches,
            baseline_dispatches=self.baseline_dispatches,
            average_trace_length=self.average_trace_length,
            coverage=self.coverage,
            cache_coverage=self.cache_coverage,
            completion_rate=self.completion_rate,
            dispatches_per_signal=self.dispatches_per_signal,
            dispatches_per_trace_event=self.dispatches_per_trace_event,
            dispatch_reduction=self.dispatch_reduction,
            linked_transfer_rate=self.linked_transfer_rate,
        )
        return raw


@dataclass(slots=True)
class DispatchModelStats:
    """Figure 1 / Figure 2 data: dispatch counts of the three execution
    models on the same program."""

    instructions: int = 0
    instruction_dispatches: int = 0   # switch interpreter (Figure 1)
    block_dispatches: int = 0         # threaded interpreter (Figure 2)
    trace_model_dispatches: int = 0   # trace-dispatching interpreter

    @property
    def block_over_instruction(self) -> float:
        if self.instruction_dispatches == 0:
            return 0.0
        return self.block_dispatches / self.instruction_dispatches

    @property
    def trace_over_block(self) -> float:
        if self.block_dispatches == 0:
            return 0.0
        return self.trace_model_dispatches / self.block_dispatches


@dataclass(slots=True)
class OverheadSample:
    """One Table VI row: timed threaded execution with and without the
    profiler hook."""

    benchmark: str = ""
    base_seconds: float = 0.0
    profiled_seconds: float = 0.0
    dispatches: int = 0

    @property
    def overhead_seconds(self) -> float:
        return max(0.0, self.profiled_seconds - self.base_seconds)

    @property
    def overhead_per_million_dispatches(self) -> float:
        if self.dispatches == 0:
            return 0.0
        return self.overhead_seconds / (self.dispatches / 1e6)

    @property
    def relative_overhead(self) -> float:
        if self.base_seconds == 0.0:
            return 0.0
        return self.overhead_seconds / self.base_seconds
