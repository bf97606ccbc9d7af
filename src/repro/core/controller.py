"""The trace-dispatching interpreter loop.

This is the paper's future-work step implemented: the VM actually
*executes* cached traces.  Each iteration performs one dispatch — a
whole trace when the just-taken branch anchors one, otherwise a single
basic block.  The profiler hook runs exactly once per dispatch, so
finding good traces removes profiling points, which is the mechanism
behind the paper's overhead reduction (Section 4.1.2).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from ..jvm.linker import Program
from ..jvm.threaded import DEFAULT_MAX_INSTRUCTIONS, Machine, execute_block
from ..metrics.collectors import RunStats
from .config import TraceCacheConfig
from .events import EventLog
from .links import TraceLinker
from .profiler import Profiler
from .trace import Trace
from .trace_cache import TraceCache

# One in every N linked transfers is emitted as a codegen.linked_transfer
# event; transfers are the hottest possible path, so observing them at
# full rate would dominate the bus.
LINKED_TRANSFER_SAMPLE = 256


@dataclass(slots=True)
class RunResult:
    """Everything a trace-dispatching run produces."""

    machine: Machine
    stats: RunStats
    profiler: Profiler
    cache: TraceCache

    @property
    def output(self) -> list[str]:
        return self.machine.output

    @property
    def value(self):
        return self.machine.result


class TraceController:
    """Owns the profiler + trace cache and drives the dispatch loop."""

    def __init__(self, program: Program,
                 config: TraceCacheConfig | None = None,
                 max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                 event_log: EventLog | None = None,
                 obs=None) -> None:
        self.program = program
        self.config = config or TraceCacheConfig()
        self.max_instructions = max_instructions
        self.obs = obs              # repro.obs.Observability, or None
        self._bus = obs.bus if obs is not None else None
        self.profiler = Profiler(self.config, event_log=event_log,
                                 bus=self._bus)
        self.cache = TraceCache(self.config, self.profiler,
                                bus=self._bus)
        self.profiler.signal_sink = self.cache.on_signal
        self.optimizer = None
        self._linker = None
        # The last trace exit (trace, blocks executed) — the linker's
        # edge source when the very next dispatch is another trace.
        self._exit_trace = None
        self._exit_executed = 0
        self._transfer_tick = 0
        # Exposed for post-run invariant checks (repro.check).
        self.last_run_stats = None
        # Persistent-profile activity (repro.store): set by the VM
        # facade on warm start / save; read by the snapshot exporter.
        self.profile_info = None
        if self.config.optimize_traces:
            # Imported lazily: the optimizer is an optional layer.
            from ..opt import TraceOptimizer
            # A lone block compiles after the dispatches a trace needs
            # to form (start_state_delay) and then to compile
            # (compile_threshold): 128 at the defaults.
            self.optimizer = TraceOptimizer(
                compile_threshold=self.config.compile_threshold,
                block_threshold=self.config.start_state_delay
                * self.config.compile_threshold,
                bus=self._bus)
            # When the cache unlinks a trace, drop its compiled forms.
            self.cache.invalidation_sink = self.optimizer.invalidate
            if self.config.trace_linking:
                self._linker = TraceLinker(self.config, self.cache,
                                           bus=self._bus)
                self.cache.linker = self._linker
        if obs is not None:
            # Routes the signal sink and codegen through phase timers.
            obs.attach(self)

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute the program entry to completion with trace dispatch."""
        program = self.program
        program.reset_statics()
        machine = Machine(program, self.max_instructions)
        stats = RunStats()
        obs = self.obs
        if obs is not None:
            obs.begin_run(self, stats)
        self._run(machine, stats)
        if obs is not None:
            obs.end_run(self, machine, stats)
        self._finalize(machine, stats)
        return RunResult(machine, stats, self.profiler, self.cache)

    def _run(self, machine: Machine, stats: RunStats) -> None:
        # Hot-loop locals: every attribute or global touched per
        # dispatch is bound once here.
        advance = self.profiler.advance
        execute = execute_block
        dispatch_trace = self._dispatch_trace
        linker = self._linker
        # Lone blocks: compiled functions once hot (optimizer only).
        optimizer = self.optimizer
        block_fns = optimizer.block_fns if optimizer is not None else None
        run_block = optimizer.run_block if optimizer is not None else None
        obs = self.obs
        snap_every = obs.snapshot_every if obs is not None else 0
        # Dispatch total at which the next ``--snapshot-every`` snapshot
        # is due; a sentinel the total never reaches when snapshots are
        # off, so the unobserved loop pays one comparison per dispatch.
        snap_at = snap_every or sys.maxsize
        current = machine.start()
        previous = None
        # Trace chaining: a completed trace whose very next dispatch is
        # another trace ran back-to-back — the relinking effect Dynamo
        # achieves by patching trace exits to other traces.  Chains
        # observed here feed the linker, which turns the hot ones into
        # direct transfers inside _dispatch_trace.
        last_was_trace = False

        while current is not None:
            # Counted in dispatches, not loop iterations: linked
            # transfers dispatch several traces per iteration.
            total = stats.block_dispatches + stats.trace_dispatches
            if total >= snap_at:
                obs.take_snapshot(self, dispatches=total)
                snap_at = total + snap_every
            if previous is not None:
                node = advance(previous.bid, current)
                trace = node.trace
                if trace is not None:
                    stats.trace_dispatches += 1
                    if last_was_trace:
                        stats.trace_chains += 1
                        if linker is not None:
                            linker.record(self._exit_trace,
                                          self._exit_executed, trace,
                                          node)
                            # Superblock growth re-anchors the node.
                            trace = node.trace
                    last_was_trace = True
                    previous, current = dispatch_trace(
                        machine, trace, stats)
                    continue
            last_was_trace = False
            stats.block_dispatches += 1
            if block_fns is None:
                nxt = execute(machine, current)
            else:
                fn = block_fns.get(current)
                nxt = fn(machine) if fn is not None \
                    else run_block(machine, current)
            previous = current
            current = nxt

    # ------------------------------------------------------------------
    def _dispatch_trace(self, machine: Machine, trace: Trace,
                        stats: RunStats):
        """Execute `trace`, following installed trace-to-trace links;
        returns (last executed block, successor)."""
        optimizer = self.optimizer
        profiler = self.profiler
        # The block id preceding the current trace's entry, once the
        # trampoline has taken at least one link (None on the first
        # trace: the profiler's branch context is still correct).
        entry_prev_bid = None
        compiled = None

        while True:
            blocks = trace.blocks
            count = len(blocks)
            before = machine.instr_count

            # A trace runs one of two ways: its generated function, or
            # block by block.  The block path covers cold traces, traces
            # codegen declined, and traces that failed to flatten.
            fn = None
            if optimizer is not None:
                if compiled is None:
                    compiled = optimizer.get(trace)
                if compiled is not None:
                    # Hot path: an installed function is one attribute
                    # load away; the backend_fn call (lazy install,
                    # threshold check) only runs while the trace is
                    # cold.
                    fn = compiled.py_fn
                    if fn is None:
                        fn = optimizer.backend_fn(compiled)
            if fn is not None:
                frame = machine.frames[-1]
                executed, nxt, _completed = fn(
                    machine, frame, frame.stack, frame.locals)
            else:
                executed = 0
                current = blocks[0]
                nxt = None
                while True:
                    nxt = execute_block(machine, current)
                    executed += 1
                    if executed == count or nxt is None:
                        break
                    if nxt is not blocks[executed]:
                        break
                    current = nxt

            instructions = machine.instr_count - before
            stats.trace_entries += 1
            if executed == count:
                trace.record_completion(instructions)
                stats.trace_completions += 1
                stats.completed_blocks += count
                stats.instr_in_completed += instructions
            else:
                trace.record_partial(executed, instructions)
                stats.partial_blocks += executed
                stats.instr_in_partial += instructions
                # A partial exit from generated code is a guard side
                # exit.
                if fn is not None and self._bus is not None:
                    self._bus.emit("codegen.side_exit",
                                   trace=trace.serial,
                                   executed=executed, of=count)
                # A superblock that keeps missing its k-iteration bet
                # is demoted back to its base trace (idempotent; a
                # no-op once the anchor has moved).
                if trace.iterations > 1:
                    self.cache.demote_superblock(trace)

            # Linked transfer: when this exit has an installed link to
            # the successor trace, dispatch it right here and skip the
            # controller round-trip (anchor lookup, dispatch policy,
            # linker re-observation).  Per-trace accounting above
            # already ran, so each chained trace keeps its own
            # statistics.  The link entry pins everything the classic
            # path re-resolves per dispatch: the successor, both BCG
            # nodes of the profiling statement, the optimizer record,
            # and the exit block id.
            tl = trace.links
            if tl is not None and nxt is not None:
                entry = tl.get((executed, nxt.bid))
                if entry is not None:
                    target, edge_node, prev_node, tcompiled, \
                        exit_bid = entry
                    stats.trace_dispatches += 1
                    stats.trace_chains += 1
                    stats.linked_transfers += 1
                    # The transfer keeps the trace's single profiling
                    # statement: advance over the link edge from the
                    # exit's branch context exactly as the controller
                    # would.  Skipping it starves the exit edge's BCG
                    # counters — decay then flips hot summaries and
                    # shatters stable traces into fragments.
                    if edge_node is None:
                        edge_node = profiler.bcg.get_or_create(
                            exit_bid, nxt.bid, nxt)
                        entry[1] = edge_node
                    if prev_node is None:
                        # The exit's prev pair is an intra-trace edge
                        # (lazily profiled — cacheable once found)
                        # except at 1-block exits, where it is the
                        # varying edge this trace was entered through.
                        if executed >= 2:
                            prev_node = profiler.bcg.find(
                                blocks[executed - 2].bid, exit_bid)
                            if prev_node is not None:
                                entry[2] = prev_node
                        elif entry_prev_bid is not None:
                            prev_node = profiler.bcg.find(
                                entry_prev_bid, exit_bid)
                    profiler.advance_link(prev_node, edge_node)
                    entry_prev_bid = exit_bid
                    if self._bus is not None:
                        self._transfer_tick += 1
                        if self._transfer_tick \
                                % LINKED_TRANSFER_SAMPLE == 0:
                            self._bus.emit("codegen.linked_transfer",
                                           source=trace.serial,
                                           target=target.serial,
                                           tick=self._transfer_tick)
                    if tcompiled is None and optimizer is not None:
                        tcompiled = optimizer.get(target)
                        if tcompiled is not None:
                            entry[3] = tcompiled
                    compiled = tcompiled
                    trace = target
                    continue
            break

        # Intra-trace branches were not profiled; restore the branch
        # context to the last branch the trace actually took.  With
        # fewer than two blocks executed the entry branch is still the
        # last taken one — unless this trace was entered through a
        # link, in which case the link edge itself was the last branch.
        if executed >= 2:
            self.profiler.resync(blocks[executed - 2].bid,
                                 blocks[executed - 1].bid)
        elif entry_prev_bid is not None and executed >= 1:
            self.profiler.resync(entry_prev_bid, blocks[0].bid)
        # Remember the exit site so the outer loop can feed the linker
        # if the next dispatch turns out to be another trace.
        self._exit_trace = trace
        self._exit_executed = executed
        return blocks[executed - 1], nxt

    # ------------------------------------------------------------------
    def _finalize(self, machine: Machine, stats: RunStats) -> None:
        stats.instr_total = machine.instr_count
        stats.signals = self.profiler.stats.signals
        halfway = self.profiler.stats.advances / 2
        stats.signals_late = sum(
            1 for serial in self.profiler.stats.signal_serials
            if serial > halfway)
        stats.resignals = self.profiler.stats.resignals
        stats.decays = self.profiler.stats.decays
        cache_stats = self.cache.stats
        stats.traces_constructed = cache_stats.traces_constructed
        stats.traces_linked = cache_stats.traces_linked
        stats.traces_invalidated = cache_stats.traces_invalidated
        stats.anchors_replaced = cache_stats.anchors_replaced
        stats.traces_in_cache = len(self.cache)
        stats.superblock_traces = cache_stats.superblocks_grown
        stats.bcg_nodes = len(self.profiler.bcg)
        stats.bcg_edges = self.profiler.bcg.edge_count
        # Layer counters below keep RunStats' zero defaults when their
        # layer is off, so consumers never meet a missing attribute.
        linker = self._linker
        if linker is not None:
            stats.links_installed = linker.stats.links_installed
        optimizer = self.optimizer
        if optimizer is not None:
            stats.traces_compiled = optimizer.stats.traces_compiled
            stats.opt_static_savings = optimizer.stats.static_savings
            stats.opt_dynamic_savings = optimizer.dynamic_savings()
            codecache = optimizer.codecache
            cg = codecache.stats
            stats.codegen_traces_compiled = cg.traces_compiled
            stats.codegen_blocks_compiled = cg.blocks_compiled
            stats.codegen_uncompilable = cg.traces_uncompilable
            stats.codegen_cache_hits = cg.cache_hits
            stats.codegen_cache_misses = cg.cache_misses
            stats.codegen_source_bytes = cg.source_bytes
            stats.codegen_compile_seconds = cg.compile_seconds
            stats.codegen_side_exits = codecache.side_exits_total()
        obs = self.obs
        if obs is not None:
            stats.events_emitted = obs.bus.emitted
            stats.events_suppressed = obs.bus.suppressed
            stats.obs_snapshots = obs.snapshots_taken
        self.last_run_stats = stats


def run_traced(program: Program,
               config: TraceCacheConfig | None = None,
               max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
               event_log: EventLog | None = None,
               obs=None) -> RunResult:
    """One-call API: run `program` under the trace-dispatching VM.

    Back-compat shim over :class:`repro.api.VM`, which is the stable
    embedding facade — new keyword arguments accrue there, not here.
    """
    from ..api import VM
    return VM(program, config=config, max_instructions=max_instructions,
              event_log=event_log, obs=obs).run()
