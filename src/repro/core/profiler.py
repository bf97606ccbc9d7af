"""The profiling mechanism (Section 4.1 of the paper).

One :meth:`Profiler.advance` call is the augmented dispatch statement:
it runs once per block dispatch (and once per *trace* dispatch — the
single profiling statement a trace retains).  It

- locates (or lazily creates) the branch node for the taken branch,
- pays down the start-state countdown,
- records the succession edge from the previously taken branch,
- every `decay_period` executions of a node, decays its edges and
  rechecks its summary, signalling the trace cache on change.

Summaries are also rechecked when a node leaves the start state, so
freshly hot code becomes eligible for traces without waiting a full
decay period.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bcg import BranchCorrelationGraph, BranchNode
from .config import TraceCacheConfig
from .states import BranchState


@dataclass(slots=True)
class ProfilerStats:
    advances: int = 0
    signals: int = 0
    resignals: int = 0    # signals from nodes that signalled before
    decays: int = 0
    state_rechecks: int = 0
    signal_serials: list[int] = field(default_factory=list)
    signalled_keys: set = field(default_factory=set)


class Profiler:
    """Maintains the BCG and summarizes state changes to the trace cache.

    `signal_sink(node, old_summary, new_summary)` is invoked on every
    summary change of a not-rare node — the trace cache's entry point.
    """

    def __init__(self, config: TraceCacheConfig,
                 signal_sink=None, bus=None) -> None:
        self.config = config
        self.bcg = BranchCorrelationGraph(config)
        self.signal_sink = signal_sink
        self.bus = bus              # repro.obs EventBus, or None
        self.bcg.bus = bus          # saturation events at decay sweeps
        self.stats = ProfilerStats()
        self.last_node: BranchNode | None = None
        self._decay_period = config.decay_period

    # ------------------------------------------------------------------
    def advance(self, prev_bid: int, cur_block) -> BranchNode:
        """The per-dispatch profiling hook for branch (prev, cur).

        Returns the branch node, through which the controller finds any
        anchored trace.
        """
        stats = self.stats
        stats.advances += 1
        bcg = self.bcg
        node = bcg.get_or_create(prev_bid, cur_block.bid, cur_block)
        node.exec_count += 1

        last = self.last_node
        if last is not None:
            bcg.record_succession(last, node)
            # A node can leave the start state before its first
            # succession is observed (e.g. delay 1); classify it as
            # soon as successor data exists rather than waiting a full
            # decay period.
            if last.countdown == 0 \
                    and last.summary[0] is BranchState.NEWLY_CREATED:
                self._recheck(last)

        if node.countdown > 0:
            node.countdown -= 1
            if node.countdown == 0:
                self._recheck(node)
        elif node.exec_count % self._decay_period == 0:
            stats.decays += 1
            bcg.decay(node)
            bus = self.bus
            if bus is not None:
                bus.emit("profiler.decay", node=node.key,
                         serial=stats.advances)
            self._recheck(node)

        self.last_node = node
        return node

    def advance_link(self, last, node) -> None:
        """:meth:`advance` for an installed trace-to-trace link.

        A link pins both the branch context at the exit (`last`, the
        trace's final intra-trace branch node, or None when unknown —
        the lazy-design "unrecorded succession") and the link-edge node
        itself, so the context resync and the node lookup that
        :meth:`resync` + :meth:`advance` would perform are skipped.
        Everything observable — counters, decay, rechecks — is the
        profiling statement the classic dispatch path executes.
        """
        stats = self.stats
        stats.advances += 1
        node.exec_count += 1
        if last is not None:
            self.bcg.record_succession(last, node)
            if last.countdown == 0 \
                    and last.summary[0] is BranchState.NEWLY_CREATED:
                self._recheck(last)
        if node.countdown > 0:
            node.countdown -= 1
            if node.countdown == 0:
                self._recheck(node)
        elif node.exec_count % self._decay_period == 0:
            stats.decays += 1
            self.bcg.decay(node)
            bus = self.bus
            if bus is not None:
                bus.emit("profiler.decay", node=node.key,
                         serial=stats.advances)
            self._recheck(node)
        self.last_node = node

    def resync(self, prev_bid: int, cur_bid: int) -> None:
        """Reset the branch context after a trace dispatch.

        Intra-trace branches are not profiled, so after a trace exits
        the context must be set to the last branch the trace actually
        took — found without creating (an unknown context simply leaves
        the next succession unrecorded, as in the paper's lazy design).
        """
        self.last_node = self.bcg.find(prev_bid, cur_bid)

    # ------------------------------------------------------------------
    def _recheck(self, node: BranchNode) -> None:
        """Reclassify `node`; emit a signal if its summary changed."""
        self.stats.state_rechecks += 1
        new_summary = self.bcg.classify(node)
        old_summary = node.summary
        if new_summary == old_summary:
            return
        # Starvation guard: once a region is trace-covered, this node's
        # successor branches execute inside traces and are no longer
        # profiled, so its out-edges decay to nothing even though the
        # branch itself is hot.  Dropping back to NEWLY_CREATED would
        # invalidate perfectly good traces every decay period; keep the
        # last informed summary instead (a dormant summary is harmless:
        # a branch that truly stops executing stops being dispatched).
        if (new_summary[0] is BranchState.NEWLY_CREATED
                and node.countdown == 0
                and old_summary[0] is not BranchState.NEWLY_CREATED):
            return
        node.summary = new_summary
        if new_summary[0] is BranchState.NEWLY_CREATED \
                and old_summary[0] is BranchState.NEWLY_CREATED:
            return
        self.stats.signals += 1
        self.stats.signal_serials.append(self.stats.advances)
        if node.key in self.stats.signalled_keys:
            # A re-signal: this branch's behaviour changed *again* —
            # the churn the paper's stability criterion cares about.
            self.stats.resignals += 1
        else:
            self.stats.signalled_keys.add(node.key)
        bus = self.bus
        if bus is not None:
            bus.emit("profiler.state_change", node=node.key,
                     old_state=old_summary[0].name,
                     old_best=old_summary[1],
                     new_state=new_summary[0].name,
                     new_best=new_summary[1],
                     serial=self.stats.advances)
        if self.signal_sink is not None:
            self.signal_sink(node, old_summary, new_summary)

    def refresh_summary(self, node: BranchNode) -> None:
        """Re-cache a node's summary *without* signalling.

        Used by the trace cache after reconstruction to prevent signal
        cascades: the nodes it just examined are up to date.
        """
        node.summary = self.bcg.classify(node)
