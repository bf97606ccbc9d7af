"""Whitebox invariant checking over the observability event stream.

The profiler / trace-cache machinery promises structural properties the
paper's correctness argument leans on — 16-bit counter saturation with
decay keeping weights in range, a legal node-state lifecycle, traces cut
so their expected completion stays above the threshold, a deduplicating
trace table, and a code cache that never outlives the traces it
compiled.  :class:`InvariantChecker` turns those promises into runtime
checks:

- **event-driven** checks subscribe to the PR-2 event bus (specific
  kinds only, so the bus's suppressed fast path keeps every *other*
  emission allocation-free, and a run without a checker pays nothing),
- **post-run** checks (:meth:`final_check`) sweep the BCG, the trace
  table and the optimizer's code cache for cross-structure coherence.

Violations are collected, not raised, so a differential run can report
them alongside output divergences; :meth:`raise_if_violated` converts
them into one exception for direct test use.
"""

from __future__ import annotations

from ..core.states import BranchState

__all__ = ["InvariantChecker", "InvariantViolation"]


class InvariantViolation(AssertionError):
    """One or more internal invariants failed during a checked run."""


# Signalled summary transitions the profiler may legally emit.  The
# starvation guard (profiler._recheck) suppresses drops back into
# NEWLY_CREATED once a node has been classified, and NEWLY->NEWLY
# best-successor churn is filtered before signalling.
_STATE_NAMES = frozenset(s.name for s in BranchState)


class InvariantChecker:
    """Checks profiler/cache/codegen invariants for one controller.

    Usage::

        checker = InvariantChecker(vm.controller)
        checker.attach(obs.bus)     # before vm.run()
        vm.run()
        checker.raise_if_violated()  # event + final sweeps

    The checker subscribes to exactly the kinds it consumes; everything
    else stays on the bus's suppressed path.
    """

    KINDS = (
        "profiler.state_change",
        "profiler.decay",
        "profiler.counter_saturated",
        "cache.trace_created",
        "cache.trace_linked",
        "cache.trace_invalidated",
        "cache.trace_restored",
        "trace.superblock_grown",
    )

    def __init__(self, controller) -> None:
        self.controller = controller
        self.violations: list[str] = []
        self.events_seen = 0
        self._last_serial = 0           # cache.trace_created serials
        self._created: dict[int, tuple] = {}    # serial -> block key
        self._live: set[int] = set()    # created/relinked, not invalidated
        self._saw_cache_events = False

    # ------------------------------------------------------------------
    def attach(self, bus) -> "InvariantChecker":
        bus.subscribe(self._on_event, kinds=self.KINDS)
        return self

    def detach(self, bus) -> None:
        bus.unsubscribe(self._on_event)

    def _fail(self, message: str) -> None:
        self.violations.append(message)

    # ------------------------------------------------------------------
    def _on_event(self, event) -> None:
        self.events_seen += 1
        kind = event.kind
        data = event.data
        if kind == "profiler.state_change":
            self._check_state_change(data)
        elif kind == "profiler.decay":
            self._check_decay(data)
        elif kind == "profiler.counter_saturated":
            self._check_saturation(data)
        elif kind == "cache.trace_created":
            self._check_created(data)
        elif kind == "cache.trace_linked":
            self._check_linked(data)
        elif kind == "cache.trace_invalidated":
            self._check_invalidated(data)
        elif kind == "cache.trace_restored":
            self._check_restored(data)
        elif kind == "trace.superblock_grown":
            self._check_superblock(data)

    # -- profiler ------------------------------------------------------
    def _check_state_change(self, data) -> None:
        old, new = data["old_state"], data["new_state"]
        if old not in _STATE_NAMES or new not in _STATE_NAMES:
            self._fail(f"state_change with unknown state: {old}->{new}")
            return
        if (old, data["old_best"]) == (new, data["new_best"]):
            self._fail(f"state_change {data['node']} signalled with an "
                       f"unchanged summary ({old}, {data['old_best']})")
        if new == "NEWLY_CREATED" and old != "NEWLY_CREATED":
            self._fail(
                f"state_change {data['node']} dropped {old} -> "
                f"NEWLY_CREATED: the starvation guard must suppress "
                f"signalled falls back into the start state")
        if old == "NEWLY_CREATED" and new == "NEWLY_CREATED":
            self._fail(f"state_change {data['node']} signalled a "
                       f"NEWLY_CREATED -> NEWLY_CREATED non-transition")

    def _check_decay(self, data) -> None:
        node = self.controller.profiler.bcg.nodes.get(data["node"])
        if node is None:
            self._fail(f"decay event for unknown node {data['node']}")
            return
        config = self.controller.config
        half_cap = config.counter_max >> 1
        total = 0
        best_weight = 0
        for z, edge in node.edges.items():
            if edge.weight <= 0:
                self._fail(f"decay left node {node.key} edge ->{z} with "
                           f"weight {edge.weight}; dead edges must be "
                           f"pruned")
            if edge.weight > half_cap:
                self._fail(f"decay left node {node.key} edge ->{z} at "
                           f"{edge.weight} > counter_max/2 ({half_cap}); "
                           f"{config.counter_bits}-bit saturation plus a "
                           f"shift cannot exceed it")
            total += edge.weight
            best_weight = max(best_weight, edge.weight)
        if node.total != total:
            self._fail(f"decay left node {node.key} total {node.total} "
                       f"!= edge sum {total}")
        if node.edges:
            if node.predicted is None:
                self._fail(f"decay left node {node.key} without an "
                           f"inline-cache prediction despite live edges")
            elif node.predicted.weight != best_weight:
                self._fail(f"decay left node {node.key} inline cache at "
                           f"weight {node.predicted.weight}, best is "
                           f"{best_weight}")
        elif node.predicted is not None:
            self._fail(f"decay left node {node.key} predicting through "
                       f"a pruned edge")

    def _check_saturation(self, data) -> None:
        cap = self.controller.config.counter_max
        if data["cap"] != cap:
            self._fail(f"counter_saturated reports cap {data['cap']}, "
                       f"config says {cap}")
        if not data["successors"]:
            self._fail("counter_saturated with no saturated successors")

    # -- trace cache ---------------------------------------------------
    def _check_created(self, data) -> None:
        self._saw_cache_events = True
        config = self.controller.config
        serial = data["serial"]
        blocks = tuple(data["blocks"])
        completion = data["expected_completion"]
        if serial <= self._last_serial:
            self._fail(f"trace_created serial {serial} not monotonic "
                       f"(last was {self._last_serial})")
        self._last_serial = max(self._last_serial, serial)
        if serial in self._created:
            self._fail(f"trace_created reused serial {serial}: the "
                       f"dedup table must emit trace_linked instead")
        if not config.min_trace_blocks <= len(blocks) \
                <= config.max_trace_blocks:
            self._fail(f"trace #{serial} has {len(blocks)} blocks, "
                       f"outside [{config.min_trace_blocks}, "
                       f"{config.max_trace_blocks}]")
        # cut_by_threshold guarantees every emitted chunk's completion
        # product is >= threshold; 1e-6 absorbs the payload rounding.
        if not config.threshold - 1e-6 <= completion <= 1.0 + 1e-6:
            self._fail(f"trace #{serial} expected completion "
                       f"{completion} outside [threshold="
                       f"{config.threshold}, 1.0]")
        self._created[serial] = blocks
        self._live.add(serial)

    def _check_restored(self, data) -> None:
        """Warm-start restorations enter the table outside the
        constructor pipeline (a restored superblock, like a grown one,
        may legally sit below the completion threshold and above
        max_trace_blocks), so only serial discipline and the (0, 1]
        completion range apply."""
        self._saw_cache_events = True
        serial = data["serial"]
        if serial <= self._last_serial:
            self._fail(f"trace_restored serial {serial} not monotonic "
                       f"(last was {self._last_serial})")
        self._last_serial = max(self._last_serial, serial)
        if serial in self._created:
            self._fail(f"trace_restored reused serial {serial}")
        completion = data["expected_completion"]
        if not 0.0 < completion <= 1.0 + 1e-6:
            self._fail(f"restored trace #{serial} expected completion "
                       f"{completion} outside (0, 1]")
        if data["iterations"] < 1:
            self._fail(f"restored trace #{serial} with iterations="
                       f"{data['iterations']}")
        self._created[serial] = tuple(data["blocks"])
        self._live.add(serial)

    def _check_superblock(self, data) -> None:
        """Superblocks enter the table outside the constructor pipeline
        (they may exceed max_trace_blocks and fall below the completion
        threshold by design), so they announce themselves with their
        own kind; this registers the serial and checks its shape."""
        self._saw_cache_events = True
        serial = data["serial"]
        blocks = tuple(data["blocks"])
        k = data["iterations"]
        if serial <= self._last_serial:
            self._fail(f"superblock_grown serial {serial} not monotonic "
                       f"(last was {self._last_serial})")
        self._last_serial = max(self._last_serial, serial)
        if serial in self._created:
            self._fail(f"superblock_grown reused serial {serial}")
        if k < 2:
            self._fail(f"superblock #{serial} grown with iterations="
                       f"{k}; growth below 2 must be declined")
        base = self._created.get(data["base"])
        if base is None:
            self._fail(f"superblock #{serial} grown from never-created "
                       f"base serial {data['base']}")
        elif blocks != base * k:
            self._fail(f"superblock #{serial} blocks are not {k} copies "
                       f"of base #{data['base']}")
        self._created[serial] = blocks
        self._live.add(serial)

    def _check_linked(self, data) -> None:
        self._saw_cache_events = True
        serial = data["serial"]
        known = self._created.get(serial)
        if known is None:
            self._fail(f"trace_linked for never-created serial {serial}")
        elif tuple(data["blocks"]) != known:
            self._fail(f"trace_linked #{serial} blocks "
                       f"{tuple(data['blocks'])} != created {known}")
        self._live.add(serial)

    def _check_invalidated(self, data) -> None:
        self._saw_cache_events = True
        serial = data["serial"]
        if serial not in self._created:
            self._fail(f"trace_invalidated for never-created serial "
                       f"{serial}")
        self._live.discard(serial)

    # ------------------------------------------------------------------
    # Post-run structural sweep.
    def final_check(self) -> list[str]:
        """Run every cross-structure check; returns (and records) the
        full violation list."""
        controller = self.controller
        config = controller.config
        bcg = controller.profiler.bcg
        cache = controller.cache

        for error in bcg.invariant_errors():
            self._fail(f"bcg: {error}")
        for node in bcg.nodes.values():
            if not 0 <= node.countdown <= config.start_state_delay:
                self._fail(f"node {node.key} countdown {node.countdown} "
                           f"outside [0, {config.start_state_delay}]")
            for z, edge in node.edges.items():
                if edge.weight < 1:
                    self._fail(f"node {node.key} edge ->{z} at rest "
                               f"with weight {edge.weight} (< 1)")

        serials: set[int] = set()
        for key, trace in cache.traces.items():
            if trace.key != key:
                self._fail(f"trace table key {key} stores trace keyed "
                           f"{trace.key}")
            if trace.serial in serials:
                self._fail(f"trace serial {trace.serial} appears twice "
                           f"in the table")
            serials.add(trace.serial)
            if not 0.0 < trace.expected_completion <= 1.0 + 1e-6:
                self._fail(f"trace #{trace.serial} expected completion "
                           f"{trace.expected_completion} outside (0, 1]")
            if trace.completions > trace.entries:
                self._fail(f"trace #{trace.serial} completed "
                           f"{trace.completions} of {trace.entries} "
                           f"entries")
            if self._saw_cache_events and \
                    trace.serial not in self._created:
                self._fail(f"trace #{trace.serial} in the table but its "
                           f"creation was never announced on the bus")

        for node in bcg.nodes.values():
            trace = node.trace
            if trace is None:
                continue
            # Traces dedup by *block* sequence, so an anchor's node key
            # may differ from node_keys[0] — but the first block must
            # be the anchor's destination or dispatch would start the
            # trace at the wrong place.
            if trace.key and trace.key[0] != node.dst:
                self._fail(f"node {node.key} anchors trace "
                           f"#{trace.serial} that starts at block "
                           f"{trace.key[0]}, not the node's dst "
                           f"{node.dst}")
            resident = cache.traces.get(trace.key)
            if resident is not trace:
                self._fail(f"node {node.key} anchors trace "
                           f"#{trace.serial} that is not the table's "
                           f"entry for key {trace.key}")

        self._check_optimizer_coherence()
        self._check_linking_coherence()
        return self.violations

    def _check_linking_coherence(self) -> None:
        controller = self.controller
        stats = getattr(controller, "last_run_stats", None)
        linker = getattr(controller, "_linker", None)
        if stats is not None:
            if stats.linked_transfers > stats.trace_dispatches:
                self._fail(f"{stats.linked_transfers} linked transfers "
                           f"exceed {stats.trace_dispatches} trace "
                           f"dispatches: every transfer is itself a "
                           f"dispatch, and the first dispatch of a "
                           f"chain is never linked")
            if stats.linked_transfers > 0 and (
                    linker is None or linker.stats.links_installed == 0):
                self._fail(f"{stats.linked_transfers} linked transfers "
                           f"recorded but no link was ever installed")
            if linker is None and (stats.links_installed
                                   or stats.linked_transfers):
                self._fail("linking counters nonzero with the linker "
                           "disabled")
        if linker is None:
            return
        for error in linker.invariant_errors():
            self._fail(f"linker: {error}")
        table = {id(t) for t in controller.cache.traces.values()}
        for key, target in linker.links.items():
            if id(target) not in table:
                self._fail(f"link {key} targets a trace the dedup "
                           f"table no longer owns "
                           f"(serial {target.serial})")

    def _check_optimizer_coherence(self) -> None:
        optimizer = getattr(self.controller, "optimizer", None)
        if optimizer is None:
            return
        cache = self.controller.cache
        table_ids = {id(t): t for t in cache.traces.values()}
        for key, compiled in optimizer.compiled.items():
            trace = getattr(compiled, "trace", None)
            if trace is not None and id(trace) != key:
                self._fail(f"optimizer cache key {key} holds a compiled "
                           f"form of a different trace object")
            # A trace anchored at several nodes can be invalidated
            # through one of them and legitimately recompiled via the
            # surviving anchors, so compiled forms are only required to
            # reference traces the dedup table still owns.
            if key not in table_ids:
                self._fail(f"optimizer holds a compiled form for a "
                           f"trace no longer in the cache table "
                           f"(serial {getattr(trace, 'serial', '?')}); "
                           f"invalidation must drop it")

    # ------------------------------------------------------------------
    def raise_if_violated(self) -> None:
        """final_check(), then raise InvariantViolation on any finding."""
        self.final_check()
        if self.violations:
            summary = "\n  - ".join(self.violations)
            raise InvariantViolation(
                f"{len(self.violations)} invariant violation(s):\n  - "
                f"{summary}")
