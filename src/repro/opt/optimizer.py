"""The trace optimizer: per-trace records and lazy compilation.

The controller asks :meth:`TraceOptimizer.get` for the record of each
dispatched trace (created on first request, keyed by trace identity)
and :meth:`TraceOptimizer.backend_fn` for its generated function,
which is compiled once the trace is hot.  Traces that are cold, or
that codegen declines, run block by block in the controller.

Blocks the controller dispatches alone, outside any trace, go through
:meth:`TraceOptimizer.run_block`, which compiles a block once it is hot
and serves it from :attr:`TraceOptimizer.block_fns` from then on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..jvm.threaded import execute_block
from .codecache import CodeCache


@dataclass(slots=True)
class CompiledTrace:
    """The optimizer's record of one trace."""

    trace: object                    # repro.core.trace.Trace
    # The generated function, installed lazily once the trace is hot:
    # `fn(machine, frame, stack, locals_)` returns
    # ``(blocks_executed, successor_block, completed)`` exactly as
    # block-by-block execution of the trace would; None when not (yet)
    # compiled.
    fn: object = None
    declined: bool = False           # codegen declined this trace
    side_exit_counts: list | None = None   # per-guard exits


class TraceOptimizer:
    """Owns a :class:`CodeCache` and the per-trace records.

    Each trace is template-compiled into a specialized Python function
    once it has been entered ``compile_threshold`` times (cold traces
    never pay codegen; until then they run block by block).  A block
    dispatched alone ``block_threshold`` times gets its own function
    the same way.  Block functions do not depend on the profile, so
    they live as long as the optimizer (across re-entries) and are
    never invalidated."""

    def __init__(self, compile_threshold: int = 2,
                 block_threshold: int = 128, bus=None) -> None:
        self.compile_threshold = compile_threshold
        self.block_threshold = block_threshold
        self.bus = bus              # repro.obs EventBus, or None
        self.codecache = CodeCache(bus=bus)
        self.compiled: dict[int, CompiledTrace] = {}    # id(trace) ->
        # BasicBlock -> block_fn(machine), for hot lone blocks; cold
        # ones count their lone dispatches in _block_counts.
        self.block_fns: dict = {}
        self._block_counts: dict = {}

    def get(self, trace) -> CompiledTrace:
        """The record of `trace`, created on first request."""
        key = id(trace)
        compiled = self.compiled.get(key)
        if compiled is None:
            compiled = self.compiled[key] = CompiledTrace(trace)
        return compiled

    def backend_fn(self, compiled: CompiledTrace):
        """The specialized function for `compiled`, compiling it now if
        the trace just crossed the hotness threshold; None while cold
        or declined."""
        fn = compiled.fn
        if fn is not None:
            return fn
        if (compiled.declined
                or compiled.trace.entries < self.compile_threshold):
            return None
        return self.codecache.install(compiled)

    def run_block(self, machine, block):
        """Dispatch `block` alone and return its successor: through
        ``execute_block`` while cold, through its compiled function
        from the ``block_threshold``-th lone dispatch on.  The
        controller calls this only for blocks not yet in
        :attr:`block_fns`."""
        counts = self._block_counts
        count = counts.get(block, 0) + 1
        if count < self.block_threshold:
            counts[block] = count
            return execute_block(machine, block)
        counts.pop(block, None)
        fn = self.codecache.install_block(block)
        if fn is None:          # no template: stays interpreted
            fn = partial(execute_block, block=block)
        self.block_fns[block] = fn
        return fn(machine)

    def invalidate(self, trace) -> None:
        """Drop the record and its generated code when the trace cache
        unlinks `trace` (it was rebuilt or replaced)."""
        dropped = self.compiled.pop(id(trace), None)
        if dropped is not None:
            had_code = dropped.fn is not None
            dropped.fn = None
            bus = self.bus
            if bus is not None:
                bus.emit("codegen.invalidation_drop",
                         trace=trace.serial, had_generated_code=had_code)
