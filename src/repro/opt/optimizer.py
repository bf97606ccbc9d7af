"""The trace optimizer: lazy compilation cache + aggregate statistics.

The controller asks :meth:`TraceOptimizer.get` for a compiled form of
each dispatched trace; compilation (flatten + passes) happens on first
request and is cached by trace identity.  Traces that cannot be
flattened (defensive `FlattenError`) are remembered as unoptimizable
and dispatched the ordinary way.

Blocks the controller dispatches alone, outside any trace, go through
:meth:`TraceOptimizer.run_block`, which compiles a block once it is hot
and serves it from :attr:`TraceOptimizer.block_fns` from then on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..jvm.threaded import execute_block
from .codecache import CodeCache
from .flatten import FlattenError, flatten
from .ir import CompiledTrace
from .passes import optimize


@dataclass(slots=True)
class OptimizerStats:
    traces_compiled: int = 0
    traces_unoptimizable: int = 0
    original_instrs: int = 0     # static, across compiled traces
    optimized_instrs: int = 0

    @property
    def static_savings(self) -> int:
        return self.original_instrs - self.optimized_instrs

    @property
    def static_reduction(self) -> float:
        if self.original_instrs == 0:
            return 0.0
        return self.static_savings / self.original_instrs


class TraceOptimizer:
    """Compiles traces to optimized linear IR, with caching.

    The optimizer owns a :class:`CodeCache` and template-compiles each
    trace into a specialized Python function once the trace has been
    entered ``compile_threshold`` times (cold traces never pay
    codegen; until then they run block by block).  A block dispatched
    alone ``block_threshold`` times gets its own function the same way.
    Block functions do not depend on the profile, so they live as long
    as the optimizer (across re-entries) and are never invalidated."""

    def __init__(self, enable_passes: bool = True,
                 compile_threshold: int = 2, block_threshold: int = 128,
                 bus=None) -> None:
        self.enable_passes = enable_passes
        self.compile_threshold = compile_threshold
        self.block_threshold = block_threshold
        self.bus = bus              # repro.obs EventBus, or None
        self.codecache = CodeCache(bus=bus)
        self.compiled: dict[int, CompiledTrace] = {}    # id(trace) ->
        self.unoptimizable: set[int] = set()
        # BasicBlock -> block_fn(machine), for hot lone blocks; cold
        # ones count their lone dispatches in _block_counts.
        self.block_fns: dict = {}
        self._block_counts: dict = {}
        self.stats = OptimizerStats()

    def get(self, trace) -> CompiledTrace | None:
        """The compiled form of `trace`, or None if unoptimizable."""
        key = id(trace)
        cached = self.compiled.get(key)
        if cached is not None:
            return cached
        if key in self.unoptimizable:
            return None
        try:
            compiled = flatten(trace)
        except FlattenError:
            self.unoptimizable.add(key)
            self.stats.traces_unoptimizable += 1
            return None
        if self.enable_passes:
            optimize(compiled)
        self.compiled[key] = compiled
        self.stats.traces_compiled += 1
        self.stats.original_instrs += compiled.original_instr_count
        self.stats.optimized_instrs += compiled.optimized_instr_count
        return compiled

    def backend_fn(self, compiled: CompiledTrace):
        """The specialized function for `compiled`, compiling it now if
        the trace just crossed the hotness threshold; None while cold
        or uncompilable."""
        fn = compiled.py_fn
        if fn is not None:
            return fn
        if (compiled.py_uncompilable
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
        """Drop the compiled form — IR and generated code both — when
        the trace cache unlinks `trace` (it was rebuilt or replaced)."""
        dropped = self.compiled.pop(id(trace), None)
        if dropped is not None:
            had_code = dropped.py_fn is not None
            dropped.py_fn = None
            bus = self.bus
            if bus is not None:
                bus.emit("codegen.invalidation_drop",
                         trace=trace.serial, had_generated_code=had_code)
        self.unoptimizable.discard(id(trace))

    def dynamic_savings(self) -> int:
        """Original instructions *not* executed thanks to optimization,
        summed over completed runs of generated trace code."""
        total = 0
        for compiled in self.compiled.values():
            completions = max(
                0, compiled.executions - compiled.guard_failures)
            total += compiled.savings * completions
        return total
