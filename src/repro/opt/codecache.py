"""Structural-hash-keyed cache of compiled trace and block code objects.

:func:`repro.opt.codegen.lower` symbolizes every per-trace object into
a constant slot, so the generated source text *is* the structural
identity of a trace shape.  The cache keys ``compile()``d code objects
by that text: two traces with identical shapes share one code object
and only pay a cheap ``exec`` to bind their own constants — the same
dedup move the trace cache itself makes with its block-sequence hash
table.  Lone-block functions (:func:`repro.opt.codegen.lower_block`)
share the same cache and memo.

Instantiation binds, per trace or block: the constant pool
(``C0..Cn``), the shared helper functions, and for a trace a fresh
per-guard side-exit counter list.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .codegen import (BLOCK_FN_NAME, HELPERS, TRACE_FN_NAME, LoweredTrace,
                      lower, lower_block)
from .ir import CompiledTrace


@dataclass(slots=True)
class CodegenStats:
    """Aggregate statistics of the template-compilation backend."""

    traces_compiled: int = 0        # specialized functions installed
    blocks_compiled: int = 0        # lone-block functions installed
    traces_uncompilable: int = 0    # declined (no lowering template)
    cache_hits: int = 0             # code object reused by shape
    cache_misses: int = 0           # distinct shapes this cache needed
    shared_hits: int = 0            # shapes adopted from the process
                                    # memo without paying compile()
    source_bytes: int = 0           # generated Python source, total
    compile_seconds: float = 0.0    # time inside compile()

    @property
    def hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        if lookups == 0:
            return 0.0
        return self.cache_hits / lookups


class CodeCache:
    """Compile-and-instantiate service for generated trace and block
    code."""

    # Process-wide memo of compile() results, shared by every cache
    # instance.  Generated source is the full structural identity of a
    # trace shape and code objects are immutable, so a VM can adopt a
    # shape another VM already paid to compile — fresh-VM reps of a
    # benchmark, fleet workers, and warm-started serving then compile
    # each shape once per process instead of once per VM.  Superblocks
    # lean on this hardest: their k-fold sources are the largest the
    # backend emits.
    _shared_code: dict[str, object] = {}

    def __init__(self, bus=None) -> None:
        self._code: dict[str, object] = {}     # source text -> code obj
        # Running total of guard side exits across every function this
        # cache ever installed.  A shared one-element list bound into
        # each generated function's namespace (as ``EXIT_TOTAL``), so
        # the exit site increments it directly and stats reads are O(1)
        # instead of a sum over all installed traces per read.
        self._exit_total = [0]
        self.stats = CodegenStats()
        self.bus = bus              # repro.obs EventBus, or None

    def __len__(self) -> int:
        return len(self._code)

    def install(self, compiled: CompiledTrace):
        """Compile `compiled` to a specialized function and attach it
        as ``compiled.py_fn``; returns the function, or None when the
        trace is not lowerable (it keeps running block by block)."""
        serial = getattr(compiled.trace, "serial", None)
        lowered = lower(compiled)
        if lowered is None:
            compiled.py_uncompilable = True
            self.stats.traces_uncompilable += 1
            if self.bus is not None:
                self.bus.emit("codegen.uncompilable", trace=serial)
            return None
        exits = [0] * lowered.guard_count
        fn = self._instantiate(lowered, TRACE_FN_NAME, {"trace": serial},
                               EXITS=exits, EXIT_TOTAL=self._exit_total)
        compiled.py_fn = fn
        compiled.side_exit_counts = exits
        self.stats.traces_compiled += 1
        return fn

    def install_block(self, block):
        """Compile `block` to a ``block_fn(machine)`` that stands in for
        ``execute_block(machine, block)``; None when it has an
        instruction with no template."""
        lowered = lower_block(block)
        if lowered is None:
            return None
        fn = self._instantiate(lowered, BLOCK_FN_NAME, {"block": block.bid})
        self.stats.blocks_compiled += 1
        return fn

    def _instantiate(self, lowered: LoweredTrace, name: str, unit: dict,
                     **namespace):
        """The code object for `lowered`'s shape (compiled at most once
        per process), bound to its constants; returns function `name`.
        `unit` identifies the trace or block in codegen events."""
        bus = self.bus
        code = self._code.get(lowered.key)
        if code is None:
            self.stats.cache_misses += 1
            self.stats.source_bytes += len(lowered.source)
            shared = CodeCache._shared_code.get(lowered.key)
            if shared is None:
                started = time.perf_counter()
                code = compile(lowered.source, "<trace-codegen>",
                               "exec")
                seconds = time.perf_counter() - started
                self.stats.compile_seconds += seconds
                CodeCache._shared_code[lowered.key] = code
            else:
                code = shared
                self.stats.shared_hits += 1
                seconds = 0.0
            self._code[lowered.key] = code
            if bus is not None:
                bus.emit("codegen.compile", **unit,
                         source_bytes=len(lowered.source),
                         guards=lowered.guard_count,
                         seconds=seconds,
                         shared=shared is not None)
        else:
            self.stats.cache_hits += 1
            if bus is not None:
                bus.emit("codegen.cache_hit", **unit)

        namespace.update(HELPERS)
        for index, obj in enumerate(lowered.consts):
            namespace[f"C{index}"] = obj
        exec(code, namespace)
        return namespace[name]

    def side_exits_total(self) -> int:
        """Guard side exits taken inside generated code, summed over
        every function this cache ever installed (O(1): the generated
        exit paths maintain the running total)."""
        return self._exit_total[0]
