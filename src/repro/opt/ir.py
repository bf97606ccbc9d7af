"""Linear trace IR: the unit the trace optimizer works on.

A cached trace is a block sequence with a single entry; flattening it
produces one straight-line instruction list in which

- internal ``GOTO``s disappear (the code-layout win trace caches are
  built for),
- every conditional / switch terminator becomes a **guard** that
  verifies execution stays on the trace and side-exits otherwise,
- calls and returns keep their frame effects, with virtual calls and
  returns guarded on the callee / continuation the trace expects.

Each IR instruction carries a `weight` — how many *original* bytecode
instructions it represents — so generated code can keep the machine's
instruction accounting identical to unoptimized execution, and the
difference ``weight - 1`` summed over the stream is exactly the
optimizer's savings along the completion path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..jvm.bytecode import Op

# IR instruction kinds.
K_SIMPLE = "simple"      # ordinary op, original semantics
K_GUARD_COND = "gcond"   # conditional branch turned assertion
K_GUARD_SWITCH = "gswitch"
K_CALL = "call"          # static/special call (deterministic callee)
K_VCALL = "vcall"        # virtual call guarded on the callee entry
K_RET = "ret"            # return guarded on the continuation
K_THROW = "throw"        # athrow guarded on the handler block
K_NATIVE = "native"      # native call (no frame push)


@dataclass(slots=True)
class TraceInstr:
    """One optimized-trace instruction."""

    kind: str
    op: Op | None = None
    a: object = None
    b: object = None
    weight: int = 1
    ordinal: int = 0                 # index of the source block in the trace
    origin_index: int = 0            # original pc (exception handling)
    # Guard fields (kind-dependent):
    expect_taken: bool = False       # gcond: expected direction
    taken_block: object = None       # gcond: branch target block
    fall_block: object = None        # gcond: fallthrough block
    switch_block: object = None      # gswitch: the original block
    expected: object = None          # expected next block (guards)
    continuation: object = None      # call/vcall: caller continuation

    def __repr__(self) -> str:
        name = self.op.name if self.op is not None else self.kind
        return f"<{self.kind}:{name} w={self.weight} blk={self.ordinal}>"


class FlattenError(Exception):
    """The trace cannot be flattened (static successor mismatch);
    the optimizer falls back to plain block-by-block dispatch."""


@dataclass(slots=True)
class CompiledTrace:
    """The optimizer's output for one trace."""

    trace: object                    # repro.core.trace.Trace
    instrs: list[TraceInstr] = field(default_factory=list)
    final_block: object = None       # executed via the standard path
    tail_weight: int = 0             # leftover weight before final block
    original_instr_count: int = 0    # flattened originals (excl. final)
    # block_weight_prefix[j] = original instructions in blocks[0:j];
    # used for block-exact accounting on side exits.
    block_weight_prefix: list[int] = field(default_factory=list)
    # Runs of the generated function (block-path runs are not counted):
    executions: int = 0
    guard_failures: int = 0
    # Template-compiled form, installed lazily once the trace is hot.
    # `py_fn(machine, frame, stack, locals_)` returns
    # ``(blocks_executed, successor_block, completed)`` exactly as
    # block-by-block execution of the trace would; None when not (yet)
    # compiled.
    py_fn: object = None
    py_uncompilable: bool = False    # codegen declined this trace
    side_exit_counts: list | None = None   # per-guard exits

    @property
    def optimized_instr_count(self) -> int:
        return len(self.instrs)

    @property
    def savings(self) -> int:
        """Original instructions eliminated along the completion path."""
        return self.original_instr_count - self.optimized_instr_count

    def describe(self) -> str:
        return (f"compiled trace over {len(self.trace.blocks)} blocks: "
                f"{self.original_instr_count} -> "
                f"{self.optimized_instr_count} instructions "
                f"({self.savings} saved)")
