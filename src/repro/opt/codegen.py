"""Template compilation: traces and basic blocks -> Python.

Each hot trace is lowered straight from its blocks into one
straight-line Python function that is ``compile()``d once and cached
(see :mod:`repro.opt.codecache`).  The generated function returns
exactly what block-by-block execution of the trace would::

    def trace_fn(machine, frame, stack, locals_):
        ...
        return blocks_executed, successor_block, completed

A hot *lone block* — one the controller keeps dispatching by itself,
outside any trace — is lowered the same way into::

    def block_fn(machine):
        ...
        return successor_block

which is a drop-in for ``execute_block(machine, block)``.

Lowering rules:

- **Simple ops** become inline statements over a *virtual stack* of
  Python expressions, so ``ILOAD a; ILOAD b; IADD; ISTORE c`` fuses to
  ``locals_[c] = <wrapped locals_[a] + locals_[b]>`` with no operand-
  stack traffic at all.  Java-int wrapping is inline arithmetic, and
  it is dropped where interval analysis proves the result fits a Java
  int (e.g. masked values).
- **Trace blocks** keep their bodies; each terminator before the last
  block becomes what keeps execution on the trace.  A fall-through or
  goto vanishes (the next block is its only successor), and a
  conditional, switch, virtual call, return or throw becomes a
  **guard**: an inline conditional whose failure branch restores the
  real operand stack, charges the instructions of the blocks run so
  far, and side-exits with ``(blocks_executed, successor, False)`` —
  the block and successor at which the block path would have left the
  trace.  A block sequence that contradicts a block's own successor is
  declined, and that trace runs block by block.
- **Calls, returns, natives and throws** are lowered inline with the
  exact frame effects of the original blocks: the caller's virtual
  stack is flushed to the real operand stack, the ``Frame`` is
  pushed/popped, and the ``stack`` / ``locals_`` bindings are switched
  to the new top frame.  A return value re-enters the *caller's*
  virtual stack, so it can fuse into the continuation without touching
  the operand stack.
- **Block exits** — a lone block, and the final block of every trace —
  share one template (:func:`_lower_block_exit`): lower the body and
  turn the terminator into "return the successor", with the same frame
  effects and errors as the interpreter.  A trace's virtual stack
  carries into its final block, so the trace body fuses into the tail.
- **The step limit.**  A lone block charges itself and checks the
  limit first, as ``execute_block`` does.  A trace checks once, at
  entry, whether its whole length fits the remaining budget; when it
  might not, it raises :class:`~repro.jvm.errors.StepLimitAhead`
  before touching any state, and the controller runs that dispatch
  block by block, so the limit hits exactly where the block path puts
  it.  A trace that passes the check cannot cross the limit, so the
  final block only charges the whole trace.

Per-trace objects (successor blocks, classes, methods) are never
embedded in the source; they are referenced through symbolic constant
slots ``C0, C1, ...`` bound as function defaults at instantiation
time.  Two traces with the same shape therefore produce byte-identical
source — the structural key the code cache dedups on.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..jvm.basicblock import (KIND_COND, KIND_FALL, KIND_GOTO,
                              KIND_INVOKE, KIND_RETURN, KIND_SWITCH,
                              KIND_THROW)
from ..jvm.bytecode import Op
from ..jvm.errors import StepLimitAhead, StepLimitExceeded, VMRuntimeError
from ..jvm.frame import Frame
from ..jvm.heap import ArrayRef, ObjRef
from ..jvm.intrinsics import NativeMethod
from ..jvm.threaded import _throw
from ..jvm.values import (INT_MAX, INT_MIN, fcmp, java_f2i, java_fdiv,
                          java_idiv, java_irem, java_ishl, java_iushr)

# Names the generated source may reference; bound as function defaults.
HELPERS = {
    "java_idiv": java_idiv,
    "java_irem": java_irem,
    "java_ishl": java_ishl,
    "java_iushr": java_iushr,
    "java_fdiv": java_fdiv,
    "java_f2i": java_f2i,
    "fcmp": fcmp,
    "ObjRef": ObjRef,
    "ArrayRef": ArrayRef,
    "VMRuntimeError": VMRuntimeError,
    "StepLimitExceeded": StepLimitExceeded,
    "StepLimitAhead": StepLimitAhead,
    "Frame": Frame,
    "_throw": _throw,
}

TRACE_FN_NAME = "trace_fn"
BLOCK_FN_NAME = "block_fn"

_INT_RANGE = (INT_MIN, INT_MAX)
_MAX_EXPR_LEN = 64      # defer fused expressions only up to this length

# Conditional guard templates: (left-operand count, format string).
# `{a}` is the value under the top (or the sole operand), `{b}` the top.
_COND_EXPRS = {
    Op.IF_ICMPLT: (2, "{a} < {b}"),
    Op.IF_ICMPGE: (2, "{a} >= {b}"),
    Op.IF_ICMPEQ: (2, "{a} == {b}"),
    Op.IF_ICMPNE: (2, "{a} != {b}"),
    Op.IF_ICMPLE: (2, "{a} <= {b}"),
    Op.IF_ICMPGT: (2, "{a} > {b}"),
    Op.IFEQ: (1, "{a} == 0"),
    Op.IFNE: (1, "{a} != 0"),
    Op.IFLT: (1, "{a} < 0"),
    Op.IFLE: (1, "{a} <= 0"),
    Op.IFGT: (1, "{a} > 0"),
    Op.IFGE: (1, "{a} >= 0"),
    Op.IF_ACMPEQ: (2, "{a} is {b}"),
    Op.IF_ACMPNE: (2, "{a} is not {b}"),
    Op.IFNULL: (1, "{a} is None"),
    Op.IFNONNULL: (1, "{a} is not None"),
}


class LowerError(Exception):
    """Codegen declines the trace or block: an instruction with no
    template, or a trace its blocks' successors contradict."""


@dataclass(slots=True)
class LoweredTrace:
    """Output of :func:`lower` and :func:`lower_block`: source text
    plus its constant pool."""

    source: str
    consts: list          # objects bound to C0..Cn (positional)
    guard_count: int

    @property
    def key(self) -> str:
        """Structural code-cache key (the source *is* the structure)."""
        return self.source


class _Value:
    """One virtual-stack entry: a pure Python expression.

    `simple` entries (literals, ``locals_[i]`` reads, temps) may be
    duplicated or referenced several times; compound entries are fused
    into exactly one consumer.  `slots` lists the local indices the
    expression reads, so stores can force materialization first.
    `bounds` is an inclusive integer interval when the value is an int
    with known range (drives wrap elision).
    """

    __slots__ = ("expr", "simple", "slots", "bounds")

    def __init__(self, expr: str, simple: bool, slots: frozenset = frozenset(),
                 bounds: tuple | None = None) -> None:
        self.expr = expr
        self.simple = simple
        self.slots = slots
        self.bounds = bounds


_EMPTY = frozenset()


def _int_literal(value: int) -> _Value:
    return _Value(repr(value), True, _EMPTY, (value, value))


def _float_literal(value: float) -> _Value:
    if value != value:
        return _Value('float("nan")', True)
    if value in (float("inf"), float("-inf")):
        sign = "-" if value < 0 else ""
        return _Value(f'float("{sign}inf")', True)
    text = repr(value)
    if value == 0.0 and str(value)[0] == "-":
        text = "-0.0"
    return _Value(text, True)


def _in_int_range(lo: int, hi: int) -> bool:
    return INT_MIN <= lo and hi <= INT_MAX


def _wrap(expr: str) -> str:
    """``wrap_int(expr)`` as inline arithmetic (no call).  `expr` must
    bind at least as tightly as ``+`` (an atom or parenthesized)."""
    return f"(({expr} + 2147483648 & 4294967295) - 2147483648)"


class _Emitter:
    """Accumulates generated statements, temps, and constant slots."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.vstack: list[_Value] = []
        self.consts: list = []
        self._const_slot: dict[int, str] = {}
        self._temps = 0
        self.guard_count = 0
        self.uses_stack = False
        self.uses_frames = False

    # -- plumbing ------------------------------------------------------
    def emit(self, line: str, indent: int = 1) -> None:
        self.lines.append("    " * indent + line)

    def const(self, obj) -> str:
        """A symbolic name (C0, C1, ...) bound to `obj` at install time."""
        slot = self._const_slot.get(id(obj))
        if slot is None:
            slot = f"C{len(self.consts)}"
            self._const_slot[id(obj)] = slot
            self.consts.append(obj)
        return slot

    def temp(self, expr: str, bounds: tuple | None = None) -> _Value:
        name = f"t{self._temps}"
        self._temps += 1
        self.emit(f"{name} = {expr}")
        return _Value(name, True, _EMPTY, bounds)

    # -- virtual stack -------------------------------------------------
    def push(self, value: _Value) -> None:
        self.vstack.append(value)

    def pop(self) -> _Value:
        """Pop the virtual stack, falling back to the real stack when
        the trace consumes operands that were live at entry."""
        if self.vstack:
            return self.vstack.pop()
        self.uses_stack = True
        return self.temp("_pop()", _INT_RANGE)

    def need(self, count: int) -> None:
        """Ensure at least `count` virtual entries, pulling deeper
        real-stack values into temps (bottom of vstack = deepest)."""
        while len(self.vstack) < count:
            self.uses_stack = True
            self.vstack.insert(0, self.temp("_pop()", _INT_RANGE))

    def materialize(self, value: _Value) -> _Value:
        """Force `value` into a multi-use-safe form (temp)."""
        if value.simple:
            return value
        return self.temp(value.expr, value.bounds)

    def spill_slot(self, slot: int) -> None:
        """A store to local `slot` is coming: capture any deferred
        expression reading it."""
        for i, value in enumerate(self.vstack):
            if slot in value.slots:
                self.vstack[i] = self.temp(value.expr, value.bounds)

    def flush_lines(self) -> list[str]:
        """Statements that push every virtual entry onto the real stack
        (bottom first) — the state a side exit must leave behind."""
        self.uses_stack = self.uses_stack or bool(self.vstack)
        return [f"_push({v.expr})" for v in self.vstack]

    def flush_and_clear(self) -> None:
        """Flush the virtual stack to the real stack and empty it —
        required before any frame switch, because the values belong to
        the frame being left and must be physically present when
        execution returns to (or unwinds through) it."""
        for line in self.flush_lines():
            self.emit(line)
        del self.vstack[:]

    def frame_switch(self) -> None:
        """Re-point the working bindings at the new top frame.  The
        virtual stack must already be empty (flushed or discarded)."""
        self.uses_frames = True
        self.uses_stack = True
        self.emit("frame = frames[-1]")
        self.emit("stack = frame.stack")
        self.emit("locals_ = frame.locals")
        self.emit("_push = stack.append")
        self.emit("_pop = stack.pop")

    def defer(self, expr: str, operands: tuple, bounds: tuple | None = None,
              raising: bool = False) -> None:
        """Push a fused expression, materializing when it grows too
        large or may raise (raising ops must evaluate in order)."""
        slots = _EMPTY
        for operand in operands:
            slots = slots | operand.slots
        value = _Value(expr, False, slots, bounds)
        if raising or len(expr) > _MAX_EXPR_LEN:
            value = self.temp(expr, bounds)
        self.push(value)


def lower(trace) -> LoweredTrace | None:
    """Lower `trace` to a ``trace_fn``, or None when codegen declines
    it: a one-block trace, a block sequence that contradicts a block's
    own successor, or an instruction with no template (those traces
    keep running block by block)."""
    try:
        return _lower(trace)
    except LowerError:
        return None


def lower_block(block) -> LoweredTrace | None:
    """Lower one basic block to a ``block_fn(machine)`` that does what
    ``execute_block(machine, block)`` does and returns the successor;
    None when the block has an instruction with no template."""
    em = _Emitter()
    em.emit(f"machine.instr_count += {block.length}")
    em.emit("if machine.instr_count > machine.max_instructions:")
    em.emit("raise StepLimitExceeded(", 2)
    em.emit('    f"exceeded {machine.max_instructions} instructions")', 2)
    try:
        _lower_block_exit(em, block, lambda successor: successor)
    except LowerError:
        return None
    head = [f"def {BLOCK_FN_NAME}(machine, {_defaults(em, [])}):"]
    frames = "machine.frames"
    if em.uses_frames:
        head.append("    frames = machine.frames")
        frames = "frames"
    uses = [name for name in ("locals_", "_push", "_pop")
            if any(name in line for line in em.lines)]
    if uses:
        head.append(f"    frame = {frames}[-1]")
    if "locals_" in uses:
        head.append("    locals_ = frame.locals")
    if "_push" in uses or "_pop" in uses:
        head.append("    stack = frame.stack")
    if "_push" in uses:
        head.append("    _push = stack.append")
    if "_pop" in uses:
        head.append("    _pop = stack.pop")
    source = "\n".join(head + em.lines) + "\n"
    return LoweredTrace(source=source, consts=em.consts, guard_count=0)


def _defaults(em: _Emitter, names: list) -> str:
    """The generated function's keyword defaults: `names`, the constant
    slots, and every helper the body references."""
    names = names + [f"C{i}" for i in range(len(em.consts))]
    names += sorted(name for name in HELPERS
                    if any(name in line for line in em.lines))
    return ", ".join(f"{n}={n}" for n in names)


def _lower(trace) -> LoweredTrace:
    blocks = trace.blocks
    if len(blocks) < 2:
        raise LowerError("a one-block trace is a lone block")
    em = _Emitter()
    charged = 0         # instructions in the blocks lowered so far
    for executed, block in enumerate(blocks[:-1], 1):
        charged += block.length
        _lower_trace_block(em, block, blocks[executed], executed, charged)

    # Completion: the final block runs inline through the block-exit
    # template.  The entry check already fitted the whole trace into
    # the step budget, so the tail only charges it.
    total = charged + blocks[-1].length
    count = len(blocks)
    em.emit(f"machine.instr_count += {total}")
    _lower_block_exit(em, blocks[-1],
                      lambda successor: f"{count}, {successor}, True")

    names = ["EXITS", "EXIT_TOTAL", "StepLimitAhead"]
    head = [
        f"def {TRACE_FN_NAME}(machine, frame, stack, locals_,",
        f"             {_defaults(em, names)}):",
        f"    if machine.instr_count + {total} > machine.max_instructions:",
        "        raise StepLimitAhead",
    ]
    if em.uses_frames:
        head.append("    frames = machine.frames")
    if em.uses_stack:
        head.append("    _push = stack.append")
        head.append("    _pop = stack.pop")
    source = "\n".join(head + em.lines) + "\n"
    return LoweredTrace(source=source, consts=em.consts,
                        guard_count=em.guard_count)


def _lower_body(em: _Emitter, block):
    """Lower every instruction of `block` before its terminator (all of
    them for a fall-through block); returns the terminator."""
    code = block.method.code
    end = block.end if block.kind == KIND_FALL else block.end - 1
    for index in range(block.start, end):
        _lower_simple(em, code[index])
    return code[block.end - 1]


# ----------------------------------------------------------------------
# Block exits: a lone block, or the final block of a trace

def _lower_block_exit(em: _Emitter, block, done) -> None:
    """Lower `block` in full, every path ending in
    ``return done(successor)``, with the effects and errors of
    ``execute_block`` past its charge and step check."""
    term = _lower_body(em, block)
    op = term.op
    kind = block.kind

    if kind == KIND_FALL or kind == KIND_GOTO:
        em.flush_and_clear()
        successor = block.succ_fall if kind == KIND_FALL \
            else block.succ_target
        em.emit(f"return {done(em.const(successor))}")
    elif kind == KIND_COND:
        cond = _pop_cond(em, op)
        em.flush_and_clear()
        taken = em.const(block.succ_target)
        fall = em.const(block.succ_fall)
        em.emit(f"return {done(f'{taken} if {cond} else {fall}')}")
    elif kind == KIND_SWITCH:
        em.need(1)
        value = em.pop()
        em.flush_and_clear()
        offset = em.temp(f"{value.expr} - {term.a[0]}")
        targets = em.const(block.switch_blocks)
        em.emit(f"if 0 <= {offset.expr} < {len(block.switch_blocks)}:")
        em.emit(f"return {done(f'{targets}[{offset.expr}]')}", 2)
        em.emit(f"return {done(em.const(block.switch_default))}")
    elif kind == KIND_INVOKE and type(term.a) is NativeMethod:
        _lower_native(em, term.a, term.b)
        em.flush_and_clear()
        em.emit(f"return {done(em.const(block.continuation))}")
    elif kind == KIND_INVOKE and op is not Op.INVOKEVIRTUAL:
        _push_frame(em, op, term.a, term.b, block.continuation)
        em.emit(f"return {done(em.const(term.a.entry_block))}")
    elif kind == KIND_INVOKE:
        target = _push_virtual_frame(em, term.a, term.b,
                                     block.continuation)
        em.emit(f"return {done(f'{target}.entry_block')}")
    elif kind == KIND_RETURN:
        value = None
        if op is not Op.RETURN:
            em.need(1)
            value = em.pop()
        # The rest of the virtual stack belongs to the frame being
        # popped, which nothing can reach afterwards.
        del em.vstack[:]
        em.uses_frames = True
        popped = em.temp("frames.pop()")
        em.emit("if not frames:")
        result = value.expr if value is not None else "None"
        em.emit(f"machine.result = {result}", 2)
        em.emit(f"return {done('None')}", 2)
        if value is not None:
            em.emit(f"frames[-1].stack.append({value.expr})")
        em.emit(f"return {done(f'{popped.expr}.return_block')}")
    elif kind == KIND_THROW:
        em.need(1)
        exc = em.pop()
        # Unwinding clears the operand stack of the frame that catches
        # and drops every frame it pops, so the rest of the virtual
        # stack is dead either way.
        del em.vstack[:]
        handler = f"_throw(machine, {exc.expr}, {block.end - 1})"
        em.emit(f"return {done(handler)}")
    else:
        raise LowerError(f"block kind {kind!r} not lowered")


# ----------------------------------------------------------------------
# Guards: every block of a trace but its last

def _lower_trace_block(em: _Emitter, block, expected, executed: int,
                       charged: int) -> None:
    """Lower `block`, after which the trace continues at `expected`:
    the body, then the terminator as what keeps execution on the trace.
    A side exit leaves after `executed` blocks and `charged`
    instructions."""
    term = _lower_body(em, block)
    op = term.op
    kind = block.kind
    if kind == KIND_FALL:
        _expect(block.succ_fall, expected)
    elif kind == KIND_GOTO:
        _expect(block.succ_target, expected)
    elif kind == KIND_COND:
        cond = _pop_cond(em, op)
        # The guard fails when the branch goes the other way, so the
        # side-exit successor is statically known.
        if block.succ_target is expected:
            em.emit(f"if not ({cond}):")
            actual = block.succ_fall
        elif block.succ_fall is expected:
            em.emit(f"if {cond}:")
            actual = block.succ_target
        else:
            raise LowerError("neither branch continues the trace")
        _side_exit(em, executed, charged, em.const(actual))
    elif kind == KIND_SWITCH:
        _lower_guard_switch(em, block, term, expected, executed, charged)
    elif kind == KIND_INVOKE and type(term.a) is NativeMethod:
        # Natives run inline; control continues in this frame.
        _expect(block.continuation, expected)
        _lower_native(em, term.a, term.b)
    elif kind == KIND_INVOKE and op is not Op.INVOKEVIRTUAL:
        # Static and special calls have one callee: nothing to guard.
        _expect(term.a.entry_block, expected)
        _push_frame(em, op, term.a, term.b, block.continuation)
        em.frame_switch()
    elif kind == KIND_INVOKE:
        # The callee depends on the receiver: guard its entry block.
        target = _push_virtual_frame(em, term.a, term.b,
                                     block.continuation)
        em.frame_switch()
        em.emit(f"if {target}.entry_block is not {em.const(expected)}:")
        _side_exit(em, executed, charged, f"{target}.entry_block")
    elif kind == KIND_RETURN:
        _lower_guard_return(em, op, expected, executed, charged)
    elif kind == KIND_THROW:
        # Unwind via the interpreter's `_throw`; guard the handler.
        em.need(1)
        exc = em.pop()
        em.flush_and_clear()
        handler = em.temp(f"_throw(machine, {exc.expr}, {block.end - 1})")
        em.frame_switch()
        em.emit(f"if {handler.expr} is not {em.const(expected)}:")
        _side_exit(em, executed, charged, handler.expr)
    else:
        raise LowerError(f"block kind {kind!r} not lowered")


def _expect(successor, expected) -> None:
    """Decline a trace whose next block is not the only successor its
    block has (the trace contradicts the program)."""
    if successor is not expected:
        raise LowerError(f"successor {successor} is off the trace")


def _side_exit(em: _Emitter, executed: int, charged: int,
               successor: str) -> None:
    """The failure branch of the guard just emitted: restore the
    operand stack, count the exit, charge the blocks run, return."""
    for line in em.flush_lines():
        em.emit(line, 2)
    em.emit(f"EXITS[{em.guard_count}] += 1", 2)
    em.emit("EXIT_TOTAL[0] += 1", 2)
    em.emit(f"machine.instr_count += {charged}", 2)
    em.emit(f"return {executed}, {successor}, False", 2)
    em.guard_count += 1


def _pop_cond(em: _Emitter, op) -> str:
    """Pop a conditional branch's operands; returns its condition."""
    arity, template = _COND_EXPRS[op]
    em.need(arity)
    if arity == 1:
        return template.format(a=em.pop().expr)
    b = em.pop()
    a = em.pop()
    return template.format(a=a.expr, b=b.expr)


def _lower_guard_switch(em: _Emitter, block, term, expected,
                        executed: int, charged: int) -> None:
    value = em.materialize(em.pop())
    targets = em.const(block.switch_blocks)
    default = em.const(block.switch_default)
    expected = em.const(expected)
    offset = em.temp(f"{value.expr} - {term.a[0]}")
    actual = f"t{em._temps}"
    em._temps += 1
    em.emit(f"if 0 <= {offset.expr} < {len(block.switch_blocks)}:")
    em.emit(f"{actual} = {targets}[{offset.expr}]", 2)
    em.emit("else:")
    em.emit(f"{actual} = {default}", 2)
    em.emit(f"if {actual} is not {expected}:")
    _side_exit(em, executed, charged, actual)


def _lower_guard_return(em: _Emitter, op, expected, executed: int,
                        charged: int) -> None:
    """Return: pop the frame; the continuation block is guarded.  The
    return value re-enters the caller's *virtual* stack (the side exit
    flushes it, matching the returning block's eager append)."""
    value = None
    if op is not Op.RETURN:
        em.need(1)
        value = _capture(em, em.pop())
    # Anything left on the virtual stack belongs to the frame being
    # discarded; the block path leaves it in the popped Frame object,
    # which nothing can reach — dropping it is equivalent.
    del em.vstack[:]
    em.uses_frames = True
    popped = em.temp("frames.pop()")
    em.emit("if not frames:")
    result = value.expr if value is not None else "None"
    em.emit(f"machine.result = {result}", 2)
    em.emit(f"machine.instr_count += {charged}", 2)
    em.emit(f"return {executed}, None, False", 2)
    em.frame_switch()
    if value is not None:
        em.push(value)
    em.emit(f"if {popped.expr}.return_block is not {em.const(expected)}:")
    _side_exit(em, executed, charged, f"{popped.expr}.return_block")


# ----------------------------------------------------------------------
# Calls and natives (frame effects shared by trace blocks and exits)

def _take_args(em: _Emitter, argc: int) -> list:
    """The top `argc` virtual entries in stack order (bottom first)."""
    em.need(argc)
    if not argc:
        return []
    entries = em.vstack[len(em.vstack) - argc:]
    del em.vstack[len(em.vstack) - argc:]
    return entries


def _capture(em: _Emitter, value: _Value) -> _Value:
    """Force `value` into a temp unless it is frame-independent — its
    expression must stay valid after `locals_` rebinds to a new frame."""
    if value.slots or not value.simple:
        return em.temp(value.expr, value.bounds)
    return value


def _push_frame(em: _Emitter, op, target, argc: int,
                continuation) -> None:
    """INVOKESTATIC / INVOKESPECIAL: push the callee's frame
    (deterministic callee, so no guard)."""
    entries = _take_args(em, argc)
    target = em.const(target)
    arg_exprs = [e.expr for e in entries]
    if op is Op.INVOKESPECIAL:
        receiver = em.materialize(em.pop())
        em.emit(f"if {receiver.expr} is None:")
        em.emit(f'raise VMRuntimeError(f"invokespecial '
                f'{{{target}.qualified_name}} on null")', 2)
        arg_exprs = [receiver.expr] + arg_exprs
    em.flush_and_clear()
    em.uses_frames = True
    cont = em.const(continuation)
    em.emit(f"frames.append(Frame({target}, "
            f"[{', '.join(arg_exprs)}], {cont}))")


def _push_virtual_frame(em: _Emitter, name: str, argc: int,
                        continuation) -> str:
    """INVOKEVIRTUAL: vtable dispatch and the callee's frame; returns
    the expression naming the resolved method."""
    entries = _take_args(em, argc)
    receiver = em.materialize(em.pop())
    em.emit(f"if {receiver.expr} is None:")
    em.emit(f'raise VMRuntimeError("invokevirtual {name!r} '
            f'on null receiver")', 2)
    target = em.temp(f"{receiver.expr}.rtclass.vtable.get({name!r})")
    em.emit(f"if {target.expr} is None:")
    em.emit(f'raise VMRuntimeError(f"no virtual method {name!r} on '
            f'{{{receiver.expr}.rtclass.name}}")', 2)
    em.flush_and_clear()
    em.uses_frames = True
    cont = em.const(continuation)
    args = ", ".join([receiver.expr] + [e.expr for e in entries])
    em.emit(f"frames.append(Frame({target.expr}, [{args}], {cont}))")
    return target.expr


def _lower_native(em: _Emitter, target, argc: int) -> None:
    """Native call: executes inline, no frame push.  Natives see only
    the machine and their argument list, so the caller's virtual stack
    can stay deferred across the call."""
    native = em.const(target)
    entries = _take_args(em, argc)
    args = ", ".join(e.expr for e in entries)
    call = f"{native}.fn(machine, [{args}])"
    if target.returns_value:
        em.push(em.temp(call))
    else:
        em.emit(call)


# ----------------------------------------------------------------------
# Simple ops

def _binary_int(em: _Emitter, symbol: str) -> None:
    """IADD/ISUB/IMUL with interval-based wrap elision."""
    em.need(2)
    b = em.pop()
    a = em.pop()
    bounds = None
    if a.bounds is not None and b.bounds is not None:
        alo, ahi = a.bounds
        blo, bhi = b.bounds
        if symbol == "+":
            lo, hi = alo + blo, ahi + bhi
        elif symbol == "-":
            lo, hi = alo - bhi, ahi - blo
        else:
            products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
            lo, hi = min(products), max(products)
        if _in_int_range(lo, hi):
            bounds = (lo, hi)
    if bounds is not None:
        em.defer(f"({a.expr} {symbol} {b.expr})", (a, b), bounds)
    else:
        em.defer(_wrap(f"({a.expr} {symbol} {b.expr})"), (a, b),
                 _INT_RANGE)


def _bitwise(em: _Emitter, symbol: str) -> None:
    """IAND/IOR/IXOR: closed over Java ints, never need a wrap."""
    em.need(2)
    b = em.pop()
    a = em.pop()
    bounds = _INT_RANGE
    if symbol == "&":
        hi = INT_MAX
        nonneg = False
        for operand in (a, b):
            if operand.bounds is not None and operand.bounds[0] >= 0:
                nonneg = True
                hi = min(hi, operand.bounds[1])
        if nonneg:
            bounds = (0, hi)
    em.defer(f"({a.expr} {symbol} {b.expr})", (a, b), bounds)


def _helper_binary(em: _Emitter, helper: str, raising: bool) -> None:
    em.need(2)
    b = em.pop()
    a = em.pop()
    em.defer(f"{helper}({a.expr}, {b.expr})", (a, b), _INT_RANGE,
             raising=raising)


def _null_check(em: _Emitter, value: _Value, message: str) -> None:
    em.emit(f"if {value.expr} is None:")
    em.emit(f"raise VMRuntimeError({message})", 2)


def _lower_simple(em: _Emitter, instr) -> None:
    op = instr.op
    if op is Op.ILOAD:
        em.push(_Value(f"locals_[{instr.a}]", True,
                       frozenset((instr.a,)), _INT_RANGE))
    elif op is Op.FLOAD or op is Op.ALOAD:
        em.push(_Value(f"locals_[{instr.a}]", True,
                       frozenset((instr.a,))))
    elif op is Op.ICONST:
        em.push(_int_literal(instr.a))
    elif op is Op.FCONST:
        em.push(_float_literal(instr.a))
    elif op is Op.SCONST:
        em.push(_Value(repr(instr.a), True))
    elif op is Op.ACONST_NULL:
        em.push(_Value("None", True))
    elif op is Op.ISTORE or op is Op.FSTORE or op is Op.ASTORE:
        value = em.pop()
        em.spill_slot(instr.a)
        em.emit(f"locals_[{instr.a}] = {value.expr}")
    elif op is Op.IINC:
        em.spill_slot(instr.a)
        em.emit(f"locals_[{instr.a}] = "
                + _wrap(f"(locals_[{instr.a}] + {instr.b})"))
    elif op is Op.IADD:
        _binary_int(em, "+")
    elif op is Op.ISUB:
        _binary_int(em, "-")
    elif op is Op.IMUL:
        _binary_int(em, "*")
    elif op is Op.IDIV:
        _helper_binary(em, "java_idiv", raising=True)
    elif op is Op.IREM:
        _helper_binary(em, "java_irem", raising=True)
    elif op is Op.INEG:
        a = em.pop()
        if a.bounds is not None and a.bounds[0] > INT_MIN:
            em.defer(f"(-{a.expr})", (a,), (-a.bounds[1], -a.bounds[0]))
        else:
            em.defer(_wrap(f"(-{a.expr})"), (a,), _INT_RANGE)
    elif op is Op.IAND:
        _bitwise(em, "&")
    elif op is Op.IOR:
        _bitwise(em, "|")
    elif op is Op.IXOR:
        _bitwise(em, "^")
    elif op is Op.ISHL:
        _helper_binary(em, "java_ishl", raising=False)
    elif op is Op.ISHR:
        # Arithmetic shift of a Java int stays in range: no wrap.
        em.need(2)
        b = em.pop()
        a = em.pop()
        em.defer(f"({a.expr} >> ({b.expr} & 31))", (a, b), _INT_RANGE)
    elif op is Op.IUSHR:
        _helper_binary(em, "java_iushr", raising=False)
    elif op is Op.FADD or op is Op.FSUB or op is Op.FMUL:
        symbol = {Op.FADD: "+", Op.FSUB: "-", Op.FMUL: "*"}[op]
        em.need(2)
        b = em.pop()
        a = em.pop()
        em.defer(f"({a.expr} {symbol} {b.expr})", (a, b))
    elif op is Op.FDIV:
        em.need(2)
        b = em.pop()
        a = em.pop()
        em.defer(f"java_fdiv({a.expr}, {b.expr})", (a, b))
    elif op is Op.FNEG:
        a = em.pop()
        em.defer(f"(-{a.expr})", (a,))
    elif op is Op.FCMPL or op is Op.FCMPG:
        nan = -1 if op is Op.FCMPL else 1
        em.need(2)
        b = em.pop()
        a = em.pop()
        em.defer(f"fcmp({a.expr}, {b.expr}, {nan})", (a, b), (-1, 1))
    elif op is Op.I2F:
        a = em.pop()
        em.defer(f"float({a.expr})", (a,))
    elif op is Op.F2I:
        a = em.pop()
        em.defer(f"java_f2i({a.expr})", (a,), _INT_RANGE)
    elif op is Op.DUP:
        em.need(1)
        top = em.materialize(em.pop())
        em.push(top)
        em.push(top)
    elif op is Op.DUP_X1:
        em.need(2)
        top = em.materialize(em.pop())
        under = em.pop()
        em.push(top)
        em.push(under)
        em.push(top)
    elif op is Op.POP:
        # Virtual entries are pure: dropping one drops dead code.  An
        # empty virtual stack pops the real stack (inside em.pop).
        em.pop()
    elif op is Op.SWAP:
        em.need(2)
        b = em.pop()
        a = em.pop()
        em.push(b)
        em.push(a)
    elif op is Op.IALOAD or op is Op.FALOAD or op is Op.AALOAD:
        em.need(2)
        i = em.pop()
        arr = em.materialize(em.pop())
        _null_check(em, arr, '"array load through null"')
        em.push(em.temp(
            f"{arr.expr}.data[{arr.expr}.check_index({i.expr})]",
            _INT_RANGE if op is Op.IALOAD else None))
    elif op is Op.IASTORE or op is Op.FASTORE or op is Op.AASTORE:
        em.need(3)
        value = em.pop()
        i = em.pop()
        arr = em.materialize(em.pop())
        _null_check(em, arr, '"array store through null"')
        em.emit(f"{arr.expr}.data[{arr.expr}.check_index({i.expr})] "
                f"= {value.expr}")
    elif op is Op.GETFIELD:
        em.need(1)
        obj = em.materialize(em.pop())
        _null_check(em, obj, f'"getfield {instr.a!r} on null"')
        em.push(em.temp(f"{obj.expr}.fields[{instr.a!r}]", _INT_RANGE))
    elif op is Op.PUTFIELD:
        em.need(2)
        value = em.pop()
        obj = em.materialize(em.pop())
        _null_check(em, obj, f'"putfield {instr.a!r} on null"')
        em.emit(f"if {instr.a!r} not in {obj.expr}.fields:")
        em.emit(f'raise VMRuntimeError(f"no field {instr.a!r} on '
                f'{{{obj.expr}.rtclass.name}}")', 2)
        em.emit(f"{obj.expr}.fields[{instr.a!r}] = {value.expr}")
    elif op is Op.GETSTATIC:
        owner, fname = instr.a
        slot = em.const(owner)
        em.push(em.temp(f"{slot}.statics[{fname!r}]", _INT_RANGE))
    elif op is Op.PUTSTATIC:
        owner, fname = instr.a
        slot = em.const(owner)
        value = em.pop()
        em.emit(f"{slot}.statics[{fname!r}] = {value.expr}")
    elif op is Op.NEW:
        slot = em.const(instr.a)
        em.push(em.temp(f"ObjRef({slot})"))
    elif op is Op.NEWARRAY:
        em.need(1)
        length = em.pop()
        em.push(em.temp(f"ArrayRef({instr.a!r}, {length.expr})"))
    elif op is Op.ARRAYLENGTH:
        em.need(1)
        arr = em.materialize(em.pop())
        _null_check(em, arr, '"arraylength of null"')
        em.push(em.temp(f"len({arr.expr}.data)", (0, INT_MAX)))
    elif op is Op.INSTANCEOF:
        em.need(1)
        obj = em.materialize(em.pop())
        slot = em.const(instr.a)
        em.push(em.temp(
            f"(1 if isinstance({obj.expr}, ObjRef) "
            f"and {obj.expr}.rtclass.is_subclass_of({slot}) else 0)",
            (0, 1)))
    elif op is Op.NOP:
        pass
    else:
        raise LowerError(f"simple op {op.name} not lowered")
