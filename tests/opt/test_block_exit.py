"""Block-exit parity: generated block exits against ``execute_block``.

Every block a program dispatches runs from the same state on two
copies of the machine: once through ``execute_block`` and once through
its ``block_fn`` (:func:`repro.opt.codegen.lower_block`).  Both must
return the same successor and leave the same frames, operand stacks,
locals, heap, statics, output, instruction count and result — or
raise the same exception with the same message.  Each observed
``previous -> current`` pair is also run as a two-block compiled trace
whose final block is ``current``, against the two blocks interpreted.
"""

from __future__ import annotations

import copy

import pytest

from repro.core.trace import Trace
from repro.jvm import ThreadedInterpreter, execute_block
from repro.jvm.basicblock import (KIND_COND, KIND_FALL, KIND_GOTO,
                                  KIND_INVOKE, KIND_RETURN, KIND_SWITCH,
                                  KIND_THROW)
from repro.jvm.errors import StepLimitExceeded, VMRuntimeError
from repro.jvm.heap import ArrayRef, ObjRef
from repro.jvm.intrinsics import NativeMethod
from repro.jvm.threaded import Machine
from repro.lang import compile_source
from repro.opt import CodeCache, flatten, optimize
from repro.opt.codegen import HELPERS
from tests.conftest import int_main

# Every block kind and terminator family: fall-through and goto blocks
# (a ternary's goto carries an operand), int / float / reference / null
# conditionals, a tableswitch, static, special (constructor) and
# virtual calls, natives, void and value returns (the entry frame's
# too), and throws caught in the throwing frame and one frame up.
ALL_EXITS = """
    class Shape {
        int size;
        Shape(int s) { size = s; }
        int area() { return size * size; }
        void grow() { size = (size + 1) & 15; }
    }
    class Square extends Shape {
        Square(int s) { size = s; }
        int area() { return size * size + 1; }
    }
    class Main {
        static int acc;
        static float scale(float x) { return x * 1.5; }
        static int pick(int k) {
            int r = 0;
            switch (k & 3) {
                case 0: r = 5; break;
                case 1: r = 7; break;
                case 2: r = 11; break;
                default: r = 13;
            }
            return r;
        }
        static int risky(int i) {
            if (i % 5 == 0) { throw new Exception(); }
            return i;
        }
        static void bump(int by) { acc = (acc + by) & 65535; }
        static Shape first(Shape[] xs) { return xs[0]; }
        static int main() {
            Shape[] shapes = new Shape[3];
            shapes[0] = new Shape(2);
            shapes[1] = new Square(3);
            int[] data = new int[4];
            float f = 0.5;
            int total = 0;
            for (int i = 0; i < 30; i = i + 1) {
                Shape s = shapes[i % 3];
                if (s != null) { total = total + s.area(); s.grow(); }
                else { total = total - 1; }
                if (s == first(shapes)) { total = total + 2; }
                data[i & 3] = data[i & 3] + pick(i);
                if (f < 100.0) { f = scale(f); }
                try {
                    if (i % 7 == 0) { throw new Exception(); }
                    total = total ^ ((i << 3) >> 1);
                } catch (Exception e) { total = total + 100; }
                try { total = total + risky(i); }
                catch (Exception e) { total = total - 3; }
                total = (total + Sys.max(i, data[i & 3])) & 1048575;
                total = total + (i % 2 == 0 ? 3 : (total >> (i + 20)) & 7);
                if (s instanceof Square) { bump(i); }
            }
            Sys.print(total);
            return total + acc + data[1] + (int) f;
        }
    }
"""


def _shared_objects(program) -> dict:
    """A deepcopy memo that keeps program objects (classes, methods,
    blocks) shared between a machine and its copies."""
    memo = {id(program): program}
    for cls in program.classes.values():
        memo[id(cls)] = cls
    for method in program.methods:
        memo[id(method)] = method
    for block in program.blocks:
        memo[id(block)] = block
    return memo


def _copy_state(program, machine, shared: dict) -> tuple:
    """Frames, output, result, statics and instruction count, with a
    private copy of the heap."""
    statics = {name: cls.statics for name, cls in program.classes.items()}
    return copy.deepcopy(
        (machine.frames, machine.output, machine.result, statics),
        dict(shared)) + (machine.instr_count,)


def _canon(machine) -> tuple:
    """Machine state with heap references numbered in visiting order,
    so two copies of one state compare equal."""
    numbers: dict[int, int] = {}
    heap: list = []

    def value(v):
        if isinstance(v, (ObjRef, ArrayRef)):
            if id(v) not in numbers:
                numbers[id(v)] = len(heap)
                heap.append(v)
            return ("ref", numbers[id(v)])
        return (type(v).__name__, repr(v))

    frames = [(f.method, f.return_block, [value(x) for x in f.locals],
               [value(x) for x in f.stack]) for f in machine.frames]
    statics = [(name, sorted((k, value(v)) for k, v in cls.statics.items()))
               for name, cls in sorted(machine.classes.items())]
    result = value(machine.result)
    cells = []
    for obj in heap:            # grows while it is walked
        if isinstance(obj, ObjRef):
            cells.append((obj.rtclass, sorted(
                (k, value(v)) for k, v in obj.fields.items())))
        else:
            cells.append((obj.elem_type, [value(x) for x in obj.data]))
    return (frames, statics, result, cells, list(machine.output),
            machine.instr_count)


def _outcome(program, state, max_instructions: int, run) -> tuple:
    """`run(machine)` on a machine built from `state`: what it returned
    and the state it left, or the exception it raised."""
    frames, output, result, statics, instr_count = state
    clone = Machine(program, max_instructions)
    clone.frames, clone.output, clone.result = frames, output, result
    clone.instr_count = instr_count
    live = {name: cls.statics for name, cls in program.classes.items()}
    for name, cls in program.classes.items():
        cls.statics = statics[name]
    try:
        try:
            returned = run(clone)
        except (VMRuntimeError, ZeroDivisionError) as exc:
            return ("raise", type(exc), str(exc))
        return ("ok", returned, _canon(clone))
    finally:
        for name, cls in program.classes.items():
            cls.statics = live[name]


def _interpret_pair(first, second):
    """The block path of the trace ``(first, second)``: what a compiled
    trace must return as ``(blocks executed, successor)``."""
    def run(machine):
        nxt = execute_block(machine, first)
        if nxt is not second:
            return 1, nxt
        return 2, execute_block(machine, second)
    return run


def _call_trace(fn):
    def run(machine):
        frame = machine.frames[-1]
        executed, nxt, _completed = fn(machine, frame, frame.stack,
                                       frame.locals)
        return executed, nxt
    return run


class ParityRun:
    """A threaded-interpreter run that checks every dispatch against
    the generated block function and the two-block trace ending in
    it."""

    def __init__(self, program, max_instructions: int = 10 ** 7) -> None:
        self.program = program
        self.max_instructions = max_instructions
        self.cache = CodeCache()
        self.shared = _shared_objects(program)
        self.interp = ThreadedInterpreter(program, max_instructions)
        self.block_fns: dict = {}
        self.trace_fns: dict = {}
        self.block_kinds: set = set()
        self.tail_kinds: set = set()
        self.raised: list = []      # (type, message) both sides raised
        self._before = None         # two copies of the state before
                                    # the previous dispatch

    def run(self):
        return self.interp.run(dispatch_hook=self._check)

    def _same(self, state_pair, expected_run, got_run, where):
        expected = _outcome(self.program, state_pair[0],
                            self.max_instructions, expected_run)
        got = _outcome(self.program, state_pair[1],
                       self.max_instructions, got_run)
        assert got == expected, where
        if expected[0] == "raise":
            self.raised.append(expected[1:])

    def _check(self, previous, block) -> None:
        machine = self.interp.machine
        now = [_copy_state(self.program, machine, self.shared)
               for _ in range(4)]
        if block not in self.block_fns:
            self.block_fns[block] = self.cache.install_block(block)
        self._same(now[:2], lambda m: execute_block(m, block),
                   self.block_fns[block], block)
        self.block_kinds.add(_exit_kind(block))

        before, self._before = self._before, now[2:]
        if previous is None or before is None:
            return
        key = (previous, block)
        if key not in self.trace_fns:
            compiled = flatten(Trace(key, (), 1.0, serial=0))
            optimize(compiled)
            self.trace_fns[key] = self.cache.install(compiled)
        self._same(before, _interpret_pair(previous, block),
                   _call_trace(self.trace_fns[key]), key)
        self.tail_kinds.add(_exit_kind(block))


def _exit_kind(block) -> str:
    term = block.method.code[block.end - 1]
    if block.kind == KIND_INVOKE and type(term.a) is NativeMethod:
        return "native"
    if block.kind == KIND_INVOKE or block.kind == KIND_RETURN:
        return term.op.name.lower()
    return block.kind


EXIT_KINDS = {KIND_FALL, KIND_GOTO, KIND_COND, KIND_SWITCH, KIND_THROW,
              "invokestatic", "invokespecial", "invokevirtual", "native",
              "return", "ireturn", "freturn", "areturn"}


@pytest.fixture(scope="module")
def all_exits():
    run = ParityRun(compile_source(ALL_EXITS))
    machine = run.run()
    return run, machine


class TestBlockExitParity:
    def test_every_block_exit_matches_execute_block(self, all_exits):
        run, machine = all_exits
        assert machine.result is not None       # ran to the end
        assert run.block_kinds >= EXIT_KINDS

    def test_every_trace_tail_matches_the_block_path(self, all_exits):
        run, _machine = all_exits
        assert run.tail_kinds >= EXIT_KINDS

    def test_generated_code_never_calls_execute_block(self, all_exits):
        run, _machine = all_exits
        sources = list(run.cache._code)
        assert any(src.startswith("def block_fn") for src in sources)
        assert any(src.startswith("def trace_fn") for src in sources)
        assert not any("execute_block" in src for src in sources)
        assert "execute_block" not in HELPERS


ERROR_CASES = {
    "null receiver": (int_main(
        "Box b = null; int s = 0;"
        "for (int i = 0; i < 3; i = i + 1) { s = s + i; }"
        "return s + b.get();"),
        "invokevirtual 'get' on null receiver"),
    "null array load": (int_main(
        "int[] a = null; return a[0];"), "array load through null"),
    "null array store": (int_main(
        "int[] a = null; a[1] = 2; return 0;"), "array store through null"),
    "index past the end": (int_main(
        "int[] a = new int[3]; return a[5];"),
        "array index 5 out of bounds for length 3"),
    "negative index": (int_main(
        "int[] a = new int[3]; a[0 - 1] = 4; return 0;"),
        "array index -1 out of bounds for length 3"),
}
BOX = "class Box { int get() { return 1; } }\n"


class TestBlockExitErrors:
    @pytest.mark.parametrize("case", sorted(ERROR_CASES))
    def test_same_error_and_message(self, case):
        source, message = ERROR_CASES[case]
        run = ParityRun(compile_source(BOX + source))
        with pytest.raises(VMRuntimeError, match=message):
            run.run()
        assert (VMRuntimeError, message) in run.raised

    def test_missing_virtual_method(self):
        program = compile_source("""
            class A { int f() { return 1; } }
            class B extends A { int f() { return 2; } }
            class Main {
                static int main() {
                    A a = new B();
                    return a.f();
                }
            }
        """)
        del program.classes["B"].vtable["f"]
        run = ParityRun(program)
        message = "no virtual method 'f' on B"
        with pytest.raises(VMRuntimeError, match=message):
            run.run()
        assert (VMRuntimeError, message) in run.raised

    @pytest.mark.parametrize("limit", [40, 333, 1500])
    def test_step_limit(self, limit):
        run = ParityRun(compile_source(ALL_EXITS), max_instructions=limit)
        message = f"exceeded {limit} instructions"
        with pytest.raises(StepLimitExceeded, match=message):
            run.run()
        assert (StepLimitExceeded, message) in run.raised
