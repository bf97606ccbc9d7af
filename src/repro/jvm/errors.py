"""Error hierarchy for the VM, linker, verifier and assembler."""

from __future__ import annotations


class VMError(Exception):
    """Base class for all errors raised by the repro JVM substrate."""


class LinkError(VMError):
    """A symbolic reference could not be resolved at link time."""


class VerifyError(VMError):
    """Bytecode failed static verification."""


class AssemblerError(VMError):
    """Malformed input to the method assembler (e.g. undefined label)."""


class VMRuntimeError(VMError):
    """An unrecoverable condition hit while executing bytecode."""


class StackUnderflowError(VMRuntimeError):
    """Operand stack popped while empty (only without verification)."""


class StepLimitExceeded(VMRuntimeError):
    """The interpreter exceeded its configured instruction budget."""


class StepLimitAhead(Exception):
    """Internal signal from a compiled trace, raised at entry before it
    changes any state: running the whole trace might cross the
    instruction budget.  Not a VMError: the trace dispatcher catches it
    and runs that dispatch block by block, which raises
    :class:`StepLimitExceeded` exactly where ``execute_block`` does."""


class VMThrow(Exception):
    """Internal unwinding carrier for an in-VM `athrow`.

    Not a VMError: it is caught by the dispatch loop and routed to an
    exception handler block, or converted to UncaughtVMException at the
    top of the frame stack.
    """

    def __init__(self, value):
        super().__init__(value)
        self.value = value


class UncaughtVMException(VMRuntimeError):
    """An in-VM exception propagated out of `main` without a handler."""

    def __init__(self, value):
        super().__init__(f"uncaught VM exception: {value!r}")
        self.value = value
