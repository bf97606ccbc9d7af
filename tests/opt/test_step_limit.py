"""The step limit stops a compiled trace exactly where it stops the
block path: same output, same instruction count."""

from __future__ import annotations

import pytest

import repro.core.controller as controller_module
from repro.core import TraceCacheConfig, TraceController
from repro.jvm import StepLimitExceeded, ThreadedInterpreter
from repro.jvm.threaded import Machine
from repro.lang import compile_source
from tests.conftest import int_main

# Every iteration prints, so running past the limit shows in the output.
PRINT_LOOP = int_main(
    "int s = 0;"
    "for (int i = 0; i < 1000; i = i + 1) {"
    "  s = (s + i) & 1023; Sys.print(s);"
    "}"
    "return s;")

NEVER = 10 ** 9     # a compile threshold no trace reaches


@pytest.fixture(scope="module")
def program():
    return compile_source(PRINT_LOOP)


def interpreted(program, limit: int) -> tuple:
    interp = ThreadedInterpreter(program, limit)
    with pytest.raises(StepLimitExceeded):
        interp.run()
    return interp.machine.output, interp.machine.instr_count


def traced(program, limit: int, monkeypatch, **config) -> tuple:
    """Output and instruction count where a VM stops at `limit`, and
    its controller."""
    machines = []

    class Recording(Machine):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            machines.append(self)

    monkeypatch.setattr(controller_module, "Machine", Recording)
    controller = TraceController(
        program, TraceCacheConfig(optimize_traces=True,
                                  start_state_delay=4, **config),
        max_instructions=limit)
    with pytest.raises(StepLimitExceeded,
                       match=f"exceeded {limit} instructions"):
        controller.run()
    machine = machines[-1]
    return (machine.output, machine.instr_count), controller


@pytest.mark.parametrize("iters", [1, 4], ids=["trace", "superblock"])
@pytest.mark.parametrize("limit", [1000, 2000, 3000])
def test_compiled_traces_stop_where_the_block_path_does(
        program, monkeypatch, limit, iters):
    expected = interpreted(program, limit)
    cold, _ = traced(program, limit, monkeypatch,
                     compile_threshold=NEVER, superblock_iters=iters)
    hot, controller = traced(program, limit, monkeypatch,
                             compile_threshold=1, superblock_iters=iters)
    assert controller.optimizer.codecache.stats.traces_compiled > 0
    grown = controller.cache.stats.superblocks_grown
    assert (grown > 0) == (iters > 1)
    assert cold == expected
    assert hot == expected
