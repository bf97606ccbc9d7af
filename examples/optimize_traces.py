"""Future-work walkthrough: compiling and executing traces.

Shows the pipeline the paper's conclusion sketches: the trace cache
forms a hot trace, codegen lowers it straight from its blocks into one
Python function with a guard at each branch, and the compiled form
executes with identical semantics.

Run:  python examples/optimize_traces.py
"""

from repro import TraceCacheConfig, compile_source, run_traced
from repro.opt import lower

SOURCE = """
class Main {
    static int main() {
        int total = 0;
        for (int i = 0; i < 4000; i = i + 1) {
            int x = i * 2 + 1;
            total = (total + x) & 65535;
        }
        return total;
    }
}
"""


def main() -> None:
    program = compile_source(SOURCE)

    # First run without optimization to let the trace cache form.
    plain = run_traced(program, TraceCacheConfig(start_state_delay=8,
                                                 decay_period=32))
    trace = plain.cache.hottest(1)[0]
    print(f"hottest trace: {len(trace.blocks)} blocks, "
          f"{trace.entries:,} entries\n")

    lowered = lower(trace)
    if lowered is None:
        print("codegen declined this trace; it runs block by block")
    else:
        print(f"--- generated source ({lowered.guard_count} guards) ---")
        print(lowered.source)
        print("--- constant slots, bound when the code is installed ---")
        for index, obj in enumerate(lowered.consts):
            print(f"  C{index} = {obj!r}")

    # Now run the whole program with compiled trace dispatch.
    optimized = run_traced(program, TraceCacheConfig(
        start_state_delay=8, decay_period=32, optimize_traces=True))
    assert optimized.value == plain.value
    assert optimized.stats.instr_total == plain.stats.instr_total
    stats = optimized.stats
    print("\n--- compiled run ---")
    print(f"result identical    : {optimized.value}")
    print(f"traces compiled     : {stats.codegen_traces_compiled}")
    print(f"lone blocks compiled: {stats.codegen_blocks_compiled}")
    print(f"guard side exits    : {stats.codegen_side_exits}")


if __name__ == "__main__":
    main()
