"""Live observability: watch the trace cache work, export artifacts.

Runs a branchy program under the trace-dispatching VM with the full
observability stack attached:

- a live subscriber printing trace-cache mutations as they happen,
- a JSONL event stream (``obs_events.jsonl``),
- a Chrome trace-event file (``obs_trace.json`` — open it in
  chrome://tracing or https://ui.perfetto.dev),
- periodic stable-schema snapshots.

Run:  python examples/live_observability.py
"""

from repro import VM, Observability

SOURCE = """
class Main {
    static int work(int x) {
        if ((x & 7) == 0) { return x * 3; }
        return x + 1;
    }

    static int main() {
        int total = 0;
        for (int outer = 0; outer < 300; outer = outer + 1) {
            for (int i = 0; i < 60; i = i + 1) {
                total = (total + work(i)) & 1048575;
            }
        }
        return total;
    }
}
"""


def main() -> None:
    obs = Observability(events_path="obs_events.jsonl",
                        chrome_trace_path="obs_trace.json",
                        snapshot_every=5_000)

    # A live subscriber: print cache mutations as they happen.
    def narrate(event):
        print(f"  [{event.seq:3d}] {event.kind:24s} {event.data}")
    obs.bus.subscribe(narrate, categories=["cache"])

    print("trace-cache mutations, live:")
    with VM(SOURCE, obs=obs, start_state_delay=64,
            optimize_traces=True) as vm:
        result = vm.run()

        print()
        print(f"program result : {result.value}")
        print(f"events emitted : {obs.bus.emitted} "
              f"({obs.bus.suppressed} suppressed unwatched)")
        print(f"snapshots taken: {obs.snapshots_taken}")

        snap = vm.snapshot()
        print(f"final snapshot : {snap['cache']['traces']} traces, "
              f"{snap['codegen']['traces_compiled']} compiled, "
              f"{snap['bcg']['nodes']} BCG nodes")

        timers = obs.timers
        print(f"phase seconds  : "
              f"construct={timers.seconds('construct') * 1000:.2f}ms, "
              f"codegen={timers.seconds('codegen') * 1000:.2f}ms, "
              f"dispatch={timers.dispatch_seconds() * 1000:.1f}ms")

    print()
    print("wrote obs_events.jsonl (JSONL event stream)")
    print("wrote obs_trace.json   (load in chrome://tracing / Perfetto)")


if __name__ == "__main__":
    main()
