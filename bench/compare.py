"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py A B

A and B are each a ``bench/run.py --out`` document or a directory of
them; a directory is a set of runs of the same code.  For each workload
and end-to-end metric this prints both medians over the set's runs, the
ratio B/A, each set's spread, the bound from BENCHMARK.json, and a
verdict:

- ``unresolved``: either set's spread exceeds the bound, so the sets
  cannot tell a change of that size from noise;
- ``worse`` / ``better``: B moved past the bound in that direction;
- ``within``: otherwise.

A set's spread is the IQR of its values as a share of their median:
over its runs when it has at least MIN_RUNS of them (run-to-run spread,
which includes the host's slow stretches), else over the children of
its runs.  Error rates must be equal.  A pair of sets whose
``machine.probe_s`` medians differ by more than 10% is flagged: the
host ran at a different speed during one of them.  Exit status 0 when
every metric is within and every error rate equal, else 1.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import ROOT, iqr_share, read_json

PROBE_TOLERANCE = 0.10
MIN_RUNS = 3


def load_set(path: Path) -> list[dict]:
    """The run documents of a set: one file, or every .json in a dir."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise OSError(f"{path}: no run documents")
    return [read_json(f) for f in files]


def set_metric(runs: list[dict], workload: str, name: str) -> dict | None:
    """Median and spread of one metric over a set's runs."""
    metrics = [r["workloads"][workload]["metrics"].get(name) for r in runs]
    if any(m is None for m in metrics):
        return None
    values = [m["value"] for m in metrics]
    if len(values) >= MIN_RUNS:
        spread, over = iqr_share(values), "runs"
    else:
        spread = iqr_share([v for m in metrics for v in m["per_child"]])
        over = "children"
    return {"value": statistics.median(values), "spread": spread or 0.0,
            "over": over}


def verdict(a: dict, b: dict, bound: float, better: str) -> tuple:
    ratio = b["value"] / a["value"]
    if max(a["spread"], b["spread"]) > bound:
        return ratio, "unresolved"
    worse = ratio > 1 + bound if better == "lower" else ratio < 1 - bound
    improved = ratio < 1 - bound if better == "lower" else ratio > 1 + bound
    return ratio, "worse" if worse else "better" if improved else "within"


def error_rate(runs: list[dict], workload: str) -> float:
    reports = [r["workloads"][workload] for r in runs]
    return sum(r["failed"] for r in reports) / \
        max(1, sum(r["attempted"] for r in reports))


def probe(runs: list[dict], workload: str) -> float | None:
    probes = [r["workloads"][workload].get("probe_s") for r in runs]
    probes = [p for p in probes if p]
    return statistics.median(probes) if probes else None


def compare(a_runs: list[dict], b_runs: list[dict], benchmark: dict) -> bool:
    """Print the comparison; True when the two sets agree."""
    agree = True
    print(f"A: {len(a_runs)} run(s), B: {len(b_runs)} run(s)")
    for workload in a_runs[0]["workloads"]:
        if any(workload not in r["workloads"] for r in a_runs + b_runs):
            print(f"{workload}: missing from a run")
            agree = False
            continue
        print(f"\n{workload}")
        pa, pb = probe(a_runs, workload), probe(b_runs, workload)
        if pa and pb and abs(pb / pa - 1) > PROBE_TOLERANCE:
            print(f"  host speed differs: machine.probe_s {pa:.4g} s vs "
                  f"{pb:.4g} s; treat verdicts with care")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            ma = set_metric(a_runs, workload, name)
            mb = set_metric(b_runs, workload, name)
            if ma is None or mb is None:
                print(f"  {name:22s} missing")
                agree = False
                continue
            ratio, word = verdict(ma, mb, metric["bound"], metric["better"])
            agree &= word == "within"
            print(f"  {name:22s} {ma['value']:12.5g} {mb['value']:12.5g} "
                  f"{metric['unit']:9s} x{ratio:6.3f}  "
                  f"spread {ma['spread']:5.1%} {mb['spread']:5.1%} "
                  f"({ma['over']})  bound {metric['bound']:.0%}  {word}")
        ea, eb = error_rate(a_runs, workload), error_rate(b_runs, workload)
        agree &= ea == eb
        print(f"  {'error_rate':22s} {ea:12.5g} {eb:12.5g} {'fraction':9s} "
              f"{'equal' if ea == eb else 'differs'}")
    return agree


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 bench/compare.py A B  (run documents or "
              "directories of them)", file=sys.stderr)
        return 2
    try:
        a_runs, b_runs = (load_set(Path(p)) for p in args)
        benchmark = read_json(ROOT / "BENCHMARK.json")
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0 if compare(a_runs, b_runs, benchmark) else 1


if __name__ == "__main__":
    sys.exit(main())
