"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench

They run the real run.py on the cheapest workload (cold-many), so they
take about a minute.
"""

import json
import re
import subprocess
import sys

import pytest

import child
import compare
import plan
import run

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def bench(*args):
    return subprocess.run([sys.executable, str(run.BENCH / "run.py"), *args],
                          capture_output=True, text=True, cwd=run.ROOT,
                          timeout=600)


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def corrupt_expected(monkeypatch, tmp_path, key: str, field: str, value):
    """Point run.py at a copy of expected.json with one field changed."""
    expected = run.read_json(run.EXPECTED)
    expected["programs"][key][field] = value
    path = tmp_path / "expected.json"
    run.write_json(path, expected)
    monkeypatch.setattr(run, "EXPECTED", path)


@pytest.fixture(scope="module")
def declared() -> dict:
    """BENCHMARK.json."""
    return run.read_json(run.ROOT / "BENCHMARK.json")


@pytest.fixture(scope="module")
def cold_run():
    return bench("--workload", "cold-many", "--children", "1")


@pytest.fixture(scope="module")
def traced_run():
    return bench("--workload", "cold-many", "--trace", "1")


def test_one_child_cold_many_reports_every_metric(cold_run, declared):
    assert cold_run.returncode == 0, cold_run.stderr
    result = last_json(cold_run)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] == 48
    assert "error_rate 0" in cold_run.stdout
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_reference_counts_as_errors(monkeypatch, tmp_path, capsys):
    ref = run.read_json(run.EXPECTED)["programs"]["sootx/v1"]
    corrupt_expected(monkeypatch, tmp_path, "sootx/v1", "instructions",
                     ref["instructions"] + 1)
    status = run.main(["--workload", "cold-many", "--children", "1"])
    out = capsys.readouterr().out
    assert status == 1
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False
    # Every repetition of the one corrupted variant fails, nothing else.
    reps = plan.WORKLOADS["cold-many"].reps
    assert (result["failed"], result["attempted"]) == (reps, 48)
    assert f"error_rate {reps / 48:.4g}" in out


def test_source_hash_mismatch_exits_2_before_timing(monkeypatch, tmp_path,
                                                    capsys):
    corrupt_expected(monkeypatch, tmp_path, "javacx/paper", "source_sha256",
                     "0" * 64)
    status = run.main(["--workload", "cold-many"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert "javacx/paper" in captured.err


def test_missing_config_field_gives_null_rung(monkeypatch):
    fields = plan.config_fields()
    rungs = {name: reason for name, _, reason
             in plan.ladder_rungs(fields - {"trace_linking"})}
    assert "trace_linking" in rungs.pop("compiled")
    assert set(rungs.values()) == {None}
    # Without optimize_traces the end-to-end config is the defaults.
    assert plan.e2e_overrides(fields - {"optimize_traces"}) == {}
    rungs = {name: (overrides, reason) for name, overrides, reason
             in plan.ladder_rungs(fields - {"optimize_traces"})}
    assert rungs["full"] == rungs["warm"] == ({}, None)

    def fake_child(spec):
        jobs = [{"key": k, "runs": [{"s": 0.5, "instructions": 9}],
                 "failed": 0, "errors": [], "job_s": 1.0, "first_s": 0.5}
                for k in spec["order"]]
        return {"setup_s": 0.1, "jobs": jobs, "probe_s": [0.001],
                "peak_rss_kb": 1024, "spans": [],
                "store": child.new_store_totals()}

    monkeypatch.setattr(plan, "config_fields",
                        lambda: fields - {"trace_linking"})
    monkeypatch.setattr(run, "run_child", fake_child)
    refs = run.read_json(run.EXPECTED)["programs"]
    report, _ = run.run_traced(plan.WORKLOADS["hot-loops"], 0, refs, None)
    compiled = report["metrics"]["ladder.compiled_s"]
    assert compiled["value"] is None
    assert "trace_linking" in compiled["reason"]
    assert report["metrics"]["ladder.linked_s"]["value"] == 3.0
    # The fake full rung saved no profile, so the warm rung has none to
    # load, not even one left by an earlier run.
    warm = report["metrics"]["ladder.warm_s"]
    assert warm["value"] is None
    assert "full rung" in warm["reason"]


def test_benchmark_names_match_what_run_prints(declared, cold_run,
                                               traced_run):
    names = [w["name"] for w in declared["workloads"]] + \
        [m["name"] for m in declared["end_to_end"]] + \
        [m["name"] for m in declared["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in declared["workloads"]] == list(plan.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == list(run.PER_LAYER)
    assert list(last_json(cold_run)["metrics"]) == \
        [m["name"] for m in declared["end_to_end"]]
    assert traced_run.returncode == 0, traced_run.stderr
    traced = last_json(traced_run)
    assert traced["correct"] is True
    assert list(traced["metrics"]) == \
        [m["name"] for m in declared["per_layer"]]
    for name, metric in traced["metrics"].items():
        assert metric["value"] is not None, name
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def run_doc(value: float, per_child: list) -> dict:
    """A run document with one workload and one metric."""
    return {"workloads": {"cold-many": {
        "metrics": {"minstr_per_s": {"value": value, "unit": "Minstr/s",
                                     "per_child": per_child}},
        "attempted": 48, "failed": 0, "probe_s": 0.001}}}


def test_compare_uses_run_to_run_spread(tmp_path, capsys):
    benchmark = {"end_to_end": [{"name": "minstr_per_s", "unit": "Minstr/s",
                                 "better": "higher", "bound": 0.1}]}
    steady = [5.0, 5.0, 5.0]
    # Children that agree, runs that do not: one slow run of three.
    a = [run_doc(v, steady) for v in (5.0, 3.5, 5.1)]
    b = [run_doc(v, steady) for v in (5.0, 5.0, 5.05)]
    assert not compare.compare(a, b, benchmark)
    assert "unresolved" in capsys.readouterr().out
    # With fewer than MIN_RUNS runs the children give the spread.
    assert compare.compare(a[:1], b[:1], benchmark)
    assert "within" in capsys.readouterr().out
    for index, doc in enumerate(b):
        run.write_json(tmp_path / "b" / f"run-{index}.json", doc)
    assert compare.load_set(tmp_path / "b") == b


def test_trace_outputs_load(traced_run):
    assert traced_run.returncode == 0, traced_run.stderr
    trace = run.read_json(run.OUT / "trace.json")
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert spans and all({"name", "ts", "dur", "pid", "tid"} <= set(e)
                         for e in spans)
    ids = {e["args"]["id"] for e in spans}
    assert all(e["args"]["parent"] in ids for e in spans
               if e["args"]["parent"] is not None)
    layers = run.read_json(run.OUT / "layers.json")["cold-many"]
    run_row = layers["traced"]["VM.run"]
    assert 0 < run_row["self_s"] <= run_row["total_s"]
