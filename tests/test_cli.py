"""Command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main

HELLO = """
class Main {
    static int main() {
        int s = 0;
        for (int i = 0; i < 100; i = i + 1) { s = s + i; }
        Sys.print(s);
        return s;
    }
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "hello.mj"
    path.write_text(HELLO)
    return str(path)


class TestRun:
    @pytest.mark.parametrize("model", ["switch", "threaded", "traced"])
    def test_models(self, source_file, capsys, model):
        assert main(["run", source_file, "--model", model]) == 0
        out = capsys.readouterr().out
        assert "4950" in out
        assert f"model={model}" in out

    def test_compile_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mj"
        bad.write_text("class Main { static int main() { return x; } }")
        assert main(["run", str(bad)]) == 1
        assert "compile error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent.mj"]) == 1

    def test_trace_parameters(self, source_file, capsys):
        assert main(["run", source_file, "--threshold", "0.99",
                     "--delay", "1"]) == 0

    def test_linking_ablation_flags(self, source_file, capsys):
        assert main(["run", source_file, "--optimize", "--delay", "8",
                     "--no-linking"]) == 0
        linked_off = capsys.readouterr().out
        assert main(["run", source_file, "--optimize", "--delay", "8",
                     "--superblock-iters", "2"]) == 0
        linked_on = capsys.readouterr().out
        # Same program result either way; linking is dispatch-only.
        assert linked_off.split()[2] == linked_on.split()[2]


class TestDisasm:
    def test_disassembles(self, source_file, capsys):
        assert main(["disasm", source_file]) == 0
        out = capsys.readouterr().out
        assert "Main.main" in out
        assert "ICONST" in out


class TestWorkload:
    def test_runs_tiny(self, capsys):
        assert main(["workload", "compressx", "--size", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "stream coverage" in out

    def test_calibration_flag(self, capsys):
        assert main(["workload", "compressx", "--size", "tiny",
                     "--calibration"]) == 0
        out = capsys.readouterr().out
        assert "calibration" in out.lower()
        assert "stability" in out.lower()

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["workload", "nope"])


class TestTable:
    def test_figures(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SIZE", "tiny")
        assert main(["table", "figures", "--size", "tiny"]) == 0
        assert "Fig.1" in capsys.readouterr().out

    def test_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["table", "9"])


class TestDump:
    def test_json_dump(self, capsys):
        assert main(["dump", "compressx", "--size", "tiny"]) == 0
        out = capsys.readouterr().out
        import json
        data = json.loads(out)
        assert "bcg" in data and "traces" in data

    def test_dot_dump(self, capsys):
        assert main(["dump", "compressx", "--size", "tiny",
                     "--format", "dot", "--max-nodes", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph bcg")


class TestJasmFiles:
    def test_run_jasm_file(self, tmp_path, capsys):
        path = tmp_path / "prog.jasm"
        path.write_text("""
class Main
  static method main() -> int
    iconst 6
    iconst 7
    imul
    ireturn
  end
end
""")
        assert main(["run", str(path), "--model", "threaded"]) == 0
        assert "42" in capsys.readouterr().out


class TestBaselines:
    def test_comparison(self, capsys):
        assert main(["baselines", "compressx", "--size", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "dynamo" in out
        assert "replay" in out
        assert "whaley" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["workload", "sootx"])
        assert args.size == "small"
        assert args.threshold == 0.97

    @pytest.mark.parametrize("command", [
        ["run", "x.mj"], ["workload", "compressx"],
        ["dump", "compressx"], ["baselines", "compressx"]])
    def test_shared_flags_accepted_everywhere(self, command):
        args = build_parser().parse_args(
            command + ["--threshold", "0.9", "--delay", "8",
                       "--optimize", "--compile-threshold", "3",
                       "--events", "e.jsonl", "--chrome-trace", "t.json",
                       "--snapshot-every", "500"])
        assert args.threshold == 0.9
        assert args.delay == 8
        assert args.optimize is True
        assert args.compile_threshold == 3
        assert args.events == "e.jsonl"
        assert args.chrome_trace == "t.json"
        assert args.snapshot_every == 500


class TestObsFlags:
    def test_events_and_chrome_trace_written(self, source_file,
                                             tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        chrome = tmp_path / "trace.json"
        assert main(["run", source_file, "--delay", "8",
                     "--events", str(events),
                     "--chrome-trace", str(chrome)]) == 0
        out = capsys.readouterr().out
        assert "obs:" in out

        import json
        lines = events.read_text().splitlines()
        assert lines
        record = json.loads(lines[0])
        assert set(record) == {"seq", "ts", "kind", "data"}
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]

    def test_snapshot_every_prints_snapshot(self, source_file, capsys):
        assert main(["run", source_file, "--delay", "8",
                     "--snapshot-every", "100"]) == 0
        out = capsys.readouterr().out
        assert "snapshots" in out
        import json
        snap = json.loads(out.strip().splitlines()[-1])
        from repro.obs.export import SNAPSHOT_SCHEMA
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert "cache" in snap

    def test_workload_accepts_obs_flags(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        assert main(["workload", "compressx", "--size", "tiny",
                     "--events", str(events)]) == 0
        assert events.exists()
        assert "obs:" in capsys.readouterr().out

    def test_no_obs_flags_no_obs_report(self, source_file, capsys):
        assert main(["run", source_file, "--delay", "8"]) == 0
        assert "obs:" not in capsys.readouterr().out
