"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENTS, main


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment in EXPERIMENTS:
            assert experiment in out
        assert "medium-high" in out


class TestExperiment:
    def test_runs_and_prints_table(self, capsys):
        code = main(["experiment", "abl-gdocache", "--no-cache",
                     "--scale", "0.1", "--seed", "2", "--nodes", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cached" in out and "uncached" in out

    def test_out_writes_versioned_json(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code = main(["experiment", "msg-count", "--no-cache",
                     "--scale", "0.1", "--seed", "2",
                     "--out", str(target)])
        assert code == 0
        data = json.loads(target.read_text())
        assert data["schema"] == 1
        assert data["x_label"] == "metric"
        assert set(data["series"]["messages"]) == {"cotec", "otec", "lotec"}

    def test_removed_json_alias_rejected(self, tmp_path):
        # --json PATH was a deprecated alias for --out PATH; it was
        # removed in 1.2.0 and must now be an argparse error.
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "msg-count", "--no-cache",
                  "--scale", "0.1", "--seed", "2",
                  "--json", str(tmp_path / "result.json")])
        assert excinfo.value.code == 2

    def test_cache_round_trip(self, tmp_path, capsys):
        argv = ["experiment", "abl-gdocache", "--scale", "0.1",
                "--seed", "2", "--nodes", "3",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "cache").is_dir()
        assert main(argv) == 0          # second run served from cache
        assert capsys.readouterr().out == first

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_every_registered_id_is_callable(self):
        # The registry must only name real drivers (smoke: signature
        # check through a tiny run for the cheapest ones is covered
        # above; here we just confirm the mapping values are callables).
        assert all(callable(fn) for fn in EXPERIMENTS.values())
        assert {"fig2", "fig8", "tab-speedup", "abl-recovery",
                "abl-prefetch"} <= set(EXPERIMENTS)


class TestCompare:
    def test_compare_prints_all_protocols(self, capsys):
        code = main(["compare", "--scenario", "medium-high",
                     "--scale", "0.08", "--seed", "2", "--nodes", "3"])
        assert code == 0
        out = capsys.readouterr().out
        for protocol in ("cotec", "otec", "lotec", "rc"):
            assert protocol in out
        assert "data bytes" in out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["compare", "--scenario", "tiny-high"])


class TestVersion:
    def test_version_subcommand(self, capsys):
        import repro

        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == repro.__version__

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_dunder_version_matches_metadata(self):
        import repro

        try:
            from importlib.metadata import version
            expected = version("repro")
        except Exception:
            expected = "1.7.0"  # source-tree fallback
        assert repro.__version__ == expected


class TestTrace:
    def test_trace_writes_artifacts_and_summary(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        code = main(["trace", "medium-high", "--scale", "0.08",
                     "--seed", "2", "--nodes", "3",
                     "--trace-dir", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "total bytes" in out
        assert "root commits" in out

        jsonl = out_dir / "medium-high-lotec.jsonl"
        chrome = out_dir / "medium-high-lotec.chrome.json"
        assert jsonl.exists() and chrome.exists()

        # The Chrome export must be valid trace_event JSON.
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]
        for record in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(record)

        # The JSONL log holds one JSON object per line, led by the
        # clock-domain header (virtual clock: the sim transport).
        lines = [line for line in jsonl.read_text().splitlines() if line]
        assert lines
        assert all(isinstance(json.loads(line), dict) for line in lines)
        assert json.loads(lines[0]) == {
            "trace_header": {"schema": 1, "clock": "virtual"}
        }

    def test_trace_summary_matches_network_stats(self, tmp_path, capsys):
        from repro.runtime.cluster import Cluster
        from repro.runtime.config import ClusterConfig
        from repro.workload.generator import generate_workload
        from repro.workload.params import SCENARIOS
        from repro.workload.runner import run_workload

        code = main(["trace", "medium-high", "--scale", "0.08",
                     "--seed", "2", "--nodes", "3",
                     "--trace-dir", str(tmp_path / "run")])
        assert code == 0
        out = capsys.readouterr().out

        # Re-run the identical deterministic scenario and check the
        # byte total printed by the summary is NetworkStats', exactly.
        params = SCENARIOS["medium-high"].scaled(0.08)
        workload = generate_workload(params, seed=2)
        cluster = Cluster(ClusterConfig(
            num_nodes=3, protocol="lotec", seed=2,
            audit_accesses=False, trace=True,
        ))
        run_workload(cluster, workload)
        assert f"{cluster.network_stats.total_bytes:,}" in out

    def test_trace_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "tiny-high"])


class TestOutputFormats:
    def test_format_chart(self, capsys):
        code = main(["experiment", "abl-gdocache", "--no-cache",
                     "--scale", "0.08", "--seed", "2", "--nodes", "3",
                     "--format", "chart"])
        assert code == 0
        out = capsys.readouterr().out
        assert "|" in out and "#" in out

    def test_format_json_on_stdout(self, capsys):
        code = main(["experiment", "abl-gdocache", "--no-cache",
                     "--scale", "0.08", "--seed", "2", "--nodes", "3",
                     "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == 1
        assert "series" in data

    def test_removed_chart_alias_rejected(self):
        # --chart was a deprecated alias for --format chart; removed
        # in 1.2.0.
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "abl-gdocache", "--no-cache",
                  "--scale", "0.08", "--seed", "2", "--nodes", "3",
                  "--chart"])
        assert excinfo.value.code == 2

    def test_compare_writes_json(self, tmp_path, capsys):
        target = tmp_path / "compare.json"
        code = main(["compare", "--scenario", "medium-high",
                     "--scale", "0.08", "--seed", "2", "--nodes", "3",
                     "--out", str(target)])
        assert code == 0
        data = json.loads(target.read_text())
        assert data["schema"] == 1
        assert set(data["series"]["committed"]) == {
            "cotec", "otec", "lotec", "rc",
        }
        assert "deadlocks" in data["series"]


class TestBench:
    def test_bench_writes_one_file_per_experiment(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        code = main(["bench", "abl-gdocache", "abl-dsd",
                     "--scale", "0.08", "--seed", "2", "--nodes", "3",
                     "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
                     "--out-dir", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "abl-gdocache" in out and "abl-dsd" in out
        assert "4 cluster runs: 4 executed (jobs=2)" in out
        for eid in ("abl-gdocache", "abl-dsd"):
            data = json.loads((out_dir / f"BENCH_{eid}.json").read_text())
            assert data["schema"] == 1

    def test_bench_second_run_is_all_cache_hits(self, tmp_path, capsys):
        argv = ["bench", "abl-gdocache",
                "--scale", "0.08", "--seed", "2", "--nodes", "3",
                "--cache-dir", str(tmp_path / "cache"),
                "--out-dir", str(tmp_path / "bench")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "0 executed" in capsys.readouterr().out

    def test_bench_unknown_id_rejected(self, tmp_path, capsys):
        code = main(["bench", "fig99", "--no-cache",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "fig99" in capsys.readouterr().err


class TestChaos:
    def test_chaos_runs_and_gates_on_serializability(self, tmp_path, capsys):
        out_dir = tmp_path / "chaos"
        code = main(["chaos", "lossy-net", "--scale", "0.1",
                     "--seed", "5", "--trace-dir", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "serializability: OK" in out
        assert "messages dropped" in out
        assert "retransmissions" in out

        jsonl = out_dir / "medium-high-lotec-lossy-net.jsonl"
        chrome = out_dir / "medium-high-lotec-lossy-net.chrome.json"
        assert jsonl.exists() and chrome.exists()
        lines = [line for line in jsonl.read_text().splitlines() if line]
        assert any(
            json.loads(line).get("category") == "fault" for line in lines
        )

    def test_chaos_without_out_writes_nothing(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["chaos", "lock-timeout", "--scale", "0.1",
                     "--seed", "5"])
        assert code == 0
        assert "lock timeouts" in capsys.readouterr().out
        assert not list(tmp_path.iterdir())

    def test_chaos_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos", "no-such-preset"])

    def test_chaos_configuration_error_is_one_line(self, capsys):
        # A crash preset on a 1-node cluster is a ConfigurationError;
        # the CLI must turn it into a single stderr line and exit 1,
        # never a traceback.
        code = main(["chaos", "crash-recover", "--nodes", "1",
                     "--scale", "0.1"])
        assert code == 1
        captured = capsys.readouterr()
        err_lines = [line for line in captured.err.splitlines() if line]
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: ")
        assert "Traceback" not in captured.err


class TestRun:
    def test_run_reports_the_detectors_work(self, tmp_path, capsys):
        # Searches per deadlock must be readable from a run's own
        # summary, on stdout and in the --out JSON, with no profiler.
        target = tmp_path / "run.json"
        code = main(["run", "medium-high", "--scale", "0.3", "--seed", "11",
                     "--out", str(target)])
        assert code == 0
        locks = json.loads(target.read_text())["locks"]
        assert locks["deadlocks"] > 0
        assert locks["cycle_searches"] >= locks["deadlocks"]
        assert 0 < locks["edge_refreshes"]
        assert (f"{locks['deadlocks']} deadlocks, "
                f"{locks['cycle_searches']} cycle searches, "
                f"{locks['edge_refreshes']} edge refreshes"
                ) in capsys.readouterr().out


class TestMainModule:
    def test_python_dash_m_entry(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0
        assert "fig2" in result.stdout
