"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENTS, main
from repro.runtime.cluster import Cluster
from repro.runtime.config import ClusterConfig
from repro.workload.generator import generate_workload
from repro.workload.params import SCENARIOS
from repro.workload.runner import run_workload

from conftest import summary_rows


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment in EXPERIMENTS:
            assert experiment in out
        assert "medium-high" in out


class TestExperiment:
    def test_runs_and_prints_table(self, capsys):
        code = main(["experiment", "abl-gdocache",
                     "--scale", "0.1", "--seed", "2", "--nodes", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cached" in out and "uncached" in out

    def test_out_writes_versioned_json(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code = main(["experiment", "msg-count",
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
            main(["experiment", "msg-count",
                  "--scale", "0.1", "--seed", "2",
                  "--json", str(tmp_path / "result.json")])
        assert excinfo.value.code == 2

    def test_rerun_reflects_a_source_change(self, tmp_path, monkeypatch,
                                            capsys):
        # Nothing is memoized between runs: a second run after a change
        # to the protocol code must report the changed protocol.
        from repro.core.cotec import COTEC

        monkeypatch.chdir(tmp_path)
        argv = ["experiment", "fig2", "--scale", "0.08", "--nodes", "3",
                "--format", "json"]

        def cotec_series():
            assert main(argv) == 0
            data = json.loads(capsys.readouterr().out)
            return data["series"]["cotec"], data["meta"]["total_data_bytes"]

        before = cotec_series()
        monkeypatch.setattr(
            COTEC, "select_pages",
            lambda self, meta, page_map, local_versions, prediction:
                self.stale_pages(page_map, local_versions),
        )
        assert cotec_series() != before
        assert list(tmp_path.iterdir()) == []

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_every_registered_id_is_callable(self):
        # The registry must only name real drivers (smoke: signature
        # check through a tiny run for the cheapest ones is covered
        # above; here we just confirm the mapping values are callables).
        assert all(callable(fn) for fn in EXPERIMENTS.values())
        assert {"fig2", "fig8", "tab-speedup", "abl-multicast",
                "abl-prefetch", "compare"} <= set(EXPERIMENTS)


class TestCompare:
    """`repro compare` is the `compare` experiment with --scenario."""

    def test_compare_prints_all_protocols(self, capsys):
        code = main(["compare", "--scenario", "medium-high",
                     "--scale", "0.08", "--seed", "2", "--nodes", "3"])
        assert code == 0
        out = capsys.readouterr().out
        for protocol in ("cotec", "otec", "lotec", "rc"):
            assert protocol in out
        assert "data_bytes" in out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["compare", "--scenario", "tiny-high"])

    def test_series_equal_the_four_protocol_loop(self, tmp_path):
        # `compare` used to run the four protocols in a loop of its own
        # (which rounded the latency to whole microseconds); as an
        # experiment it must report that loop's numbers.
        target = tmp_path / "compare.json"
        assert main(["compare", "--scenario", "medium-high",
                     "--scale", "0.08", "--seed", "2", "--nodes", "3",
                     "--out", str(target)]) == 0
        series = json.loads(target.read_text())["series"]
        workload = generate_workload(
            SCENARIOS["medium-high"].scaled(0.08), seed=2
        )
        for protocol in ("cotec", "otec", "lotec", "rc"):
            cluster = Cluster(ClusterConfig(
                num_nodes=3, protocol=protocol, seed=2, audit_accesses=False,
            ))
            run = run_workload(cluster, workload)
            stats = cluster.network_stats
            assert {
                metric: values[protocol] for metric, values in series.items()
            } == {
                "committed": run.committed,
                "failed": run.failed,
                "data_bytes": stats.consistency_bytes(),
                "messages": stats.total_messages,
                "mean_latency_us": cluster.txn_stats.mean_latency * 1e6,
                "deadlocks": cluster.lock_stats.deadlocks,
            }


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
            expected = "1.33.0"  # source-tree fallback
        assert repro.__version__ == expected


class TestImportCost:
    """``import repro`` loads the runtime only: the experiment harness
    and the package metadata load on first use."""

    def test_import_stays_light(self):
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        probe = (
            "import sys, repro\n"
            "heavy = ('repro.bench', 'multiprocessing', 'importlib.metadata')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
            "version = repro.__version__\n"
            "from repro import run_experiment\n"
            "assert callable(run_experiment)\n"
            "assert repro.TcpTransport.__name__ == 'TcpTransport'\n"
            "assert 'repro.bench' in sys.modules\n"
            "print(version)\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr
        loaded, version = result.stdout.splitlines()
        assert loaded == "[]"
        assert version == repro.__version__

    def test_lazy_names_resolve(self):
        import repro
        from repro import ExperimentResult, run_experiment
        from repro.bench import experiments

        assert run_experiment is experiments.run_experiment
        assert ExperimentResult is experiments.ExperimentResult
        for name in repro.__all__:
            getattr(repro, name)
        with pytest.raises(AttributeError):
            repro.no_such_name


class TestTrace:
    """`repro run --trace-dir` traces the run and writes its artifacts."""

    def test_trace_writes_artifacts_and_summary(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        code = main(["run", "medium-high", "--scale", "0.08",
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
        code = main(["run", "medium-high", "--scale", "0.08",
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
            main(["run", "tiny-high"])


class TestOutputFormats:
    def test_format_chart(self, capsys):
        code = main(["experiment", "abl-gdocache",
                     "--scale", "0.08", "--seed", "2", "--nodes", "3",
                     "--format", "chart"])
        assert code == 0
        out = capsys.readouterr().out
        assert "|" in out and "#" in out

    def test_format_json_on_stdout(self, capsys):
        code = main(["experiment", "abl-gdocache",
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
            main(["experiment", "abl-gdocache",
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
                     "--out-dir", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "abl-gdocache" in out and "abl-dsd" in out
        assert "4 cluster runs" in out
        for eid in ("abl-gdocache", "abl-dsd"):
            data = json.loads((out_dir / f"BENCH_{eid}.json").read_text())
            assert data["schema"] == 1

    def test_bench_unknown_id_rejected(self, tmp_path, capsys):
        code = main(["bench", "fig99",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "fig99" in capsys.readouterr().err


class TestChaos:
    """`repro run --faults PRESET --check` runs a scenario under a fault
    preset and gates on the whole judge."""

    def test_chaos_runs_and_gates_on_serializability(self, tmp_path, capsys):
        out_dir = tmp_path / "chaos"
        code = main(["run", "medium-high", "--faults", "lossy-net",
                     "--scale", "0.1", "--seed", "5", "--check",
                     "--trace-dir", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "serializability: OK" in out
        assert "invariants: OK" in out
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
        code = main(["run", "medium-high", "--faults", "lock-timeout",
                     "--scale", "0.1", "--seed", "5", "--check"])
        assert code == 0
        assert "lock timeouts" in capsys.readouterr().out
        assert not list(tmp_path.iterdir())

    def test_retry_row_counts_every_retried_attempt(self, tmp_path, capsys):
        # The executor's retry counter covers lock-timeout retries too,
        # so the fault table must not label it as deadlock retries.
        target = tmp_path / "run.json"
        code = main(["run", "medium-high", "--scale", "0.3",
                     "--faults", "lock-timeout", "--out", str(target)])
        assert code == 0
        out = capsys.readouterr().out
        record = json.loads(target.read_text())
        retries = record["transactions"]["retries"]
        assert record["transactions"]["aborts_lock_timeout"] > 0
        assert retries > record["locks"]["deadlocks"]
        rows = dict(
            line.rsplit(None, 1) for line in out.splitlines()
            if line.startswith("retried attempts")
        )
        assert rows == {"retried attempts": f"{retries:,}"}
        assert "deadlock retries" not in out

    def test_chaos_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "medium-high", "--faults", "no-such-preset"])

    def test_chaos_configuration_error_is_one_line(self, capsys):
        # A crash preset on a 1-node cluster is a ConfigurationError;
        # the CLI must turn it into a single stderr line and exit 1,
        # never a traceback.
        code = main(["run", "medium-high", "--faults", "crash-recover",
                     "--nodes", "1", "--scale", "0.1", "--check"])
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
        assert "edge_refreshes" not in locks
        rows = summary_rows(capsys.readouterr().out)
        assert rows["deadlock victims"] == f"{locks['deadlocks']:,}"
        assert rows["cycle searches"] == f"{locks['cycle_searches']:,}"

    def test_untraced_run_prints_the_summary(self, capsys):
        code = main(["run", "medium-high", "--scale", "0.1"])
        assert code == 0
        rows = summary_rows(capsys.readouterr().out)
        assert "root commits" in rows
        assert "total bytes" in rows
        # The gauges and histograms come only with a trace.
        assert "peak concurrent txns" not in rows

    def test_failing_verdict_fails_the_exit_code(self, capsys, monkeypatch):
        from repro.check import Verdict

        monkeypatch.setattr("repro.cli.judge", lambda cluster: Verdict(
            serializable=False, oracle_detail=["O1: concurrent=1 serial=2"],
        ))
        code = main(["run", "medium-high", "--scale", "0.08", "--seed", "2",
                     "--nodes", "3", "--check"])
        assert code == 1
        err = capsys.readouterr().err
        assert "serial-replay oracle: NOT equivalent" in err
        assert "O1: concurrent=1 serial=2" in err


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
