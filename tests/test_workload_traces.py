"""Tests for workload/run-trace persistence."""

import json

import pytest

from repro.runtime import Cluster, ClusterConfig
from repro.util.errors import ConfigurationError
from repro.util.ids import NodeId, ObjectId, TxnId
from repro.workload import (
    WorkloadParams,
    diff_run_reports,
    generate_workload,
    load_run_report,
    load_workload,
    run_workload,
    save_run_report,
    save_workload,
    workload_fingerprint,
)
from repro.workload.traces import _freeze_from_json, _freeze_to_json

SMALL = WorkloadParams(num_objects=6, num_classes=2, num_roots=10,
                       pages_min=1, pages_max=3)


class TestWorkloadPersistence:
    def test_round_trip(self, tmp_path):
        workload = generate_workload(SMALL, seed=4)
        path = tmp_path / "load.json"
        save_workload(workload, str(path), seed=4)
        reloaded = load_workload(str(path))
        assert reloaded.plans == workload.plans
        assert reloaded.object_classes == workload.object_classes
        assert workload_fingerprint(reloaded) == \
            workload_fingerprint(workload)

    def test_fingerprint_distinguishes_workloads(self):
        a = generate_workload(SMALL, seed=4)
        b = generate_workload(SMALL, seed=5)
        assert workload_fingerprint(a) != workload_fingerprint(b)

    def test_fingerprint_stable(self):
        a = generate_workload(SMALL, seed=4)
        b = generate_workload(SMALL, seed=4)
        assert workload_fingerprint(a) == workload_fingerprint(b)

    def test_tampered_fingerprint_rejected(self, tmp_path):
        workload = generate_workload(SMALL, seed=4)
        path = tmp_path / "load.json"
        save_workload(workload, str(path), seed=4)
        document = json.loads(path.read_text())
        document["fingerprint"] = "0" * 32
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigurationError, match="fingerprint"):
            load_workload(str(path))

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ConfigurationError, match="not a"):
            load_workload(str(path))


class TestRunReports:
    def run_cluster(self, protocol, workload, seed=4):
        cluster = Cluster(ClusterConfig(num_nodes=3, protocol=protocol,
                                        seed=seed))
        run_workload(cluster, workload)
        return cluster

    def test_report_round_trip(self, tmp_path):
        workload = generate_workload(SMALL, seed=4)
        cluster = self.run_cluster("lotec", workload)
        path = tmp_path / "run.json"
        save_run_report(cluster, str(path), workload=workload)
        report = load_run_report(str(path))
        assert report["summary"]["protocol"] == "lotec"
        assert len(report["commits"]) == len(cluster.commit_log)
        assert report["workload_fingerprint"] == \
            workload_fingerprint(workload)
        # Frozen args survive the JSON round trip (tuples and handles).
        original = cluster.commit_log[0].frozen_args
        assert report["commits"][0]["args"] == original

    def test_diff_same_workload_different_protocols(self, tmp_path):
        workload = generate_workload(SMALL, seed=4)
        reports = []
        for protocol in ("cotec", "lotec"):
            cluster = self.run_cluster(protocol, workload)
            path = tmp_path / f"{protocol}.json"
            save_run_report(cluster, str(path), workload=workload)
            reports.append(load_run_report(str(path)))
        diff = diff_run_reports(*reports)
        assert diff["same_commits"]
        assert diff["bytes"]["left"] >= diff["bytes"]["right"]

    def test_diff_detects_missing_commit(self, tmp_path):
        workload = generate_workload(SMALL, seed=4)
        cluster = self.run_cluster("lotec", workload)
        path = tmp_path / "run.json"
        save_run_report(cluster, str(path))
        full = load_run_report(str(path))
        truncated = {**full, "commits": full["commits"][:-1]}
        diff = diff_run_reports(full, truncated)
        assert not diff["same_commits"]
        assert diff["only_left"]

    def test_ids_survive_the_json_round_trip(self):
        value = (NodeId(2), [ObjectId(3)], {"k": TxnId(serial=9, root=4)})
        back = _freeze_from_json(json.loads(json.dumps(
            _freeze_to_json(value))))
        assert back == value
        assert type(back[0]) is NodeId and type(back[1][0]) is ObjectId
        assert type(back[2]["k"]) is TxnId

    def test_report_format_checked(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"format": "nope"}))
        with pytest.raises(ConfigurationError):
            load_run_report(str(path))
