"""Tests for workload persistence."""

import json

import pytest

from repro.util.errors import ConfigurationError
from repro.workload import (
    WorkloadParams,
    generate_workload,
    load_workload,
    save_workload,
    workload_fingerprint,
)

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
        # A malformed file of the right format names the bad field.
        save_workload(generate_workload(SMALL, seed=4), str(path), seed=4)
        good = json.loads(path.read_text())
        unknown_param = dict(good, params=dict(good["params"], bogus=1))
        no_seed = {key: value for key, value in good.items()
                   if key != "seed"}
        mistyped = dict(good, params=dict(good["params"], num_roots="9"))
        for document, field in ((unknown_param, "bogus"),
                                (no_seed, "seed"),
                                (mistyped, "num_roots"),
                                (dict(good, page_size=0), "page_size"),
                                ([good], "not a")):
            path.write_text(json.dumps(document))
            with pytest.raises(ConfigurationError, match=field):
                load_workload(str(path))
