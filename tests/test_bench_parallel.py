"""Tests for the parallel runner and the on-disk result cache."""

import dataclasses
import json
import os

import pytest

from repro.bench import (
    ExperimentResult,
    ExperimentRunner,
    RESULT_SCHEMA_VERSION,
    ResultCache,
    RunSpec,
    build_plan,
    run_experiment,
)
from repro.bench.experiments import BUILDERS
from repro.bench.parallel import execute_run
from repro.runtime.config import ClusterConfig
from repro.util.ids import NodeId, ObjectId, TxnId
from repro.workload.params import SCENARIOS

TINY = dict(seed=3, scale=0.08, num_nodes=3)


def _tiny_spec(protocol="lotec", seed=3):
    return RunSpec(
        key=protocol,
        config=ClusterConfig(num_nodes=3, protocol=protocol, seed=seed,
                             audit_accesses=False),
        params=SCENARIOS["medium-high"].scaled(0.08), seed=seed,
    )


def _result_blob(result):
    return json.dumps(result.to_json(), sort_keys=True)


class TestParallelIdentity:
    """Parallel output must be byte-identical to serial output."""

    def test_bytes_figure_parallel_matches_serial(self):
        serial = run_experiment("fig2", jobs=1, **TINY)
        pooled = run_experiment("fig2", jobs=3, **TINY)
        assert _result_blob(serial) == _result_blob(pooled)

    def test_time_figure_parallel_matches_serial(self):
        kwargs = dict(software_costs=["100us", "500ns"], **TINY)
        serial = run_experiment("fig7", jobs=1, **kwargs)
        pooled = run_experiment("fig7", jobs=4, **kwargs)
        assert _result_blob(serial) == _result_blob(pooled)

    def test_pool_runs_specs_in_worker_processes(self, monkeypatch):
        # A throwaway builder that records the executing PID;
        # fork-based workers inherit it.
        monkeypatch.setitem(BUILDERS, "test-pid",
                            lambda spec: {"pid": os.getpid()})
        plan = build_plan("fig2", **TINY)
        specs = [
            dataclasses.replace(spec, builder="test-pid")
            for spec in plan.specs
        ]
        measurements = ExperimentRunner(jobs=2).execute(specs)
        pids = {m["pid"] for m in measurements}
        assert os.getpid() not in pids

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            ExperimentRunner(jobs=0)


class TestRunSpec:
    def test_payload_is_json_serializable_and_stable(self):
        spec = _tiny_spec()
        blob = json.dumps(spec.payload(), sort_keys=True)
        assert blob == json.dumps(spec.payload(), sort_keys=True)
        payload = spec.payload()
        assert payload["builder"] == "workload"
        assert payload["config"]["protocol"] == "lotec"

    def test_spec_without_params_or_builder_rejected(self):
        spec = RunSpec(key="k", config=ClusterConfig(num_nodes=3, seed=3))
        with pytest.raises(ValueError, match="neither"):
            execute_run(spec)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "c"), version="v1")
        spec = _tiny_spec()
        assert cache.get(spec) is None
        measurement = execute_run(spec)
        cache.put(spec, measurement)
        assert cache.get(spec) == measurement
        assert cache.stats() == {"hits": 1, "misses": 1}

    def test_version_bump_invalidates(self, tmp_path):
        root = str(tmp_path / "c")
        spec = _tiny_spec()
        ResultCache(root=root, version="v1").put(spec, {"x": 1})
        assert ResultCache(root=root, version="v1").get(spec) == {"x": 1}
        assert ResultCache(root=root, version="v2").get(spec) is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "c"), version="v1")
        spec = _tiny_spec()
        cache.put(spec, {"x": 1})
        with open(cache.path(spec), "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert cache.get(spec) is None

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "c"), version="v1")
        spec = _tiny_spec()
        cache.put(spec, {"x": 1})
        cache.clear()
        assert not os.path.exists(cache.root)
        assert cache.get(spec) is None


class TestCachedRunner:
    def test_second_run_is_all_hits_and_identical(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "c"), version="v1")
        first = run_experiment("abl-gdocache", cache=cache, **TINY)
        assert cache.stats()["hits"] == 0

        runner = ExperimentRunner(cache=cache)
        second = runner.run("abl-gdocache", **TINY)
        assert runner.last_stats.executed == 0
        assert runner.last_stats.cache_hits == runner.last_stats.runs > 0
        assert _result_blob(first) == _result_blob(second)

    def test_cached_run_executes_no_simulation(self, tmp_path, monkeypatch):
        import repro.bench.parallel as par

        cache = ResultCache(root=str(tmp_path / "c"), version="v1")
        run_experiment("abl-gdocache", cache=cache, **TINY)

        def explode(spec):
            raise AssertionError("cache hit expected; simulation ran")

        monkeypatch.setattr(par, "execute_run", explode)
        result = run_experiment("abl-gdocache", cache=cache, **TINY)
        assert set(result.series["total_messages"]) == {"cached", "uncached"}

    def test_version_bump_re_executes(self, tmp_path):
        root = str(tmp_path / "c")
        run_experiment(
            "abl-gdocache", cache=ResultCache(root=root, version="v1"),
            **TINY)
        bumped = ResultCache(root=root, version="v2")
        runner = ExperimentRunner(cache=bumped)
        runner.run("abl-gdocache", **TINY)
        assert runner.last_stats.cache_hits == 0
        assert runner.last_stats.executed == runner.last_stats.runs > 0

    def test_run_many_orders_and_counts(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "c"), version="v1")
        runner = ExperimentRunner(cache=cache)
        ids = ["abl-gdocache", "abl-dsd"]
        results = runner.run_many(ids, **TINY)
        assert list(results) == ids
        assert runner.last_plan_sizes == {"abl-gdocache": 2, "abl-dsd": 2}
        assert runner.last_plan_hits == {"abl-gdocache": 0, "abl-dsd": 0}

        again = runner.run_many(ids, **TINY)
        assert runner.last_plan_hits == {"abl-gdocache": 2, "abl-dsd": 2}
        for eid in ids:
            assert _result_blob(results[eid]) == _result_blob(again[eid])


class TestResultJson:
    def test_round_trip(self):
        result = run_experiment("msg-count", **TINY)
        data = result.to_json()
        assert data["schema"] == RESULT_SCHEMA_VERSION
        restored = ExperimentResult.from_json(json.loads(json.dumps(data)))
        assert restored.experiment == result.experiment
        assert restored.x_label == result.x_label
        assert restored.series == result.series
        assert restored.meta == result.meta

    def test_unsupported_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            ExperimentResult.from_json({
                "schema": 999, "experiment": "e", "x_label": "x",
                "series": {},
            })

    def test_non_json_meta_dropped(self):
        result = ExperimentResult(
            experiment="e", x_label="x", series={"s": {"a": 1}},
            meta={"fine": 1, "bad": object()},
        )
        data = result.to_json()
        assert data["meta"] == {"fine": 1}
        json.dumps(data)  # the whole envelope must serialize


class TestRunSpecValidation:
    """Non-JSON-native payloads must fail at construction, not surface
    as a silent repr-keyed (always-miss or colliding) cache entry."""

    def test_non_json_native_builder_args_rejected(self):
        from repro.util.errors import ConfigurationError

        class Opaque:
            pass

        with pytest.raises(ConfigurationError, match="builder_args"):
            RunSpec(
                key="k",
                config=ClusterConfig(num_nodes=3, seed=3),
                builder="custom", builder_args=(("knob", Opaque()),),
            )

    def test_non_string_dict_keys_rejected(self):
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="key"):
            RunSpec(
                key="k",
                config=ClusterConfig(num_nodes=3, seed=3),
                builder="custom", builder_args=(("map", {1: "x"}),),
            )

    @pytest.mark.parametrize("value", [NodeId(1), ObjectId(2),
                                       TxnId(serial=3, root=3)])
    def test_ids_rejected_though_they_are_tuples(self, value):
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="not JSON-native"):
            RunSpec(
                key="k",
                config=ClusterConfig(num_nodes=3, seed=3),
                builder="custom", builder_args=(("node", [value]),),
            )

    def test_json_native_payload_accepted_and_strictly_keyed(self, tmp_path):
        spec = RunSpec(
            key="k",
            config=ClusterConfig(num_nodes=3, seed=3),
            builder="custom",
            builder_args=(("knob", [1, 2.5, "s", None, True]),),
        )
        cache = ResultCache(root=str(tmp_path / "c"), version="v1")
        # The strict (no default=str) fingerprint round-trips.
        assert cache.key(spec) == cache.key(spec)
