"""The open-loop load engine piece by piece: arrival processes,
scenario validation, locality of the object draws, and the per-shard
SLO tables computed from metric snapshots."""

import hashlib

import pytest

from repro.load import (
    LOAD_SCENARIOS,
    BurstyArrivals,
    LoadScenario,
    PoissonArrivals,
    build_load,
    run_load,
    shard_slo_series,
    snapshot_percentile,
)
from repro.obs import Histogram
from repro.runtime import Cluster, ClusterConfig
from repro.util.errors import ConfigurationError
from repro.util.rng import SeededRNG


def scenario_kwargs(**overrides):
    base = dict(
        name="t", clients=4, num_objects=32, num_classes=4,
        pages_min=1, pages_max=2, skew=1.0, locality=0.8,
        arrivals=PoissonArrivals(rate_tps=1000.0), num_roots=40,
    )
    base.update(overrides)
    return base


class TestArrivalProcesses:
    def test_poisson_offsets_are_monotone_and_complete(self):
        offsets = PoissonArrivals(rate_tps=500.0).offsets(
            200, SeededRNG(1).derive("load")
        )
        assert len(offsets) == 200
        assert all(b > a for a, b in zip(offsets, offsets[1:]))
        assert offsets[0] > 0.0

    def test_poisson_mean_rate_is_respected(self):
        rate = 1000.0
        offsets = PoissonArrivals(rate_tps=rate).offsets(
            5000, SeededRNG(2).derive("load")
        )
        observed = len(offsets) / offsets[-1]
        assert observed == pytest.approx(rate, rel=0.1)

    def test_bursty_offsets_are_monotone(self):
        offsets = BurstyArrivals(
            calm_rate_tps=100.0, burst_rate_tps=5000.0,
            mean_calm_s=0.05, mean_burst_s=0.01,
        ).offsets(500, SeededRNG(3).derive("load"))
        assert len(offsets) == 500
        assert all(b > a for a, b in zip(offsets, offsets[1:]))

    def test_bursty_mean_rate_sits_between_the_phases(self):
        process = BurstyArrivals(
            calm_rate_tps=100.0, burst_rate_tps=5000.0,
            mean_calm_s=0.05, mean_burst_s=0.05,
        )
        offsets = process.offsets(5000, SeededRNG(4).derive("load"))
        observed = len(offsets) / offsets[-1]
        assert 100.0 < observed < 5000.0

    @pytest.mark.parametrize("make", [
        lambda: PoissonArrivals(rate_tps=0.0),
        lambda: PoissonArrivals(rate_tps=-1.0),
        lambda: BurstyArrivals(calm_rate_tps=0.0, burst_rate_tps=1.0,
                               mean_calm_s=0.1, mean_burst_s=0.1),
        lambda: BurstyArrivals(calm_rate_tps=1.0, burst_rate_tps=1.0,
                               mean_calm_s=0.0, mean_burst_s=0.1),
    ])
    def test_bad_processes_rejected(self, make):
        with pytest.raises(ConfigurationError):
            make()


class TestScenarioValidation:
    def test_known_scenarios_are_well_formed(self):
        for name, scenario in LOAD_SCENARIOS.items():
            assert scenario.name == name
            assert scenario.block_size >= 1

    @pytest.mark.parametrize("overrides", [
        dict(clients=0),
        dict(num_objects=3),     # fewer objects than clients
        dict(locality=1.5),
        dict(num_roots=0),
    ])
    def test_bad_scenarios_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            LoadScenario(**scenario_kwargs(**overrides))

    def test_scaled_touches_only_the_root_count(self):
        scenario = LOAD_SCENARIOS["zipf-hot"]
        half = scenario.scaled(0.5)
        assert half.num_roots == scenario.num_roots // 2
        assert (half.clients, half.skew, half.arrivals) == \
            (scenario.clients, scenario.skew, scenario.arrivals)
        assert scenario.scaled(0.0).num_roots == 1  # floor at one root

    def test_unknown_scenario_name_raises(self):
        with pytest.raises(KeyError, match="zipf-smoke"):
            build_load("no-such-scenario", seed=1)


class TestBuildLoad:
    def test_load_shape_matches_the_scenario(self):
        load = build_load("zipf-smoke", seed=7, scale=0.5)
        scenario = load.scenario
        assert scenario.num_roots == 80
        assert len(load.workload.plans) == scenario.num_roots
        assert len(load.workload.arrival_offsets) == scenario.num_roots
        assert len(load.clients) == scenario.num_roots
        assert all(0 <= c < scenario.clients for c in load.clients)
        assert load.num_objects == scenario.num_objects

    def test_roots_land_in_their_clients_block(self):
        # With locality 0.8 most roots must come from the submitting
        # client's own contiguous block.
        load = build_load("zipf-smoke", seed=7)
        scenario = load.scenario
        in_block = sum(
            1 for client, plan in zip(load.clients, load.workload.plans)
            if plan.obj_index in scenario.block_range(client)
        )
        fraction = in_block / len(load.clients)
        assert fraction == pytest.approx(scenario.locality, abs=0.1)

    def test_plans_never_revisit_an_ancestor(self):
        load = build_load("zipf-smoke", seed=11)

        def walk(node, path):
            assert node.obj_index not in path
            for child in node.children:
                walk(child, path | {node.obj_index})

        for plan in load.workload.plans:
            walk(plan, frozenset())


    @pytest.mark.parametrize("seed,expected", [
        (5, "ff1e161287a2328f2afe75dbb39cfda489b07fb8a2bbf264fcd0a077fd073eed"),
        (23, "4690206930bdc43a8670b5b3d16b9fda32e5c434dbc29f9bd9ad39989820ab9f"),
    ])
    def test_inputs_are_pinned(self, seed, expected):
        """Object classes, plans, arrival offsets and clients are
        bit-identical to the ones recorded for zipf-smoke at this seed."""
        load = build_load("zipf-smoke", seed=seed)
        workload = load.workload
        parts = (workload.object_classes, workload.plans,
                 workload.arrival_offsets, load.clients)
        assert hashlib.sha256(repr(parts).encode()).hexdigest() == expected


class TestSloTables:
    def test_snapshot_percentile_matches_histogram(self):
        histogram = Histogram()
        rng = SeededRNG(5).derive("load")
        for _ in range(500):
            histogram.observe(rng.uniform(1e-6, 2.0))
        snapshot = histogram.snapshot()
        for q in (0.5, 0.9, 0.99, 0.999):
            assert snapshot_percentile(snapshot, q) == \
                histogram.percentile(q)

    def test_snapshot_percentile_empty(self):
        assert snapshot_percentile({"count": 0, "total": 0.0,
                                    "mean": 0.0}, 0.99) == 0.0

    def test_shard_tables_from_a_real_run(self):
        load = build_load("zipf-smoke", seed=7, scale=0.25)
        cluster = Cluster(ClusterConfig(
            num_nodes=load.scenario.clients, seed=7, protocol="lotec",
            trace=True,
        ))
        run_load(cluster, load)
        series = shard_slo_series(cluster.metrics.snapshot())
        shards = list(series["requests"])
        assert shards, "a remote-heavy run must hit at least one shard"
        assert shards == sorted(shards)
        for shard in shards:
            assert series["requests"][shard] > 0
            assert 0.0 <= series["p50_us"][shard] \
                <= series["p99_us"][shard] \
                <= series["p999_us"][shard]
            assert series["queue_high_water"][shard] >= 0.0

    def test_shard_tables_ignore_unlabeled_series(self):
        snapshot = {
            "histograms": {
                "gdo.request_latency_s": {
                    "total": {"count": 3, "total": 0.3, "mean": 0.1,
                              "min": 0.1, "max": 0.1,
                              "buckets": {"0.1": 3}, "overflow": 0},
                    "shard=2": {"count": 1, "total": 0.01, "mean": 0.01,
                                "min": 0.01, "max": 0.01,
                                "buckets": {"0.01": 1}, "overflow": 0},
                },
            },
            "gauges": {},
        }
        series = shard_slo_series(snapshot)
        assert list(series["requests"]) == [2]
        assert series["p99_us"][2] == pytest.approx(0.01 * 1e6)
        assert series["queue_high_water"][2] == 0.0
