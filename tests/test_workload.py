"""Tests for the synthetic workload generator (§5's randomized
nested transactions)."""

import hashlib
import random

import pytest

from repro.runtime import Cluster, ClusterConfig, run_record
from repro.util.errors import ConfigurationError
from repro.util.rng import SeededRNG
from repro.workload import (
    MEDIUM_HIGH,
    SCENARIOS,
    WorkloadParams,
    generate_workload,
    mix,
    run_workload,
)
from repro.workload.synth import SyntheticClassFactory


SMALL = WorkloadParams(num_objects=8, num_classes=3, num_roots=12,
                       pages_min=1, pages_max=3, max_depth=2)


class TestParams:
    @pytest.mark.parametrize("bad", [
        dict(num_objects=0),
        dict(pages_min=0),
        dict(pages_min=5, pages_max=2),
        dict(access_fraction=(0.0, 0.5)),
        dict(access_fraction=(0.8, 0.5)),
        dict(update_fraction=1.5),
        dict(write_fraction=0.0),
        dict(skew=-1),
        dict(mean_branch=-1),
    ])
    def test_validation(self, bad):
        with pytest.raises(ConfigurationError):
            WorkloadParams(**bad)

    def test_scaled_shrinks_roots(self):
        assert MEDIUM_HIGH.scaled(0.1).num_roots == \
            max(1, int(MEDIUM_HIGH.num_roots * 0.1))

    def test_paper_scenarios_match_figure_text(self):
        assert SCENARIOS["medium-high"].pages_max == 5
        assert SCENARIOS["large-high"].pages_min == 10
        assert SCENARIOS["large-high"].pages_max == 20
        assert SCENARIOS["medium-moderate"].num_objects == 100
        assert SCENARIOS["medium-high"].num_objects == 20


class TestSyntheticClasses:
    def test_class_shape(self):
        factory = SyntheticClassFactory(SeededRNG(1), page_size=4096)
        info = factory.make_class("C", pages=5, access_fraction=(0.3, 0.6),
                                  write_fraction=0.5)
        layout = info.schema.make_layout(4096)
        assert 4 <= layout.page_count <= 6
        assert info.update_methods and info.read_methods
        for name in info.update_methods:
            spec = info.schema.method_spec(name)
            assert spec.is_update
            assert spec.access.writes <= spec.access.reads
        for name in info.read_methods:
            assert not info.schema.method_spec(name).is_update

    def test_methods_access_subsets(self):
        factory = SyntheticClassFactory(SeededRNG(2), page_size=4096)
        info = factory.make_class("C", pages=10, access_fraction=(0.2, 0.4),
                                  write_fraction=0.5)
        total = len(info.schema.attributes)
        for spec in info.schema.methods.values():
            assert len(spec.access.reads) < total

    def test_mix_is_order_sensitive(self):
        assert mix(mix(0, 1), 2) != mix(mix(0, 2), 1)


class TestGeneration:
    def test_deterministic_for_seed(self):
        a = generate_workload(SMALL, seed=9)
        b = generate_workload(SMALL, seed=9)
        assert a.plans == b.plans
        assert a.arrival_offsets == b.arrival_offsets
        assert a.object_classes == b.object_classes

    def test_different_seeds_differ(self):
        a = generate_workload(SMALL, seed=9)
        b = generate_workload(SMALL, seed=10)
        assert a.plans != b.plans

    def test_plans_respect_depth_and_objects(self):
        workload = generate_workload(SMALL, seed=9)
        assert len(workload.plans) == SMALL.num_roots
        for plan in workload.plans:
            assert plan.depth() <= SMALL.max_depth + 1
            assert all(0 <= i < SMALL.num_objects
                       for i in plan.objects_touched())

    def test_no_recursion_on_any_path(self):
        workload = generate_workload(
            WorkloadParams(num_objects=4, num_classes=2, num_roots=30,
                           skew=2.0, max_depth=4, mean_branch=3.0),
            seed=3,
        )

        def check(node, path):
            assert node.obj_index not in path
            for child in node.children:
                check(child, path | {node.obj_index})

        for plan in workload.plans:
            check(plan, set())

    def test_methods_exist_on_assigned_classes(self):
        workload = generate_workload(SMALL, seed=4)

        def check(node):
            info = workload.class_of(node.obj_index)
            assert node.method_name in info.schema.methods
            for child in node.children:
                check(child)

        for plan in workload.plans:
            check(plan)

    def test_arrivals_monotonic(self):
        workload = generate_workload(SMALL, seed=4)
        assert workload.arrival_offsets == sorted(workload.arrival_offsets)

    def test_skew_concentrates_on_hot_objects(self):
        hot = generate_workload(
            WorkloadParams(num_objects=20, num_roots=200, skew=1.2,
                           max_depth=0),
            seed=5,
        )
        uniform = generate_workload(
            WorkloadParams(num_objects=20, num_roots=200, skew=0.0,
                           max_depth=0),
            seed=5,
        )
        hot_zero = sum(1 for p in hot.plans if p.obj_index == 0)
        uniform_zero = sum(1 for p in uniform.plans if p.obj_index == 0)
        assert hot_zero > 2 * uniform_zero


def inputs_digest(*parts):
    """sha256 of the exact reprs: plans, float offsets and ints alike."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()


class TestZipfDraws:
    """``zipf_index`` draws what ``Random.choices`` over the Zipf weights
    drew, draw for draw, so every generated input stays as it was."""

    @pytest.mark.parametrize("n", [1, 2, 20, 100, 128])
    @pytest.mark.parametrize("skew", [0.35, 0.9, 1.0, 2.0])
    def test_matches_random_choices(self, n, skew):
        seed = 1000 * n + int(100 * skew)
        rng, reference = SeededRNG(seed), random.Random(seed)
        weights = [1.0 / (rank + 1) ** skew for rank in range(n)]
        population = range(n)
        for draw in range(10_000):
            expected = reference.choices(population, weights=weights, k=1)[0]
            assert rng.zipf_index(n, skew) == expected, draw
            # Other draws on the same stream between the Zipf draws.
            if draw % 3 == 0:
                assert rng.random() == reference.random()
            if draw % 7 == 0:
                assert rng.randint(0, 9) == reference.randint(0, 9)

    def test_zero_skew_is_uniform_randrange(self):
        rng, reference = SeededRNG(5), random.Random(5)
        draws = [rng.zipf_index(20, 0.0) for _ in range(2000)]
        assert draws == [reference.randrange(20) for _ in range(2000)]
        assert set(draws) == set(range(20))


class TestPinnedInputs:
    """Generated inputs are bit-identical to the ones recorded for
    these (scenario, seed) pairs: object classes, every plan tree and
    every arrival offset.  A change to any draw shows up here."""

    @pytest.mark.parametrize("scenario,seed,expected", [
        ("medium-high", 11,
         "e5c24b68ae44c247d10b2e07266d49578c4ae04e67eb8713ffc506b05becd7a8"),
        ("medium-high", 23,
         "8a225f7108b7fc1db4c9ae9e84478f0c2ac814e70902099f3cac88d3b9678a81"),
        ("large-moderate", 11,
         "8d5397ea85788b26dffe2d493e0301f408b1adbd712e5b05a13562c7a1302114"),
        ("large-moderate", 23,
         "72cc4b1e6d74e26c501a4be4b155ee77ba775ba83ddd93d0dc86738991ef771f"),
    ])
    def test_generated_workload_digest(self, scenario, seed, expected):
        workload = generate_workload(SCENARIOS[scenario], seed=seed)
        assert inputs_digest(workload.object_classes, workload.plans,
                             workload.arrival_offsets) == expected


class TestExecution:
    def test_runs_identically_shaped_on_each_protocol(self):
        workload = generate_workload(SMALL, seed=6)
        states = []
        for protocol in ("cotec", "otec", "lotec", "rc"):
            cluster = Cluster(ClusterConfig(num_nodes=3, protocol=protocol,
                                            seed=6))
            run = run_workload(cluster, workload)
            assert run.failed == 0
            states.append(cluster.state_digest())
        # Committed work is the same workload; all protocols must agree
        # on the final state because commit order is deterministic here.
        # (Commit orders can differ between protocols in general; for
        # these parameters they do not.)
        for digest in states[1:]:
            assert set(digest) == set(states[0])

    def test_summary_fields(self):
        workload = generate_workload(SMALL, seed=6)
        cluster = Cluster(ClusterConfig(num_nodes=3, protocol="lotec", seed=6))
        run = run_workload(cluster, workload)
        summary = run_record(cluster, run)
        assert summary["protocol"] == "lotec"
        assert summary["committed"] == cluster.txn_stats.commits
        assert "network" in summary

    def test_serializable_under_every_protocol(self):
        from repro import check_serializability

        workload = generate_workload(SMALL, seed=8)
        for protocol in ("cotec", "otec", "lotec", "rc"):
            cluster = Cluster(ClusterConfig(num_nodes=3, protocol=protocol,
                                            seed=8))
            run_workload(cluster, workload)
            assert check_serializability(cluster).equivalent, protocol


class TestCustomPlans:
    def base(self):
        from repro.workload import generate_workload

        return generate_workload(SMALL, seed=9)

    def plan(self, obj=0, method=None, children=(), salt=1):
        from repro.workload import PlanNode

        workload = self.base()
        method = method or workload.class_of(obj).update_methods[0]
        return workload, PlanNode(obj_index=obj, method_name=method,
                                  salt=salt, children=tuple(children))

    def test_with_plans_replaces_plans(self):
        workload, plan = self.plan()
        custom = workload.with_plans([plan, plan])
        assert len(custom.plans) == 2
        assert custom.arrival_offsets == [0.0, 0.0]
        assert custom.classes is workload.classes

    def test_with_plans_runs_on_cluster(self):
        from repro.workload import PlanNode

        workload = self.base()
        leaf_method = workload.class_of(1).update_methods[0]
        root_method = workload.class_of(0).update_methods[0]
        plan = PlanNode(
            obj_index=0, method_name=root_method, salt=3,
            children=(PlanNode(obj_index=1, method_name=leaf_method,
                               salt=4),),
        )
        custom = workload.with_plans([plan])
        cluster = Cluster(ClusterConfig(num_nodes=2, protocol="lotec",
                                        seed=9))
        run = run_workload(cluster, custom)
        assert run.committed == 1

    def test_rejects_unknown_object(self):
        workload, plan = self.plan()
        from repro.workload import PlanNode

        bad = PlanNode(obj_index=999, method_name="m1", salt=1)
        with pytest.raises(ValueError, match="references object"):
            workload.with_plans([bad])

    def test_rejects_unknown_method(self):
        workload = self.base()
        from repro.workload import PlanNode

        bad = PlanNode(obj_index=0, method_name="nope", salt=1)
        with pytest.raises(ValueError, match="no method"):
            workload.with_plans([bad])

    def test_rejects_recursive_plan(self):
        workload = self.base()
        from repro.workload import PlanNode

        method = workload.class_of(0).update_methods[0]
        bad = PlanNode(
            obj_index=0, method_name=method, salt=1,
            children=(PlanNode(obj_index=0, method_name=method, salt=2),),
        )
        with pytest.raises(ValueError, match="recursively"):
            workload.with_plans([bad])

    def test_rejects_mismatched_offsets(self):
        workload, plan = self.plan()
        with pytest.raises(ValueError, match="offsets"):
            workload.with_plans([plan], arrival_offsets=[0.0, 1.0])
