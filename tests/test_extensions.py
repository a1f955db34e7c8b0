"""Integration tests for the paper's announced extensions: per-class
protocols, multicast, and optimistic prefetching."""

import pytest

from repro import (
    Attr,
    ConfigurationError,
    check_serializability,
    method,
    shared_class,
)
from repro.bench import run_experiment
from repro.net.message import MessageCategory
from repro.obs import render_summary
from repro.runtime import Cluster, ClusterConfig, run_record
from repro.workload import WorkloadParams, generate_workload, run_workload

from conftest import (
    Counter,
    Ledger,
    Orchestrator,
    make_cluster,
    summary_rows,
)

SMALL = WorkloadParams(num_objects=8, num_classes=3, num_roots=16,
                       pages_min=1, pages_max=4, max_depth=2)


class TestPerClassProtocols:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(class_protocols=("Counter",))
        with pytest.raises(ConfigurationError):
            ClusterConfig(class_protocols=(("Counter", 3),))

    def test_dispatch_by_class(self):
        cluster = make_cluster(
            protocol="lotec", class_protocols=(("Counter", "rc"),)
        )
        counter = cluster.create(Counter)
        ledger = cluster.create(Ledger)
        suite = cluster.protocol
        assert suite.for_meta(counter.meta).name == "rc"
        assert suite.for_meta(ledger.meta).name == "lotec"
        assert suite.name == "lotec+rc"

    def test_rc_class_pushes_lotec_class_does_not(self):
        cluster = make_cluster(
            protocol="lotec", class_protocols=(("Counter", "rc"),), seed=2
        )
        counter = cluster.create(Counter, node=cluster.nodes[0])
        ledger = cluster.create(Ledger, node=cluster.nodes[0])
        # Warm a replica of each at node 1.
        cluster.call(counter, "get", node=cluster.nodes[1])
        cluster.call(ledger, "read_gamma", node=cluster.nodes[1])
        cluster.call(counter, "add", 1, node=cluster.nodes[0])
        cluster.call(ledger, "bump_alpha", 1, node=cluster.nodes[0])
        stats = cluster.network_stats
        # The RC-managed counter got its update pushed to the replica...
        assert stats.category_messages(MessageCategory.UPDATE_PUSH) == 1
        counter_traffic = stats.by_object[counter.object_id]
        assert counter_traffic.data_messages >= 1
        # ...while all of the UPDATE_PUSH traffic belongs to the counter
        # (none to the LOTEC-managed ledger).
        assert stats.category_bytes(MessageCategory.UPDATE_PUSH) <= \
            counter_traffic.bytes

    def test_mixed_protocols_serializable(self):
        workload = generate_workload(SMALL, seed=22)
        cluster = Cluster(ClusterConfig(
            num_nodes=4, protocol="lotec", seed=22,
            class_protocols=(("Synth0", "rc"), ("Synth1", "cotec")),
        ))
        run = run_workload(cluster, workload)
        assert run.failed == 0
        assert check_serializability(cluster).equivalent
        # The summary's page rows sum every protocol instance.
        stats = cluster.prediction_stats
        rows = summary_rows(render_summary(run_record(cluster)))
        assert rows["predicted pages"] == f"{stats.predicted_pages:,}"
        assert rows["shipped at acquisition"] == \
            f"{stats.transferred_pages:,}"

    def test_duplicate_class_mapping_rejected(self):
        with pytest.raises(ConfigurationError, match="twice"):
            make_cluster(class_protocols=(("A", "rc"), ("A", "cotec")))


class TestMulticast:
    def test_group_charge_counts_once(self):
        config = ClusterConfig()
        network_config = config.network.with_multicast(True)
        cluster = Cluster(config.with_network(network_config))
        assert cluster.network.config.multicast

    def test_rc_pushes_cheaper_with_multicast(self):
        def run(multicast):
            config = ClusterConfig(num_nodes=4, protocol="rc", seed=5)
            config = config.with_network(config.network.with_multicast(multicast))
            cluster = Cluster(config)
            counter = cluster.create(Counter, node=cluster.nodes[0])
            for node in cluster.nodes[1:]:
                cluster.call(counter, "get", node=node)  # three replicas
            cluster.call(counter, "add", 1, node=cluster.nodes[0])
            return cluster.network_stats.category_messages(
                MessageCategory.UPDATE_PUSH
            )

        assert run(False) == 3
        assert run(True) == 1

    def test_multicast_preserves_correctness(self):
        workload = generate_workload(SMALL, seed=23)
        config = ClusterConfig(num_nodes=4, protocol="rc", seed=23)
        config = config.with_network(config.network.with_multicast(True))
        cluster = Cluster(config)
        run = run_workload(cluster, workload)
        assert run.failed == 0
        assert check_serializability(cluster).equivalent


@shared_class
class Runner:
    """Root driver whose args name exactly the objects it will touch —
    the prefetcher's conservative target prediction is then precise."""

    hops = Attr(size=8, default=0)

    @method
    def visit(self, ctx, targets, amount):
        for target in targets:
            yield ctx.invoke(target, "add", amount)
        self.hops += 1
        return self.hops


class TestPrefetch:
    def make_cluster(self, mode, seed=6):
        return make_cluster(protocol="lotec", prefetch=mode, seed=seed)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(prefetch="always")

    @pytest.mark.parametrize("mode", ["locks", "locks+pages"])
    def test_prefetch_correct_results(self, mode):
        cluster = self.make_cluster(mode)
        counters = [cluster.create(Counter) for _ in range(4)]
        runner = cluster.create(Runner)
        cluster.call(runner, "visit", tuple(counters), 3)
        for counter in counters:
            assert cluster.read_attr(counter, "value") == 3
        assert cluster.lock_stats.prefetch_granted >= 1

    def test_prefetched_locks_served_locally(self):
        baseline = self.make_cluster("off")
        prefetched = self.make_cluster("locks+pages")
        for cluster in (baseline, prefetched):
            counters = [cluster.create(Counter) for _ in range(4)]
            runner = cluster.create(Runner)
            cluster.call(runner, "visit", tuple(counters), 1)
        # With prefetch the sub-transactions find retained locks and
        # acquire locally instead of globally.
        assert prefetched.lock_stats.local_acquisitions > \
            baseline.lock_stats.local_acquisitions

    def test_prefetch_denied_on_busy_lock_no_block(self):
        cluster = self.make_cluster("locks")
        counter = cluster.create(Counter)
        runner = cluster.create(Runner)
        # Saturate the counter with writers, interleaving runner roots:
        # prefetch requests that find the lock busy must give up, never
        # deadlock, and all work must still commit.
        for index in range(6):
            cluster.submit(counter, "add", 1)
            cluster.submit(runner, "visit", (counter,), 1)
        cluster.run()
        assert cluster.read_attr(counter, "value") == 12
        assert cluster.lock_stats.prefetch_denied >= 1

    @pytest.mark.parametrize("mode", ["off", "locks", "locks+pages"])
    def test_prefetch_serializable_on_random_workload(self, mode):
        workload = generate_workload(SMALL, seed=24)
        cluster = Cluster(ClusterConfig(
            num_nodes=4, protocol="lotec", seed=24, prefetch=mode,
        ))
        run = run_workload(cluster, workload)
        assert run.committed + run.failed == SMALL.num_roots
        assert check_serializability(cluster).equivalent

    def test_prefetch_with_cotec_stays_current(self):
        # Exhaustive protocols must not see stale pages even when the
        # lock came from a prefetch (deferred transfer at first use).
        cluster = make_cluster(protocol="cotec", prefetch="locks", seed=7)
        counters = [cluster.create(Counter) for _ in range(3)]
        runner = cluster.create(Runner)
        cluster.call(counters[0], "add", 5, node=cluster.nodes[2])
        cluster.call(runner, "visit", tuple(counters), 1,
                     node=cluster.nodes[1])
        assert cluster.read_attr(counters[0], "value") == 6

    def test_common_owner_prefetch_pays_one_pair_per_object(self):
        # Two prefetched objects at one owner: each gathers its pages in
        # its own request/response pair, in parallel with the other.
        cluster = make_cluster(protocol="lotec", seed=3,
                               prefetch="locks+pages")
        counters = [cluster.create(Counter, node=cluster.nodes[1])
                    for _ in range(2)]
        orchestrator = cluster.create(Orchestrator, node=cluster.nodes[0])
        cluster.call(orchestrator, "fanout", tuple(counters), 1,
                     node=cluster.nodes[0])
        for counter in counters:
            assert cluster.read_attr(counter, "value") == 1
        by_category = cluster.network.stats.by_category_messages
        assert by_category[MessageCategory.PAGE_REQUEST] == 2
        assert by_category[MessageCategory.PAGE_DATA] == 2

    def test_prefetch_hides_lock_latency(self):
        # §5.1's claim at tier-1 size: pre-acquiring locks and pages
        # cuts mean root latency well below the demand-driven baseline.
        result = run_experiment("abl-prefetch", seed=11, scale=0.1)
        latency = result.series["mean_latency_us"]
        assert latency["locks+pages"] < 0.8 * latency["off"]
