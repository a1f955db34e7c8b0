"""Pinned schedules of every extension.

``tests/test_trace_golden.py`` pins the plain configuration only; each
case here turns one extension on over the same standard scenario
(``medium-high`` at scale 0.25, seed 11): every fault preset, semantic
lock modes, adaptive home migration and both prefetch modes, and
prefetching under the ``chaos`` preset.  Two more cases drive the
increment ledger of semantic lock modes, which the synthetic classes
never reach (they have no blind increments), with and without a crash,
and pin its committed sums.  Each pin is ``(sha256 of events_to_jsonl, event
count, commits)``, so a change to where an extension attaches that
moves its schedule, its accounting order or its trace fails here.

Each case also asserts that its own counter is positive — the thing
the extension does actually happened on the run — so no pin is
vacuous.
"""

import hashlib

import pytest

from repro import Attr, TransactionAborted, method, shared_class
from repro.faults.plan import FAULT_PRESETS, CrashEvent, FaultPlan
from repro.gdo.migration import MigrationConfig
from repro.obs.export import events_to_jsonl
from repro.runtime.cluster import Cluster
from repro.runtime.config import ClusterConfig
from repro.workload.generator import generate_workload
from repro.workload.params import SCENARIOS
from repro.workload.runner import run_workload


def _wal_records(cluster):
    return sum(cluster.wal.node(index).record_count()
               for index in range(cluster.config.num_nodes))


def _semantic_grants(cluster):
    return sum(1 for event in cluster.tracer.events
               if event.name.startswith("lock.grant")
               and "+" in str(event.args.get("mode", "")))


def _ledger_slots(cluster):
    return len(cluster.executor.merger._ledger)


def _prefetch_under_crash(cluster):
    return min(cluster.lock_stats.prefetch_granted,
               cluster.fault_stats.crash_aborted_families)


def _faults(preset):
    return {"faults": FAULT_PRESETS[preset]}


#: case -> (config overrides, the counter that must be positive)
CASES = {
    "lossy-net": (_faults("lossy-net"),
                  lambda c: c.fault_stats.retransmissions),
    "dup-delay": (_faults("dup-delay"),
                  lambda c: c.fault_stats.messages_duplicated),
    "lock-timeout": (_faults("lock-timeout"),
                     lambda c: c.lock_stats.lock_timeouts),
    "crash-recover": (_faults("crash-recover"), _wal_records),
    "crash-failover": (_faults("crash-failover"),
                       lambda c: c.fault_stats.failover_reroutes),
    "partition": (_faults("partition"),
                  lambda c: c.fault_stats.partition_dropped),
    "slow-node": (_faults("slow-node"),
                  lambda c: c.fault_stats.slow_delay_s),
    "crash-partition": (_faults("crash-partition"), _wal_records),
    "chaos": (_faults("chaos"), lambda c: c.lock_stats.lock_timeouts),
    "semantic": ({"semantic_locks": True}, _semantic_grants),
    "migration": ({"migration": MigrationConfig()},
                  lambda c: c.migration_stats.migrations),
    "prefetch-locks": ({"prefetch": "locks"},
                       lambda c: c.lock_stats.prefetch_granted),
    "prefetch-locks+pages": ({"prefetch": "locks+pages"},
                             lambda c: c.lock_stats.prefetch_granted),
    # A crash lands while a prefetcher is in flight: it must take no
    # lock for its dead family.
    "chaos-prefetch": ({**_faults("chaos"), "prefetch": "locks+pages"},
                       _prefetch_under_crash),
}

#: case -> (sha256 of events_to_jsonl, event count, commits)
GOLDENS = {
    "lossy-net": (
        "154693913fea72ae", 3019, 30),
    "dup-delay": (
        "05631238b071f30b", 3224, 30),
    "lock-timeout": (
        "62b93c8107433d9d", 2004, 30),
    "crash-recover": (
        "f63edbbc6b6d0695", 1868, 29),
    "crash-failover": (
        "d217b213f1f62587", 1890, 29),
    "partition": (
        "db351df643493b50", 2084, 30),
    "slow-node": (
        "15f6d9df7baea272", 1991, 30),
    "crash-partition": (
        "ce2dffa6e17c72ed", 1421, 23),
    "chaos": (
        "775248a611ec9b4b", 3224, 29),
    "semantic": (
        "66b7f317b1c3e6db", 2144, 30),
    "migration": (
        "bfd4cc7b8e38e418", 2108, 30),
    "prefetch-locks": (
        "c5c9cc153487b92d", 4528, 30),
    "prefetch-locks+pages": (
        "07604344436bdf40", 5718, 30),
    "chaos-prefetch": (
        "0222f9e34f91a124", 12405, 29),
    "increments": (
        "cfa2fcad5929492a", 1339, 38),
    "increments-crash": (
        "16f28de696568286", 1245, 31),
}


def _digest(cluster, committed):
    jsonl = events_to_jsonl(cluster.tracer.events)
    digest = hashlib.sha256(jsonl.encode("utf-8")).hexdigest()[:16]
    return digest, len(cluster.tracer.events), committed


def test_every_case_is_pinned():
    assert sorted([*CASES, "increments", "increments-crash"]) == sorted(
        GOLDENS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_extension_trace_digest_is_golden(case):
    overrides, counter = CASES[case]
    params = SCENARIOS["medium-high"].scaled(0.25)
    workload = generate_workload(params, seed=11)
    cluster = Cluster(ClusterConfig(
        num_nodes=4, protocol="lotec", seed=11, audit_accesses=False,
        trace=True, **overrides,
    ))
    run = run_workload(cluster, workload)
    assert counter(cluster) > 0
    assert _digest(cluster, run.committed) == GOLDENS[case]


@shared_class
class Till:
    balance = Attr(size=8, default=0)
    deposits = Attr(size=8, default=0)

    @method
    def deposit(self, ctx, amount):
        self.balance += amount
        self.deposits += 1

    @method
    def refuse(self, ctx, amount):
        self.balance += amount
        ctx.abort("refused")

    @method
    def reset(self, ctx, amount):
        self.balance = amount


@shared_class
class Teller:
    """Nested increments: sub-commits, a caught sub-abort, and a plain
    overwrite that supersedes the family's earlier increments."""

    served = Attr(size=8, default=0)

    @method
    def pay(self, ctx, till, amount):
        yield ctx.invoke(till, "deposit", amount)
        try:
            yield ctx.invoke(till, "refuse", amount)
        except TransactionAborted:
            pass
        yield ctx.invoke(till, "deposit", amount + 1)
        self.served += 1

    @method
    def settle(self, ctx, till, amount):
        yield ctx.invoke(till, "deposit", amount)
        yield ctx.invoke(till, "reset", amount * 10)
        yield ctx.invoke(till, "deposit", 1)

    @method
    def bounce(self, ctx, till, amount):
        yield ctx.invoke(till, "deposit", amount)
        ctx.abort("bounced")


#: Two staggered crashes that each catch families mid-increment.
CRASHES = FaultPlan(name="increments-crash", crashes=(
    CrashEvent(node_index=1, at_s=0.003, down_for_s=0.004),
    CrashEvent(node_index=2, at_s=0.006, down_for_s=0.004)))


def _run_increments(faults=None):
    cluster = Cluster(ClusterConfig(
        num_nodes=4, protocol="lotec", seed=5, semantic_locks=True,
        trace=True, faults=faults,
    ))
    tills = [cluster.create(Till, node=cluster.nodes[i]) for i in range(2)]
    tellers = [cluster.create(Teller, node=node) for node in cluster.nodes]
    for index in range(48):
        teller = tellers[index % 4]
        till = tills[index % 2]
        name = ("pay", "pay", "settle", "bounce")[index % 4 if index % 7
                                                   else 2]
        cluster.submit(teller, name, till, index + 1,
                       node=cluster.nodes[index % 4],
                       delay=0.0005 * (index // 3))
    cluster.run()
    return cluster, cluster.txn_stats.commits


#: The tills' and tellers' committed values: tracked increments never
#: reach a trace, so the ledger's sums are pinned here.
STATES = {
    "increments": {0: {"balance": 291, "deposits": 48},
                   1: {"balance": 539, "deposits": 28},
                   2: {"served": 10}, 3: {"served": 11},
                   4: {"served": 0}, 5: {"served": 0}},
    "increments-crash": {0: {"balance": 471, "deposits": 36},
                         1: {"balance": 221, "deposits": 26},
                         2: {"served": 10}, 3: {"served": 10},
                         4: {"served": 0}, 5: {"served": 0}},
}


def test_increment_ledger_digest_is_golden():
    cluster, committed = _run_increments()
    assert _ledger_slots(cluster) > 0
    assert _digest(cluster, committed) == GOLDENS["increments"]
    assert cluster.state_digest() == STATES["increments"]


def test_increment_ledger_under_a_crash_digest_is_golden():
    cluster, committed = _run_increments(CRASHES)
    assert _ledger_slots(cluster) > 0
    assert cluster.fault_stats.crash_aborted_families > 0
    assert _digest(cluster, committed) == GOLDENS["increments-crash"]
    assert cluster.state_digest() == STATES["increments-crash"]
