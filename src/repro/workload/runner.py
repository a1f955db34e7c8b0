"""Running a generated workload on a cluster.

The same :class:`~repro.workload.generator.Workload` object can be run
against any number of clusters (one per protocol, plus ablation
variants): object creation order, plans, salts, and arrival times are
all pre-generated, so every cluster sees the identical load — the only
variable is the consistency protocol under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.runtime.cluster import Cluster, TxnTicket
from repro.util.errors import TransactionAborted
from repro.workload.generator import Workload


@dataclass
class WorkloadRun:
    """Everything observable about one workload execution."""

    cluster: Cluster
    handles: List
    tickets: List[TxnTicket]
    failed: int = 0

    @property
    def committed(self) -> int:
        return self.cluster.txn_stats.commits

    def summary(self) -> Dict[str, object]:
        """Everything needed to identify and compare this run from the
        summary alone — including the seed it was generated from and
        the deadlock count (consumers like ``repro run --out`` should not
        have to reach into ``cluster.lock_stats``)."""
        txn_stats = self.cluster.txn_stats
        fault_stats = self.cluster.fault_stats
        migration_stats = self.cluster.migration_stats
        return {
            "protocol": self.cluster.config.protocol,
            "seed": self.cluster.config.seed,
            "committed": self.committed,
            "failed": self.failed,
            "deadlocks": self.cluster.lock_stats.deadlocks,
            "sim_time": self.cluster.env.now,
            # Robustness accounting, hoisted to the top level so bench
            # envelopes of chaos runs are self-describing.
            "retries": txn_stats.retries,
            "messages_dropped": fault_stats.messages_dropped,
            "retransmissions": fault_stats.retransmissions,
            "lock_timeout_aborts": txn_stats.aborts_lock_timeout,
            "crash_aborted_families": fault_stats.crash_aborted_families,
            "partition_dropped": fault_stats.partition_dropped,
            "failovers": fault_stats.failovers,
            "failover_reroutes": fault_stats.failover_reroutes,
            "rejoin_replayed_records": fault_stats.rejoin_replayed_records,
            "forwarded_requests": (
                migration_stats.forwarded_requests
                if migration_stats is not None else 0
            ),
            **self.cluster.stats_summary(),
        }


def run_workload(cluster: Cluster, workload: Workload) -> WorkloadRun:
    """Instantiate every object, submit every plan, run to completion.

    Root transactions that exhaust their deadlock-retry budget are
    counted as failed rather than raised: a workload run is an
    experiment, not a unit test.
    """
    handles = [
        cluster.create(workload.class_of(index).schema)
        for index in range(workload.num_objects)
    ]
    handle_table = tuple(handles)
    tickets = []
    for index, plan in enumerate(workload.plans):
        tickets.append(
            cluster.submit(
                handle_table[plan.obj_index], plan.method_name,
                plan, handle_table,
                label=f"root{index}",
                delay=workload.arrival_offsets[index],
            )
        )
    cluster.run()
    failed = 0
    for ticket in tickets:
        try:
            ticket.result()
        except TransactionAborted:
            failed += 1
    return WorkloadRun(cluster=cluster, handles=handles, tickets=tickets,
                       failed=failed)
