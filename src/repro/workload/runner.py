"""Running a generated workload on a cluster.

The same :class:`~repro.workload.generator.Workload` object can be run
against any number of clusters (one per protocol, plus ablation
variants): object creation order, plans, salts, and arrival times are
all pre-generated, so every cluster sees the identical load — the only
variable is the consistency protocol under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.runtime.cluster import Cluster, TxnTicket, never_finished
from repro.util.errors import ConfigurationError, TransactionAborted
from repro.util.ids import NodeId
from repro.workload.generator import Workload


@dataclass(init=False)
class WorkloadRun:
    """One workload execution: the cluster it ran on, the objects it
    created, its root tickets and how many roots failed.  Read it with
    :func:`~repro.runtime.record.run_record`."""

    cluster: Cluster
    handles: List
    tickets: List[TxnTicket]
    failed: int = 0

    def __init__(self, cluster: Cluster, handles: List,
                 tickets: List[TxnTicket], failed: int = 0):
        self.cluster = cluster
        self.handles = handles
        self.tickets = tickets
        self.failed = failed

    @property
    def committed(self) -> int:
        return self.cluster.txn_stats.commits


def run_workload(cluster: Cluster, workload: Workload) -> WorkloadRun:
    """Instantiate every object, submit every plan, run to completion.

    Root transactions that exhaust their deadlock-retry budget are
    counted as failed rather than raised: a workload run is an
    experiment, not a unit test.  A root left in flight once the run
    quiesced raises one ``ProtocolError``.
    """
    handles = [
        cluster.create(workload.class_of(index).schema)
        for index in range(workload.num_objects)
    ]
    return _drive(cluster, workload, handles, "root")


def _drive(cluster: Cluster, workload: Workload, handles: List,
           label_prefix: str,
           nodes: Optional[Sequence[NodeId]] = None) -> WorkloadRun:
    """Submit every plan of ``workload`` against ``handles`` — labelled
    ``{label_prefix}{index}``, delayed by its arrival offset, on
    ``nodes[index]`` (round-robin when ``nodes`` is ``None``) — run to
    idle, and count the roots that aborted for good as failed."""
    handle_table = tuple(handles)
    tickets = []
    for index, plan in enumerate(workload.plans):
        tickets.append(
            cluster.submit(
                handle_table[plan.obj_index], plan.method_name,
                plan, handle_table,
                node=None if nodes is None else nodes[index],
                label=f"{label_prefix}{index}",
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
        except ConfigurationError:
            if ticket.done:
                raise  # the root's own error
            # ``result()`` refuses a root still in flight: a liveness
            # failure, read here so the loop enters no extra frame.
            raise never_finished(tickets) from None
    return WorkloadRun(cluster=cluster, handles=handles, tickets=tickets,
                       failed=failed)
