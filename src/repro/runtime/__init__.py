"""Runtime: the public API tying substrates into a usable system.

Typical use::

    from repro.runtime import Cluster, ClusterConfig

    cluster = Cluster(ClusterConfig(num_nodes=4, protocol="lotec"))
    account = cluster.create(Account, initial={"balance": 100})
    cluster.call(account, "deposit", 50)
    assert cluster.read_attr(account, "balance") == 150

Root transactions are submitted with :meth:`Cluster.submit` (returning
a ticket) or the submit-and-run shorthand :meth:`Cluster.call`; the
cluster spreads roots over nodes round-robin — "the available
transactions need only be distributed across the available processors
to balance the computational load" (§2).
"""

from repro.runtime.config import ClusterConfig
from repro.runtime.cluster import Cluster, TxnTicket
from repro.runtime.context import InvocationRequest, TxnContext
from repro.runtime.executor import AccessAudit, CommitRecord
from repro.runtime.record import run_record
from repro.runtime.verify import (
    check_serializability,
    replay_serially,
)

__all__ = [
    "Cluster",
    "ClusterConfig",
    "TxnTicket",
    "TxnContext",
    "InvocationRequest",
    "CommitRecord",
    "AccessAudit",
    "check_serializability",
    "replay_serially",
    "run_record",
]
