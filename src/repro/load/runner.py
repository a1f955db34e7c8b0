"""Driving a :class:`~repro.load.engine.Load` on a cluster.

The runner pins geography: client ``c`` submits from node
``nodes[c % num_nodes]``, and each client-block object is created
resident on its owning client's node.  Directory *homes* stay on the
round-robin partition (``object_id % num_nodes``) — deliberately
decorrelated from the blocks — so under the static policy nearly every
lock request is a remote directory message.  Adaptive migration
(:mod:`repro.gdo.migration`) is what closes that gap; this runner
produces the traffic that lets it.
"""

from __future__ import annotations

from repro.load.engine import Load
from repro.runtime.cluster import Cluster
from repro.workload.runner import WorkloadRun, _drive


def run_load(cluster: Cluster, load: Load) -> WorkloadRun:
    """Instantiate the object world, submit every arrival, run to idle.

    Arrivals are open-loop: every root is submitted up front with its
    pre-generated offset as ``delay``, so starts never wait on
    completions.  Aborted roots (deadlock-retry exhaustion) count as
    failed, as in :func:`~repro.workload.runner.run_workload`.
    """
    scenario = load.scenario
    workload = load.workload
    num_nodes = len(cluster.nodes)
    block_size = scenario.block_size
    owned = block_size * scenario.clients
    handles = []
    for index in range(workload.num_objects):
        if index < owned:
            # Resident where its owning client runs; the directory home
            # stays round-robin, which is the whole point.
            node = cluster.nodes[(index // block_size) % num_nodes]
        else:
            node = None  # remainder objects: round-robin placement
        handles.append(
            cluster.create(workload.class_of(index).schema, node=node)
        )
    nodes = [cluster.nodes[client % num_nodes] for client in load.clients]
    return _drive(cluster, workload, handles, "load", nodes)
