"""Serializability oracle.

O2PL here is *strict* (every lock is held to root commit/abort), so a
concurrent run must be equivalent to executing the committed roots
serially in commit order.  The oracle replays the recorded creations
and commits on a fresh single-node cluster and compares (a) the final
authoritative state of every object and (b) every root's return value.
Any divergence means a consistency or locking bug — this is the main
end-to-end correctness check of the reproduction, and every protocol
must pass it on random workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.runtime.cluster import Cluster
from repro.runtime.config import ClusterConfig
from repro.runtime.executor import freeze_args, thaw_args
from repro.util.ids import ObjectId


@dataclass
class VerificationReport:
    """Outcome of one serializability check."""

    equivalent: bool
    state_mismatches: List[str] = field(default_factory=list)
    result_mismatches: List[str] = field(default_factory=list)
    committed_roots: int = 0

    def __bool__(self) -> bool:
        return self.equivalent


def replay_serially(cluster: Cluster,
                    config: Optional[ClusterConfig] = None) -> Cluster:
    """Re-execute a cluster's committed history on one node, serially.

    Object ids are allocated in creation order on both clusters, so
    identity is preserved by construction.
    """
    if config is None:
        # faults=None: the serial oracle must replay the *committed*
        # history on a clean cluster — re-injecting the fault plan
        # would perturb (or, with crash events, outright reject) the
        # single-node replay.  tiebreak="fifo" likewise: the replay is
        # the reference, so it must not inherit a perturbed schedule.
        # transport="sim" always: the oracle is a deterministic
        # single-node re-execution, so real sockets would add nothing
        # but wall-clock time and nondeterminism.
        # semantic_locks=False: the replay is the *plain* serial
        # semantics every semantic grant must be equivalent to — the
        # oracle must not inherit the relaxation it is judging.
        # trace=False: the oracle compares states and results, so a
        # trace of the replay would be recorded for nobody to read.
        config = replace(
            cluster.config, num_nodes=1,
            audit_accesses=False, faults=None, tiebreak="fifo",
            transport="sim", semantic_locks=False, trace=False,
        )
    serial = Cluster(config)
    for record in cluster.creation_log:
        handle = serial.create(record.schema, initial=dict(record.initial))
        if handle.object_id != record.object_id:
            raise RuntimeError(
                f"replay id drift: {handle.object_id!r} vs {record.object_id!r}"
            )
    handles: Dict[int, object] = {}  # one handle per object, not per use

    def resolve(value: int):
        handle = handles.get(value)
        if handle is None:
            handle = handles[value] = serial.handle(ObjectId(value))
        return handle

    for record in cluster.commit_log:
        args = thaw_args(record.frozen_args, resolve)
        serial.call(resolve(record.object_id.value), record.method_name,
                    *args)
    return serial


def check_serializability(cluster: Cluster) -> VerificationReport:
    """Replay serially and diff states and results."""
    serial = replay_serially(cluster)
    report = VerificationReport(
        equivalent=True, committed_roots=len(cluster.commit_log)
    )
    concurrent_state = cluster.state_digest()
    serial_state = serial.state_digest()
    for object_value in sorted(set(concurrent_state) | set(serial_state)):
        left = concurrent_state.get(object_value)
        right = serial_state.get(object_value)
        if left != right:
            report.equivalent = False
            report.state_mismatches.append(
                f"O{object_value}: concurrent={left!r} serial={right!r}"
            )
    for index, (concurrent_rec, serial_rec) in enumerate(
        zip(cluster.commit_log, serial.commit_log)
    ):
        if freeze_args(concurrent_rec.result) != freeze_args(serial_rec.result):
            report.equivalent = False
            report.result_mismatches.append(
                f"commit #{index} ({concurrent_rec.method_name}): "
                f"concurrent={concurrent_rec.result!r} "
                f"serial={serial_rec.result!r}"
            )
    return report
