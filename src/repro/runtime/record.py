"""The run record: one reading of a finished cluster, in JSON primitives.

Every driver that reports a run — the experiment builders, ``repro
run`` / ``repro load`` and the baseline gates — reads the cluster
through :func:`run_record`, so a counter added here reaches all of them
at once.
"""

from __future__ import annotations

import dataclasses
from typing import Dict


def run_record(cluster, run=None) -> Dict[str, object]:
    """Everything a finished run measured, as a plain JSON-native dict.

    ``run`` is the :class:`~repro.workload.runner.WorkloadRun` that
    drove the cluster, when there is one; without it ``failed`` is
    ``None``.  ``objects`` holds the traffic of every object that saw
    any, keyed by its creation index; ``metrics`` is present only when
    the run was traced.
    """
    config = cluster.config
    migration = cluster.migration_stats
    by_object = cluster.network_stats.objects
    record: Dict[str, object] = {
        "protocol": config.protocol,
        "seed": config.seed,
        "num_nodes": config.num_nodes,
        "transport": config.transport,
        "committed": cluster.txn_stats.commits,
        "failed": run.failed if run is not None else None,
        "sim_time": cluster.env.now,
        "events": cluster.env.events_processed,
        "network": cluster.network_stats.snapshot(),
        "transactions": cluster.txn_stats.snapshot(),
        "locks": cluster.lock_stats.snapshot(),
        "prediction": cluster.protocol.snapshot(),
        "cache": {"hit_rate": cluster.cache_stats.hit_rate},
        "faults": {
            "plan": config.faults.name if config.faults is not None else None,
            **cluster.fault_stats.snapshot(),
        },
        "migration": migration.snapshot() if migration is not None else None,
        "objects": {
            str(index): dataclasses.asdict(by_object[creation.object_id])
            for index, creation in enumerate(cluster.creation_log)
            if creation.object_id in by_object
        },
    }
    if cluster.tracer.enabled:
        # The registry rides inside the record, so the experiment
        # folds and the bench envelopes can read it without the cluster.
        record["metrics"] = cluster.metrics.snapshot()
    return record
