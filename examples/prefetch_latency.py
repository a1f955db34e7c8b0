#!/usr/bin/env python
"""Optimistic lock pre-acquisition / prefetching (§5.1, implemented).

A document-pipeline workload where each root transaction names the
objects it will touch up front (the arguments carry the handles) and
nests several invocations — the regime where remote lock round trips
dominate latency.  The prefetcher pre-acquires the predicted objects'
locks concurrently (non-blocking: a busy lock is simply skipped) and,
in ``locks+pages`` mode, pre-fetches their stale pages too —
"performing these operations in parallel with other operations
effectively hides the latency of remote lock acquisition."

Run:  python examples/prefetch_latency.py
"""

import math

from repro import Attr, Cluster, ClusterConfig, method, shared_class
from repro.net.presets import preset_network


@shared_class
class Stage:
    """One pipeline stage: a counter plus a payload it stamps."""

    processed = Attr(size=2048, default=0)
    checksum = Attr(size=2048, default=0)

    @method
    def process(self, ctx, token):
        self.processed += 1
        self.checksum = (self.checksum * 31 + token) % (1 << 31)
        return self.checksum


@shared_class
class Pipeline:
    runs = Attr(size=512, default=0)

    @method
    def push(self, ctx, stages, token):
        for stage in stages:
            token = yield ctx.invoke(stage, "process", token)
        self.runs += 1
        return token


def run_pipeline(prefetch: str, seed: int = 4):
    cluster = Cluster(ClusterConfig(
        num_nodes=4, protocol="lotec", seed=seed, prefetch=prefetch,
        network=preset_network("100Mbps", "100us"),
    ))
    pipelines = [cluster.create(Pipeline) for _ in range(4)]
    stage_sets = [
        tuple(cluster.create(Stage) for _ in range(5)) for _ in range(4)
    ]
    for index in range(40):
        lane = index % 4
        cluster.submit(pipelines[lane], "push", stage_sets[lane], index,
                       delay=index * 0.0008)
    cluster.run()
    return cluster


def main() -> None:
    print(f"{'prefetch':>12}  {'mean latency (us)':>17}  {'p95 (us)':>9}  "
          f"{'messages':>8}  {'granted':>7}  {'denied':>6}")
    latencies = {}
    messages = {}
    for mode in ("off", "locks", "locks+pages"):
        cluster = run_pipeline(mode)
        stats = cluster.txn_stats
        latencies[mode] = stats.mean_latency
        ordered = sorted(stats.root_latencies)
        p95 = ordered[math.ceil(0.95 * len(ordered)) - 1]  # nearest rank
        messages[mode] = cluster.network_stats.total_messages
        print(f"{mode:>12}  {stats.mean_latency * 1e6:>17.0f}  "
              f"{p95 * 1e6:>9.0f}  "
              f"{cluster.network_stats.total_messages:>8}  "
              f"{cluster.lock_stats.prefetch_granted:>7}  "
              f"{cluster.lock_stats.prefetch_denied:>6}")
    saving = 1 - latencies["locks+pages"] / latencies["off"]
    print(f"\nlocks+pages hides {saving:.0%} of mean root latency on this "
          f"pipeline: the same lock and page round trips happen, but off "
          f"the\ncritical path (here every prefetch was granted, so the "
          f"message count\nis unchanged; contended workloads pay extra "
          f"messages for denied optimism)")


if __name__ == "__main__":
    main()
