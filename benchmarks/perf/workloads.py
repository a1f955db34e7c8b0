"""The four workloads: inputs from a seed, clusters, and the measured phase.

Imported only by the child interpreters (``child.py``); the parent in
``run.py`` never imports ``repro``, so its own timings stay clean.

A run is ``BATCHES`` batches or more; a batch is ``Spec.instances`` independent
instances run one after another on fresh clusters, and is what one
repeat of the measured phase executes.  The object world of an instance
(classes, page counts, object population) is fixed — generated from the
workload's ``world_seed`` — and ``--seed`` drives the traffic: the plan
trees, the clients and the arrival offsets.  NOISE.md has the
measurements behind these choices: one instance of 100-600 roots swings
25-40 % between seeds on latency percentiles and bytes per commit, and
small heaps are what keeps host time steady.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro import Cluster, ClusterConfig
from repro.gdo.migration import MigrationConfig
from repro.load import Load, LoadScenario, PoissonArrivals, build_load, run_load
from repro.net.message import MessageCategory
from repro.util.errors import TransactionAborted
from repro.workload import SCENARIOS, generate_workload, run_workload

#: Zipf open-loop scenario.  ``zipf-hot`` (64 clients, 100-170 MiB heap)
#: is what made PR 12's benchmark noisy; this one keeps its shape on a
#: quarter of the population.  Locality is 0.9, not zipf-hot's 0.8: at
#: 0.8 the median root latency sits on the edge between two network
#: steps (0.54 ms and 0.85 ms) and flips between seeds.
ZIPF_OPEN = LoadScenario(
    name="zipf-open", clients=16, num_objects=128, num_classes=8,
    pages_min=1, pages_max=3, skew=1.0, locality=0.9,
    arrivals=PoissonArrivals(rate_tps=1500.0), num_roots=600,
)


@dataclass(frozen=True)
class Spec:
    """One workload: what it runs and how large one repeat is."""

    name: str
    loop: str            # closed burst / paced / open / closed serial
    clock: str           # clock domain of latency and commits_per_s
    world_seed: int      # fixes the object world; also the default --seed
    instances: int       # independent instances per batch
    roots: int           # root transactions per instance
    nodes: int
    scenario: str = ""   # SCENARIOS key; "" means ZIPF_OPEN
    interarrival_s: Optional[float] = None
    transport: str = "sim"
    migration: bool = False
    batch_s: float = 3.0   # one batch on the reference box


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("fig2-deadlock", "closed burst", "virtual", 11,
             instances=5, roots=100, nodes=4, scenario="medium-high",
             batch_s=2.1),
        Spec("fig5-pages", "paced arrivals", "virtual", 11,
             instances=4, roots=200, nodes=8, scenario="large-moderate",
             interarrival_s=0.02, batch_s=2.25),
        Spec("zipf-open", "open loop, 1500 tps", "virtual", 7,
             instances=5, roots=600, nodes=16, migration=True, batch_s=1.95),
        Spec("tcp-closed", "closed loop, 1 client", "host", 11,
             instances=3, roots=100, nodes=4, scenario="medium-high",
             transport="tcp", batch_s=1.15),
    )
}


#: Fewest batches of a run.  Each repeat of the measured phase runs
#: another batch, so the simulated metrics pool several times the roots
#: that one repeat costs in host time.
BATCHES = 3


def batch_count(spec: Spec, seconds: float) -> int:
    """Batches for a ``--seconds`` budget: a function of the arguments
    alone, never of how fast the host is, so that the simulated metrics
    of a (seed, seconds) pair repeat exactly."""
    return max(BATCHES, round(seconds / spec.batch_s))


def instance_seeds(spec: Spec, seed: int, batch: int) -> List[int]:
    """Seeds of one batch's instances; no two runs or batches share one."""
    first = seed * 1000 + batch * spec.instances
    return list(range(first, first + spec.instances))


def build_inputs(spec: Spec, seed: int, batches: int,
                 size_factor: float = 1.0) -> List[List]:
    """Inputs of the first ``batches`` batches, one list per batch: the
    fixed world with seeded traffic."""
    roots = max(10, int(spec.roots * size_factor))
    if spec.scenario:
        params = replace(SCENARIOS[spec.scenario], num_roots=roots)
        if spec.interarrival_s is not None:
            params = replace(params, mean_interarrival_s=spec.interarrival_s)
        world = generate_workload(params, seed=spec.world_seed)

        def instance(sub):
            traffic = generate_workload(params, seed=sub)
            return world.with_plans(traffic.plans, traffic.arrival_offsets)
    else:
        scenario = replace(ZIPF_OPEN, num_roots=roots)
        world = build_load(scenario, seed=spec.world_seed).workload

        def instance(sub):
            traffic = build_load(scenario, seed=sub)
            return Load(
                scenario=scenario, seed=sub, clients=traffic.clients,
                workload=world.with_plans(traffic.workload.plans,
                                          traffic.workload.arrival_offsets),
            )
    return [
        [instance(sub) for sub in instance_seeds(spec, seed, batch)]
        for batch in range(batches)
    ]


def build_cluster(spec: Spec, sub_seed: int, trace: bool = False,
                  transport: Optional[str] = None) -> Cluster:
    return Cluster(ClusterConfig(
        num_nodes=spec.nodes, protocol="lotec", seed=sub_seed,
        audit_accesses=False, max_retries=25, trace=trace,
        migration=MigrationConfig() if spec.migration else None,
        transport=transport or spec.transport,
    ))


def _run_serial(cluster: Cluster, workload) -> int:
    """One client: submit a root, run to idle, read its result, repeat
    (the ``run_sequential`` pattern of tests/test_transport_tcp.py)."""
    handles = tuple(
        cluster.create(workload.class_of(index).schema)
        for index in range(workload.num_objects)
    )
    failed = 0
    for index, plan in enumerate(workload.plans):
        ticket = cluster.submit(handles[plan.obj_index], plan.method_name,
                                plan, handles, label=f"root{index}")
        cluster.run()
        try:
            ticket.result()
        except TransactionAborted:
            failed += 1
    return failed


#: The host's speed index: seconds a fixed pure-Python loop takes (the
#: idea of tools/bench_speed.py's calibrate()).  Host times are reported
#: scaled to the reference box in its quiet state, because the same box
#: ran this loop in 8 ms before noon and 12 ms after (NOISE.md).
CHUNK_ITERATIONS = 200_000
REFERENCE_CHUNK_S = 0.008


def calibration_chunk() -> float:
    started = time.perf_counter()
    acc = 0
    for i in range(CHUNK_ITERATIONS):
        acc += i & 7
    return time.perf_counter() - started


def speed_scale(chunks: List[float]) -> float:
    """Factor that turns host seconds measured around ``chunks`` into
    seconds at the reference speed."""
    return REFERENCE_CHUNK_S * len(chunks) / sum(chunks)


def drive(spec: Spec, cluster: Cluster, item) -> Tuple[float, Dict[str, float]]:
    """The measured phase of one instance: create the objects, submit
    every root, run to idle, read every result.  Returns the host
    seconds it took and the instance's counters."""
    open_loop = isinstance(item, Load)
    workload = item.workload if open_loop else item
    gc.collect()
    started = time.perf_counter()
    if spec.transport == "tcp":
        failed = _run_serial(cluster, item)
    elif open_loop:
        failed = run_load(cluster, item).failed
    else:
        failed = run_workload(cluster, item).failed
    elapsed = time.perf_counter() - started
    counters = snapshot(cluster)
    counters["submitted"] = len(workload.plans)
    counters["failed"] = failed
    if spec.clock == "host":
        counters["makespan_s"] = elapsed
    if open_loop:
        counters["arrival_span_s"] = workload.arrival_offsets[-1]
    return elapsed, counters


def snapshot(cluster: Cluster) -> Dict[str, float]:
    """Every counter the metrics are made of, as one flat dict that can
    be summed over instances.  All of it comes from the stats
    snapshots; ``latencies`` is the one list."""
    network = cluster.network_stats
    txn = cluster.txn_stats.snapshot()
    locks = cluster.lock_stats.snapshot()
    protocol = cluster.protocol.snapshot()
    migration = cluster.migration_stats
    lock_msgs = sum(
        network.category_messages(category)
        for category in (MessageCategory.LOCK_REQUEST,
                         MessageCategory.LOCK_GRANT,
                         MessageCategory.LOCK_RELEASE)
    )
    return {
        "commits": txn["commits"],
        "retries": txn["retries"],
        "makespan_s": cluster.env.now,
        "events": cluster.env.events_processed,
        "bytes": network.total_bytes,
        "messages": network.total_messages,
        "page_data_bytes": network.category_bytes(MessageCategory.PAGE_DATA),
        "lock_messages": lock_msgs,
        "directory_messages": network.directory_messages(),
        "deadlocks": locks["deadlocks"],
        "lock_waits": locks["waits"],
        "global_acquisitions": locks["global_acquisitions"],
        "local_acquisitions": locks["local_acquisitions"],
        "transferred_pages": protocol["transferred_pages"],
        "demand_fetches": protocol["demand_fetches"],
        "predicted_pages": protocol["predicted_pages"],
        "migrations": migration.migrations if migration else 0,
        "forwarded_requests": migration.forwarded_requests if migration else 0,
        "frames_delivered": len(getattr(cluster.network, "delivered_log", ())),
        "latencies": list(cluster.txn_stats.root_latencies),
    }


def add_counters(total: Dict[str, float], part: Dict[str, float]) -> None:
    for key, value in part.items():
        if key == "latencies":
            total.setdefault(key, []).extend(value)
        else:
            total[key] = total.get(key, 0) + value
