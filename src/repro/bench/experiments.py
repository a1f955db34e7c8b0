"""The experiment table: one declaration per paper figure, table, claim
and ablation.

An experiment is declared, not hand-run.  Its entry in
:data:`EXPERIMENTS` turns ``seed`` / ``scale`` / ``num_nodes`` and the
experiment's own keyword options into an
:class:`~repro.bench.parallel.ExperimentPlan`: the
:class:`~repro.bench.parallel.RunSpec` list of cluster runs under
comparison (identical load, only the knob under study differs) plus the
fold of their measurements into the series the paper plots.  Most
experiments share one shape — one run per variant, one series per named
metric of :data:`METRICS` — and are declared through :func:`_compare`;
the figures and sweeps with their own x axis fold themselves.

There is one way to run any of them:
:func:`~repro.bench.parallel.run_experiment` (or an
:class:`~repro.bench.parallel.ExperimentRunner`, for a process pool and
the on-disk result cache).  ``scale`` shrinks the root-transaction count
so the same declaration serves unit tests, benches and full-size runs.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.parallel import ExperimentPlan, RunSpec
from repro.bench.report import format_bar_chart, format_series_table
from repro.gdo.migration import MigrationConfig
from repro.net.presets import FAST_ETHERNET_100M, SOFTWARE_COSTS, preset_network
from repro.runtime.cluster import Cluster
from repro.runtime.config import ClusterConfig
from repro.runtime.record import run_record
from repro.workload.generator import generate_workload
from repro.workload.params import SCENARIOS, WorkloadParams
from repro.workload.runner import run_workload

THREE_PROTOCOLS = ("cotec", "otec", "lotec")
FOUR_PROTOCOLS = ("cotec", "otec", "lotec", "rc")
FIVE_PROTOCOLS = ("cotec", "otec", "lotec", "hlotec", "rc")

#: Cluster size when a caller does not choose one.
DEFAULT_NODES = 4

#: Version of the JSON envelope written by
#: :meth:`ExperimentResult.to_json` (the ``BENCH_*.json`` format).
RESULT_SCHEMA_VERSION = 1


def _json_safe(value) -> bool:
    try:
        json.dumps(value)
        return True
    except (TypeError, ValueError):
        return False


@dataclass
class ExperimentResult:
    """Series data plus run metadata for one experiment."""

    experiment: str
    x_label: str
    series: Dict[str, Dict[str, object]]
    meta: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        return format_series_table(self.experiment, self.x_label, self.series)

    def render_chart(self, width: int = 48) -> str:
        """ASCII bar-chart view of the same series (the paper's bars)."""
        return format_bar_chart(self.experiment, self.series, width=width)

    def totals(self) -> Dict[str, float]:
        """Sum of each series over all x values (numeric entries)."""
        return {
            name: sum(v for v in points.values() if isinstance(v, (int, float)))
            for name, points in self.series.items()
        }

    def to_json(self) -> Dict[str, object]:
        """The stable on-disk form (``BENCH_*.json`` trajectory files):
        a versioned envelope around the series, with any
        non-JSON-serializable meta entries dropped."""
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "experiment": self.experiment,
            "x_label": self.x_label,
            "series": self.series,
            "meta": {
                key: value
                for key, value in self.meta.items()
                if _json_safe(value)
            },
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "ExperimentResult":
        schema = data.get("schema")
        if schema != RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported result schema {schema!r} "
                f"(this build reads schema {RESULT_SCHEMA_VERSION})"
            )
        return cls(
            experiment=data["experiment"],
            x_label=data["x_label"],
            series=data["series"],
            meta=dict(data.get("meta", {})),
        )


# ---------------------------------------------------------------------------
# Runs: what one RunSpec executes and measures
# ---------------------------------------------------------------------------

def _workload_run(spec: RunSpec) -> Dict[str, object]:
    """The standard run: the spec's generated workload on a fresh
    cluster."""
    if spec.params is None:
        raise ValueError(f"spec {spec.key!r} has neither workload params "
                         f"nor a custom builder")
    workload = generate_workload(spec.params, seed=spec.seed)
    cluster = Cluster(spec.config)
    return run_record(cluster, run_workload(cluster, workload))


def _aggregation_run(spec: RunSpec) -> Dict[str, object]:
    """One granularity variant of the aggregation experiment: the same
    logical work — bump every element of a group — against either
    ``group_size`` separate single-attribute objects ("fine") or one
    aggregated object holding the group as an array ("coarse")."""
    from repro import Array, Attr, method, shared_class

    args = dict(spec.builder_args)
    variant = args["variant"]
    group_size = args["group_size"]
    num_groups = args["num_groups"]
    rounds = args["rounds"]
    num_nodes = spec.config.num_nodes

    @shared_class
    class FineItem:
        value = Attr(size=256, default=0)

        @method
        def bump(self, ctx, amount):
            self.value += amount
            return self.value

    @shared_class
    class GroupTask:
        runs = Attr(size=8, default=0)

        @method
        def touch_group(self, ctx, items, amount):
            total = 0
            for item in items:
                total += yield ctx.invoke(item, "bump", amount)
            self.runs += 1
            return total

    @shared_class
    class Composite:
        values = Array(size=256, count=group_size, default=0)
        runs = Attr(size=8, default=0)

        @method
        def bump_all(self, ctx, amount):
            total = 0
            for index in range(len(self.values)):
                self.values[index] += amount
                total += self.values[index]
            self.runs += 1
            return total

    cluster = Cluster(spec.config)
    if variant == "fine":
        # Fine granularity: one object per element.
        tasks = [cluster.create(GroupTask) for _ in range(num_groups)]
        groups = [
            tuple(cluster.create(FineItem) for _ in range(group_size))
            for _ in range(num_groups)
        ]
        for round_index in range(rounds):
            for group_index in range(num_groups):
                # Rotate the executing node each round so lock
                # ownership genuinely moves between sites.
                node = cluster.nodes[
                    (group_index + round_index) % num_nodes
                ]
                cluster.submit(
                    tasks[group_index], "touch_group",
                    groups[group_index], round_index,
                    node=node, delay=round_index * 0.001,
                )
        cluster.run()
        state_sum = sum(
            cluster.read_attr(item, "value")
            for group in groups for item in group
        )
    elif variant == "coarse":
        # Coarse granularity: the group aggregated into one object.
        composites = [
            cluster.create(Composite) for _ in range(num_groups)
        ]
        for round_index in range(rounds):
            for composite_index, composite in enumerate(composites):
                node = cluster.nodes[
                    (composite_index + round_index) % num_nodes
                ]
                cluster.submit(composite, "bump_all", round_index,
                               node=node, delay=round_index * 0.001)
        cluster.run()
        state_sum = sum(
            sum(cluster.read_attr(composite, "values"))
            for composite in composites
        )
    else:
        raise ValueError(f"unknown aggregation variant {variant!r}")
    measurement = run_record(cluster)
    measurement["state_sum"] = state_sum
    return measurement


def _load_run(spec: RunSpec) -> Dict[str, object]:
    """One open-loop load execution (:mod:`repro.load`).  The load is
    rebuilt inside the worker (generation is deterministic and cheap),
    so the spec stays a small picklable value."""
    from repro.load import build_load, run_load

    args = dict(spec.builder_args)
    load = build_load(args["scenario"], seed=args["seed"],
                      scale=args["scale"])
    cluster = Cluster(spec.config)
    return run_record(cluster, run_load(cluster, load))


#: How a :class:`~repro.bench.parallel.RunSpec` runs, by its ``builder``
#: name: a function of the spec returning its
#: :func:`~repro.runtime.record.run_record` (the measurement).
BUILDERS: Dict[str, Callable[[RunSpec], Dict[str, object]]] = {
    "workload": _workload_run,
    "aggregation": _aggregation_run,
    "load": _load_run,
}


# ---------------------------------------------------------------------------
# Metrics: named reads of one measurement
# ---------------------------------------------------------------------------

def _network(name: str):
    return lambda m: m["network"][name]


def _locks(name: str):
    return lambda m: m["locks"][name]


def _category(category: str, name: str):
    return lambda m: m["network"][f"by_category_{name}"].get(category, 0)


def _per(numerator, denominator):
    return lambda m: numerator(m) / denominator(m) if denominator(m) else 0


_DATA_BYTES = _network("consistency_bytes")
_TOTAL_BYTES = _network("total_bytes")
_TOTAL_MESSAGES = _network("total_messages")
_LOCK_MESSAGES = tuple(
    _category(category, "messages")
    for category in ("lock_request", "lock_grant", "lock_release")
)

#: Series name -> its value in one measurement.  ``data_bytes`` is the
#: paper's "bytes transferred to maintain consistency".
METRICS: Dict[str, Callable[[Dict], object]] = {
    "committed": lambda m: m["committed"],
    "failed": lambda m: m["failed"],
    "data_bytes": _DATA_BYTES,
    "bytes": _TOTAL_BYTES,
    "total_bytes": _TOTAL_BYTES,
    "messages": _TOTAL_MESSAGES,
    "total_messages": _TOTAL_MESSAGES,
    "mean_message_bytes": _per(_TOTAL_BYTES, _TOTAL_MESSAGES),
    "data_messages": _network("data_messages"),
    "mean_data_message_bytes": _per(_DATA_BYTES, _network("data_messages")),
    "remote_directory_messages": _network("directory_messages"),
    "lock_messages": lambda m: sum(count(m) for count in _LOCK_MESSAGES),
    "push_bytes": _category("update_push", "bytes"),
    "push_messages": _category("update_push", "messages"),
    "local_ops": _locks("local_acquisitions"),
    "global_lock_ops": _locks("global_acquisitions"),
    "prefetch_granted": _locks("prefetch_granted"),
    "prefetch_denied": _locks("prefetch_denied"),
    "deadlocks": _locks("deadlocks"),
    "cache_hit_rate": lambda m: round(m["cache"]["hit_rate"], 4),
    "mean_latency_us": lambda m: m["transactions"]["mean_latency"] * 1e6,
    "sim_time_ms": lambda m: m["sim_time"] * 1e3,
    "migrations": lambda m: (
        m["migration"]["migrations"] if m.get("migration") else 0
    ),
}


# ---------------------------------------------------------------------------
# Declaration helpers
# ---------------------------------------------------------------------------

def _scenario_params(scenario: str, scale: float) -> WorkloadParams:
    try:
        params = SCENARIOS[scenario]
    except KeyError:
        raise KeyError(
            f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    return params.scaled(scale)


def _specs(variants: Dict[str, Dict[str, object]], seed: int,
           num_nodes: Optional[int], params: Optional[WorkloadParams] = None,
           **run) -> List[RunSpec]:
    """One run per variant — label -> ``ClusterConfig`` overrides — on
    the same load; ``run`` names a custom builder and its arguments."""
    nodes = DEFAULT_NODES if num_nodes is None else num_nodes
    return [
        RunSpec(
            key=label,
            config=ClusterConfig(num_nodes=nodes, seed=seed, **overrides),
            params=params, seed=seed, **run,
        )
        for label, overrides in variants.items()
    ]


def _protocols(protocols: Sequence[str]) -> Dict[str, Dict[str, object]]:
    return {protocol: {"protocol": protocol} for protocol in protocols}


def _compare(title: str, specs: List[RunSpec], metrics: Sequence[str], *,
             x_label: str = "metric",
             meta: Optional[Callable[[Dict[str, Dict]], Dict]] = None,
             ) -> ExperimentPlan:
    """The shape most experiments share: ``series[metric][run key]``
    for each named metric of :data:`METRICS`; ``meta`` derives extra
    metadata from ``{run key: measurement}``."""

    def collect(measurements: List[Dict]) -> ExperimentResult:
        by_key = {spec.key: m for spec, m in zip(specs, measurements)}
        return ExperimentResult(
            experiment=title,
            x_label=x_label,
            series={
                metric: {key: METRICS[metric](m) for key, m in by_key.items()}
                for metric in metrics
            },
            meta=meta(by_key) if meta is not None else {},
        )

    return ExperimentPlan(specs, collect)


def _object_field(measurement: Dict, index: int, name: str, default=0):
    traffic = measurement["objects"].get(str(index))
    return traffic[name] if traffic is not None else default


def _select_objects(measurement: Dict, num_objects: int,
                    count: int) -> List[int]:
    """The paper plots "various shared objects ... selected to reflect
    a variety of reference patterns": the ``count`` objects with the
    most traffic (a stable ranking, so ties keep object-id order),
    returned in object-id order."""
    ranked = sorted(
        range(num_objects),
        key=lambda index: -_object_field(measurement, index, "bytes"),
    )
    return sorted(ranked[:count])


# ---------------------------------------------------------------------------
# The declarations.  Every one takes seed, scale and num_nodes
# (``None`` = the experiment's own topology) plus its keyword options.
# ---------------------------------------------------------------------------

def _bytes_figure(seed, scale, num_nodes, scenario: str,
                  objects_shown: int = 15,
                  protocols: Sequence[str] = THREE_PROTOCOLS,
                  ) -> ExperimentPlan:
    """Figures 2-5: per-object consistency bytes under each protocol."""
    params = _scenario_params(scenario, scale)
    specs = _specs(_protocols(protocols), seed, num_nodes, params)

    def collect(measurements: List[Dict]) -> ExperimentResult:
        by_protocol = {spec.key: m for spec, m in zip(specs, measurements)}
        # Choose the displayed objects from the baseline run so every
        # protocol reports the same x axis.
        shown = _select_objects(
            measurements[0], params.num_objects, objects_shown
        )

        def per_protocol(read) -> Dict[str, object]:
            return {p: read(m) for p, m in by_protocol.items()}

        return ExperimentResult(
            experiment=f"bytes per shared object — {scenario}",
            x_label="object",
            series=per_protocol(lambda m: {
                f"O{index}": _object_field(m, index, "data_bytes")
                for index in shown
            }),
            meta={
                "scenario": scenario,
                "committed": per_protocol(METRICS["committed"]),
                "failed": per_protocol(METRICS["failed"]),
                "total_data_bytes": per_protocol(METRICS["data_bytes"]),
                "total_messages": per_protocol(METRICS["total_messages"]),
            },
        )

    return ExperimentPlan(specs, collect)


def _time_figure(seed, scale, num_nodes, bandwidth: str,
                 scenario: str = "large-high",
                 software_costs: Sequence[str] = tuple(SOFTWARE_COSTS),
                 protocols: Sequence[str] = THREE_PROTOCOLS,
                 ) -> ExperimentPlan:
    """Figures 6-8: total message time across per-message software
    costs at a fixed bandwidth."""
    params = _scenario_params(scenario, scale)
    points = [(cost, protocol)
              for cost in software_costs for protocol in protocols]
    specs = _specs(
        {
            f"{protocol}@{cost}": {
                "protocol": protocol,
                "network": preset_network(bandwidth, cost),
            }
            for cost, protocol in points
        },
        seed, num_nodes, params,
    )

    def collect(measurements: List[Dict]) -> ExperimentResult:
        series: Dict[str, Dict[str, object]] = {p: {} for p in protocols}
        hot_series: Dict[str, Dict[str, float]] = {p: {} for p in protocols}
        # The hot object is picked once, from the first run, so every
        # sweep point traces the same object.
        hot_index = _select_objects(measurements[0], params.num_objects, 1)[0]
        for (cost, protocol), m in zip(points, measurements):
            # Cluster-wide total message time in microseconds (the
            # stable aggregate of the per-object quantity the paper
            # plots; single-object traces for the hottest object are
            # kept in meta, but retry nondeterminism across sweep
            # points makes them noisy).
            series[protocol][cost] = m["network"]["total_time"] * 1e6
            hot_series[protocol][cost] = (
                _object_field(m, hot_index, "time", 0.0) * 1e6
            )
        return ExperimentResult(
            experiment=f"total message time (us) @ {bandwidth}",
            x_label="software cost",
            series=series,
            meta={"bandwidth": bandwidth, "hot_object": hot_index,
                  "hot_object_series": hot_series, "scenario": scenario},
        )

    return ExperimentPlan(specs, collect)


def _claims_reduction(seed, scale, num_nodes,
                      scenarios: Sequence[str] = tuple(SCENARIOS),
                      ) -> ExperimentPlan:
    """§5: "OTEC generally outperforms COTEC by approximately 20-25%
    while LOTEC outperforms OTEC by another 5-10%" — aggregate
    consistency bytes per scenario, with reduction percentages."""
    specs = [
        spec
        for scenario in scenarios
        for spec in _specs(
            {f"{p}@{scenario}": {"protocol": p} for p in THREE_PROTOCOLS},
            seed, num_nodes, _scenario_params(scenario, scale),
        )
    ]

    def collect(measurements: List[Dict]) -> ExperimentResult:
        data_bytes = {
            spec.key: METRICS["data_bytes"](m)
            for spec, m in zip(specs, measurements)
        }
        series: Dict[str, Dict[str, object]] = {
            p: {s: data_bytes[f"{p}@{s}"] for s in scenarios}
            for p in THREE_PROTOCOLS
        }
        reductions = {
            s: {
                "otec_vs_cotec": 1 - series["otec"][s] / series["cotec"][s],
                "lotec_vs_otec": 1 - series["lotec"][s] / series["otec"][s],
            }
            for s in scenarios
        }
        return ExperimentResult(
            experiment="aggregate consistency bytes per scenario",
            x_label="scenario",
            series=series,
            meta={"reductions": reductions},
        )

    return ExperimentPlan(specs, collect)


def _claims_messages(seed, scale, num_nodes,
                     scenario: str = "large-high") -> ExperimentPlan:
    """§5: "LOTEC also sends many more messages (albeit small ones) than
    OTEC or COTEC" — message counts and mean message size."""
    return _compare(
        f"message counts vs sizes — {scenario}",
        _specs(_protocols(THREE_PROTOCOLS), seed, num_nodes,
               _scenario_params(scenario, scale)),
        ("messages", "bytes", "mean_message_bytes"),
        meta=lambda _: {"scenario": scenario},
    )


def _protocol_comparison(seed, scale, num_nodes,
                         scenario: str = "medium-high") -> ExperimentPlan:
    """The four protocols side by side on one scenario (``repro
    compare``): commits, aborts, consistency bytes, messages, mean root
    latency and deadlocks."""
    return _compare(
        f"protocol comparison — {scenario}",
        _specs(_protocols(FOUR_PROTOCOLS), seed, num_nodes,
               _scenario_params(scenario, scale)),
        ("committed", "failed", "data_bytes", "messages",
         "mean_latency_us", "deadlocks"),
        x_label="protocol", meta=lambda _: {"scenario": scenario},
    )


def _claims_locality(seed, scale, num_nodes, scenario: str = "zipf-hot",
                     migration: Optional[MigrationConfig] = None,
                     ) -> ExperimentPlan:
    """Adaptive GDO home migration vs the paper's static round-robin
    partition (§4.1) under a skewed open-loop load: remote directory
    messages, migration counts, and per-shard SLO tables.  The committed
    baseline ``benchmarks/baselines/claims_locality.json`` requires the
    migration run to cut remote directory messages by at least 30%.
    The default topology is one node per scenario client."""
    from repro.load import LOAD_SCENARIOS, shard_slo_series

    try:
        clients = LOAD_SCENARIOS[scenario].clients
    except KeyError:
        raise KeyError(
            f"unknown load scenario {scenario!r}; "
            f"choose from {sorted(LOAD_SCENARIOS)}"
        ) from None
    specs = _specs(
        {
            "static": {"trace": True},
            "adaptive": {"trace": True,
                         "migration": migration or MigrationConfig()},
        },
        seed, clients if num_nodes is None else num_nodes,
        builder="load",
        builder_args=(("scenario", scenario), ("seed", seed),
                      ("scale", scale)),
    )

    def meta(by_key: Dict[str, Dict]) -> Dict[str, object]:
        remote = METRICS["remote_directory_messages"]
        static, adaptive = remote(by_key["static"]), remote(by_key["adaptive"])
        reduction = 1 - adaptive / static if static else 0.0
        return {
            "scenario": scenario,
            "directory_message_reduction": round(reduction, 4),
            "migration": by_key["adaptive"].get("migration"),
            "slo": {
                key: shard_slo_series(m["metrics"])
                for key, m in by_key.items() if "metrics" in m
            },
        }

    return _compare(
        f"directory locality (static vs adaptive) — {scenario}", specs,
        ("remote_directory_messages", "total_messages", "committed",
         "failed", "migrations"),
        x_label="policy", meta=meta,
    )


def _rc_ablation(seed, scale, num_nodes,
                 scenario: str = "medium-high") -> ExperimentPlan:
    """§6 future work: nested-object Release Consistency (and the
    home-based scope-consistency variant) versus the COTEC/OTEC/LOTEC
    suite."""
    return _compare(
        f"RC extension vs lazy protocols — {scenario}",
        _specs(_protocols(FIVE_PROTOCOLS), seed, num_nodes,
               _scenario_params(scenario, scale)),
        ("data_bytes", "messages"),
        meta=lambda _: {"scenario": scenario},
    )


def _object_grain_ablation(seed, scale, num_nodes,
                           scenario: str = "medium-high") -> ExperimentPlan:
    """§4.2: page-grain vs object-grain (DSD) transfer under LOTEC — the
    false-sharing-free mode ships only object bytes, not whole pages."""
    return _compare(
        f"LOTEC transfer grain (page vs object/DSD) — {scenario}",
        _specs({grain: {"transfer_grain": grain}
                for grain in ("page", "object")},
               seed, num_nodes, _scenario_params(scenario, scale)),
        ("data_bytes", "messages", "data_messages",
         "mean_data_message_bytes"),
        meta=lambda _: {"scenario": scenario},
    )


def _prediction_ablation(seed, scale, num_nodes,
                         fractions: Sequence[Tuple[float, float]] = (
                             (0.1, 0.2), (0.2, 0.5), (0.5, 0.8), (0.9, 1.0),
                         )) -> ExperimentPlan:
    """Design choice: how LOTEC's advantage over OTEC varies with the
    fraction of an object each method accesses.  Methods touching
    nearly everything erase the gap (prediction ~ whole object); narrow
    methods widen it."""
    base = _scenario_params("large-high", scale)
    labels = [f"{low:.0%}-{high:.0%}" for low, high in fractions]
    specs = [
        spec
        for label, fraction in zip(labels, fractions)
        for spec in _specs(
            {f"{p}@{label}": {"protocol": p} for p in ("otec", "lotec")},
            seed, num_nodes,
            dataclasses.replace(base, access_fraction=tuple(fraction)),
        )
    ]

    def collect(measurements: List[Dict]) -> ExperimentResult:
        by_key = {spec.key: m for spec, m in zip(specs, measurements)}
        series: Dict[str, Dict[str, object]] = {
            "otec_bytes": {}, "lotec_bytes": {}, "lotec_saving": {},
            "demand_fetches": {},
        }
        for label in labels:
            otec = METRICS["data_bytes"](by_key[f"otec@{label}"])
            lotec = METRICS["data_bytes"](by_key[f"lotec@{label}"])
            series["otec_bytes"][label] = otec
            series["lotec_bytes"][label] = lotec
            series["lotec_saving"][label] = round(1 - lotec / otec, 4)
            series["demand_fetches"][label] = (
                by_key[f"lotec@{label}"]["prediction"]["demand_fetches"]
            )
        return ExperimentResult(
            experiment="LOTEC saving vs method access fraction",
            x_label="access fraction",
            series=series,
        )

    return ExperimentPlan(specs, collect)


def _gdo_cache_ablation(seed, scale, num_nodes,
                        scenario: str = "medium-high") -> ExperimentPlan:
    """Design choice: holder-list caching at the holding site (§4.1's
    local/global split) versus sending every lock operation to the GDO
    home node."""
    return _compare(
        f"GDO holder-list caching — {scenario}",
        _specs({"cached": {"gdo_cache_enabled": True},
                "uncached": {"gdo_cache_enabled": False}},
               seed, num_nodes, _scenario_params(scenario, scale)),
        ("lock_messages", "total_messages", "local_ops", "cache_hit_rate"),
        meta=lambda _: {"scenario": scenario},
    )


def _multicast_ablation(seed, scale, num_nodes,
                        scenario: str = "medium-high") -> ExperimentPlan:
    """§6: "the use of multicast-capable networks" — eager RC pushes
    collapse from one unicast per replica to a single transmission."""
    return _compare(
        f"RC update pushes, unicast vs multicast — {scenario}",
        _specs(
            {
                label: {
                    "protocol": "rc",
                    "network": FAST_ETHERNET_100M.with_multicast(multicast),
                }
                for label, multicast in (("unicast", False),
                                         ("multicast", True))
            },
            seed, num_nodes, _scenario_params(scenario, scale),
        ),
        ("push_bytes", "push_messages", "total_bytes"),
        meta=lambda _: {"scenario": scenario},
    )


def _prefetch_ablation(seed, scale, num_nodes,
                       software_cost: str = "100us") -> ExperimentPlan:
    """§5.1/§6: optimistic pre-acquisition and object prefetching
    "effectively hides the latency of remote lock acquisition".  A
    low-contention, deeply nested workload (prefetch's favourable
    regime: many lock round trips, few conflicts): mean root latency
    against message cost for each prefetch mode."""
    params = WorkloadParams(
        num_objects=60, num_classes=4, num_roots=max(6, int(30 * scale)),
        pages_min=1, pages_max=3, max_depth=3, mean_branch=3.0,
        skew=0.0, mean_interarrival_s=0.001,
    )
    network = preset_network("100Mbps", software_cost)
    return _compare(
        "optimistic pre-acquisition / prefetch (low contention)",
        _specs({mode: {"prefetch": mode, "network": network}
                for mode in ("off", "locks", "locks+pages")},
               seed, num_nodes, params),
        ("mean_latency_us", "messages", "prefetch_granted",
         "prefetch_denied", "deadlocks"),
    )


def _per_class_ablation(seed, scale, num_nodes,
                        scenario: str = "medium-high") -> ExperimentPlan:
    """§6: per-class consistency protocols.  Put the single hottest
    class on RC (its updates push eagerly to readers) while the rest
    stay on LOTEC, and compare against the pure configurations."""
    params = _scenario_params(scenario, scale)
    # Workload generation is deterministic and cheap relative to a run,
    # so the declaration regenerates it locally to learn class names.
    classes = [info.schema.name
               for info in generate_workload(params, seed=seed).classes]
    return _compare(
        f"per-class protocol mix (hot class on RC) — {scenario}",
        _specs(
            {
                "lotec": {"class_protocols": ()},
                "mixed": {"class_protocols": ((classes[0], "rc"),)},
                "rc": {"class_protocols": tuple(
                    (name, "rc") for name in classes
                )},
            },
            seed, num_nodes, params,
        ),
        ("data_bytes", "messages"),
        meta=lambda _: {"hot_class": classes[0]},
    )


def _aggregation_ablation(seed, scale, num_nodes, group_size: int = 8,
                          num_groups: int = 8) -> ExperimentPlan:
    """§5.1: "Heavily object-based environments can sometimes aggregate
    related small objects into larger objects for the purpose of
    decreasing the cost of concurrency control and consistency
    maintenance."  The same logical work against ``group_size``
    separate single-attribute objects (one lock acquisition per
    element) and against one aggregated object holding the group as an
    array."""
    rounds = max(2, int(12 * scale))
    specs = [
        spec
        for variant in ("fine", "coarse")
        for spec in _specs(
            {variant: {}}, seed, num_nodes, builder="aggregation",
            builder_args=(("variant", variant), ("group_size", group_size),
                          ("num_groups", num_groups), ("rounds", rounds)),
        )
    ]
    return _compare(
        f"object aggregation ({num_groups} groups x {group_size} "
        f"elements, {rounds} rounds)",
        specs,
        ("global_lock_ops", "lock_messages", "total_messages", "data_bytes"),
        meta=lambda by_key: {
            "fine_state_sum": by_key["fine"]["state_sum"],
            "coarse_state_sum": by_key["coarse"]["state_sum"],
        },
    )


#: Experiment id -> its declaration (the CLI's experiment ids).
EXPERIMENTS: Dict[str, Callable[..., ExperimentPlan]] = {
    "fig2": partial(_bytes_figure, scenario="medium-high"),
    "fig3": partial(_bytes_figure, scenario="large-high"),
    "fig4": partial(_bytes_figure, scenario="medium-moderate"),
    "fig5": partial(_bytes_figure, scenario="large-moderate"),
    "fig6": partial(_time_figure, bandwidth="10Mbps"),
    "fig7": partial(_time_figure, bandwidth="100Mbps"),
    "fig8": partial(_time_figure, bandwidth="1Gbps"),
    "tab-speedup": _claims_reduction,
    "msg-count": _claims_messages,
    "compare": _protocol_comparison,
    "abl-rc": _rc_ablation,
    "abl-dsd": _object_grain_ablation,
    "abl-predict": _prediction_ablation,
    "abl-gdocache": _gdo_cache_ablation,
    "abl-aggregate": _aggregation_ablation,
    "abl-multicast": _multicast_ablation,
    "abl-prefetch": _prefetch_ablation,
    "abl-perclass": _per_class_ablation,
    "claims-locality": _claims_locality,
}


def build_plan(experiment_id: str, *, seed: int = 11, scale: float = 1.0,
               num_nodes: Optional[int] = None, **options) -> ExperimentPlan:
    """The plan of one experiment in :data:`EXPERIMENTS`.  ``options``
    reach its declaration (``scenario``, ``protocols``,
    ``software_costs``, ...); an option it does not take is a
    ``TypeError``.  ``num_nodes=None`` keeps the experiment's own
    topology: four nodes, or one per client for ``claims-locality``."""
    try:
        declare = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"choose from {sorted(EXPERIMENTS)}"
        ) from None
    return declare(seed, scale, num_nodes, **options)
