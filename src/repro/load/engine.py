"""Deterministic load construction: (scenario, seed) -> :class:`Load`.

Everything random here — class shapes, object-class assignment, client
draws, arrival times, plan trees — comes from sub-streams of
``SeededRNG(seed).derive("load")``.  That one derivation is the seed
hygiene the fault engine already established for its own stream: the
load schedule is independent of the ``"workload"``, ``"faults"`` and
``"executor"`` streams, so adding or removing a fault plan cannot
perturb arrivals and vice versa (proved by
``tests/test_load_determinism.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.load.scenario import LOAD_SCENARIOS, LoadScenario
from repro.util.rng import SeededRNG
from repro.workload.generator import (
    ObjectPicker,
    Workload,
    pick_outside,
    plan_builder,
)
from repro.workload.synth import SyntheticClassFactory


@dataclass
class Load:
    """One fully generated open-loop load, ready to run anywhere.

    Like a :class:`~repro.workload.generator.Workload`, a ``Load`` is
    cluster-independent: the same object can drive a static-partition
    cluster and a migration-enabled one with the identical traffic —
    the only variable is the directory policy under test.
    """

    scenario: LoadScenario
    seed: int
    workload: Workload          # classes, object world, plans, offsets
    clients: List[int]          # plan index -> client index

    @property
    def num_objects(self) -> int:
        return self.workload.num_objects


def build_load(scenario_or_name, seed: int, scale: float = 1.0,
               page_size: int = 4096) -> Load:
    """Generate the full load for a scenario at ``scale``."""
    if isinstance(scenario_or_name, str):
        try:
            scenario = LOAD_SCENARIOS[scenario_or_name]
        except KeyError:
            raise KeyError(
                f"unknown load scenario {scenario_or_name!r}; choose "
                f"from {sorted(LOAD_SCENARIOS)}"
            ) from None
    else:
        scenario = scenario_or_name
    scenario = scenario.scaled(scale)
    params = scenario.params()
    rng = SeededRNG(seed).derive("load")
    factory = SyntheticClassFactory(rng.derive("classes"), page_size)
    classes = [
        factory.make_class(
            name=f"Load{index}",
            pages=rng.randint(params.pages_min, params.pages_max),
            access_fraction=params.access_fraction,
            write_fraction=params.write_fraction,
        )
        for index in range(params.num_classes)
    ]
    assign_rng = rng.derive("assign")
    object_classes = [
        assign_rng.randint(0, params.num_classes - 1)
        for _ in range(params.num_objects)
    ]
    client_rng = rng.derive("clients")
    clients = [
        client_rng.randint(0, scenario.clients - 1)
        for _ in range(scenario.num_roots)
    ]
    offsets = scenario.arrivals.offsets(
        scenario.num_roots, rng.derive("arrivals")
    )
    plan_rng = rng.derive("plans")
    # Load plans draw no injected-abort flag: the stream is the one the
    # load engine has always produced.
    build = plan_builder(plan_rng, params, classes, object_classes,
                         draw_abort=False)
    plans = [build(_client_picker(plan_rng, scenario, client))
             for client in clients]
    base = Workload(
        params=params, classes=classes, object_classes=object_classes,
        plans=[], arrival_offsets=[],
    )
    # with_plans validates every tree against the object world
    # (indexes, method menus, §3.4 recursion preclusion).
    workload = base.with_plans(plans, offsets)
    return Load(scenario=scenario, seed=seed, workload=workload,
                clients=clients)


def _client_picker(rng: SeededRNG, scenario: LoadScenario,
                   client: int) -> ObjectPicker:
    """Object draws for ``client``: own block with probability
    ``locality``, global Zipf otherwise; never an ancestor (§3.4)."""
    locality, skew = scenario.locality, scenario.skew
    num_objects, block_size = scenario.num_objects, scenario.block_size
    start = client * block_size
    maybe, zipf_index = rng.maybe, rng.zipf_index

    def pick(path: set) -> Optional[int]:
        if maybe(locality):
            for _ in range(12):
                candidate = start + zipf_index(block_size, skew)
                if candidate not in path:
                    return candidate
        for _ in range(12):
            candidate = zipf_index(num_objects, skew)
            if candidate not in path:
                return candidate
        return pick_outside(rng, num_objects, path)

    return pick
