"""Randomly generated nested object transactions (§5's workload).

The paper evaluates LOTEC on "a number of randomly generated nested
object transactions in a simulated distributed system", varying "the
number of objects, the size of the objects (in units of pages) and the
number of transactions in order to achieve a range of conflict
scenarios", with objects whose methods normally update "only a subset"
of their pages.  This package regenerates that workload family:

* :mod:`repro.workload.params` — the parameter space, with the paper's
  four scenario presets (medium/large objects x high/moderate
  contention).
* :mod:`repro.workload.synth` — synthetic shared classes whose methods
  access fixed attribute subsets (exactly what LOTEC's compile-time
  prediction exploits).
* :mod:`repro.workload.generator` — seeds -> plan trees of nested
  invocations, skewed onto hot objects for contention.
* :mod:`repro.workload.runner` — instantiate + submit + run a workload
  on a cluster, identically reproducible across protocols.
"""

from repro.workload.params import (
    WorkloadParams,
    LARGE_HIGH,
    LARGE_MODERATE,
    MEDIUM_HIGH,
    MEDIUM_MODERATE,
    SCENARIOS,
)
from repro.workload.synth import SyntheticClassFactory, mix
from repro.workload.generator import PlanNode, Workload, generate_workload
from repro.workload.runner import run_workload
from repro.workload.traces import (
    load_workload,
    save_workload,
    workload_fingerprint,
)

__all__ = [
    "WorkloadParams",
    "MEDIUM_HIGH",
    "MEDIUM_MODERATE",
    "LARGE_HIGH",
    "LARGE_MODERATE",
    "SCENARIOS",
    "SyntheticClassFactory",
    "mix",
    "PlanNode",
    "Workload",
    "generate_workload",
    "run_workload",
    "save_workload",
    "load_workload",
    "workload_fingerprint",
]
