"""Workload persistence.

Workloads are deterministic functions of ``(params, seed, page_size)``,
so a saved workload is those three things plus a fingerprint of the
generated plans — enough to regenerate bit-identical load on another
machine and *verify* the regeneration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict

from repro.util.errors import ConfigurationError
from repro.workload.generator import PlanNode, Workload, generate_workload
from repro.workload.params import WorkloadParams

_FORMAT = "repro-workload-v1"


def _plan_to_dict(plan: PlanNode) -> Dict:
    return {
        "obj": plan.obj_index,
        "method": plan.method_name,
        "salt": plan.salt,
        "abort": plan.inject_abort,
        "children": [_plan_to_dict(child) for child in plan.children],
    }


def workload_fingerprint(workload: Workload) -> str:
    """Stable digest of the generated plans and object population."""
    payload = json.dumps(
        {
            "object_classes": workload.object_classes,
            "plans": [_plan_to_dict(plan) for plan in workload.plans],
            "arrivals": [round(t, 12) for t in workload.arrival_offsets],
        },
        sort_keys=True,
    )
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


def save_workload(workload: Workload, path: str, seed: int,
                  page_size: int = 4096) -> None:
    """Persist the workload's generation recipe plus its fingerprint."""
    document = {
        "format": _FORMAT,
        "seed": seed,
        "page_size": page_size,
        "params": dataclasses.asdict(workload.params),
        "fingerprint": workload_fingerprint(workload),
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)


def _fits(value, like) -> bool:
    """Whether a JSON value can stand for a field whose default is
    ``like`` (an int, a float, or a tuple of them)."""
    if isinstance(like, tuple):
        return (isinstance(value, list) and len(value) == len(like)
                and all(map(_fits, value, like)))
    if isinstance(value, bool):
        return False
    if isinstance(like, float):
        return isinstance(value, (int, float))
    return isinstance(value, int)


def load_workload(path: str) -> Workload:
    """Regenerate a saved workload and verify its fingerprint.

    The file is outside input: a wrong format, a missing or unknown
    field, or a value of the wrong type is a ``ConfigurationError``
    naming the field."""
    with open(path) as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or document.get("format") != _FORMAT:
        found = document.get("format") if isinstance(document, dict) else None
        raise ConfigurationError(
            f"{path} is not a {_FORMAT} document (format={found!r})"
        )
    for name in ("seed", "page_size", "params", "fingerprint"):
        if name not in document:
            raise ConfigurationError(f"{path} has no {name!r} field")
    for name in ("seed", "page_size"):
        if not _fits(document[name], 0):
            raise ConfigurationError(f"{path}: {name!r} is not an integer")
    if document["page_size"] < 1:
        raise ConfigurationError(f"{path}: 'page_size' must be positive")
    if not isinstance(document["params"], dict):
        raise ConfigurationError(f"{path}: 'params' is not an object")
    params_dict = dict(document["params"])
    defaults = {field.name: field.default
                for field in dataclasses.fields(WorkloadParams)}
    for name, value in sorted(params_dict.items()):
        if name not in defaults:
            raise ConfigurationError(f"{path}: unknown params field {name!r}")
        if not _fits(value, defaults[name]):
            raise ConfigurationError(
                f"{path}: params field {name!r} has a malformed value "
                f"{value!r}"
            )
    if "access_fraction" in params_dict:
        params_dict["access_fraction"] = tuple(params_dict["access_fraction"])
    params = WorkloadParams(**params_dict)
    workload = generate_workload(
        params, seed=document["seed"], page_size=document["page_size"]
    )
    fingerprint = workload_fingerprint(workload)
    if fingerprint != document["fingerprint"]:
        raise ConfigurationError(
            f"regenerated workload does not match {path}: fingerprint "
            f"{fingerprint} != recorded {document['fingerprint']} "
            f"(library version drift?)"
        )
    return workload
