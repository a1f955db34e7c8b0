"""Workload and run-trace persistence.

Workloads are deterministic functions of ``(params, seed, page_size)``,
so a saved workload is those three things plus a fingerprint of the
generated plans — enough to regenerate bit-identical load on another
machine and *verify* the regeneration.  Run reports capture what a
cluster actually did (commit log, stats) as plain JSON for offline
comparison between protocol runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, Optional

from repro.runtime.executor import _HandleRef
from repro.util.errors import ConfigurationError
from repro.util.ids import NodeId, ObjectId, TxnId, TypedId
from repro.workload.generator import PlanNode, Workload, generate_workload
from repro.workload.params import WorkloadParams

_FORMAT = "repro-workload-v1"
_REPORT_FORMAT = "repro-run-report-v1"


def _plan_to_dict(plan: PlanNode) -> Dict:
    return {
        "obj": plan.obj_index,
        "method": plan.method_name,
        "salt": plan.salt,
        "abort": plan.inject_abort,
        "children": [_plan_to_dict(child) for child in plan.children],
    }


def _plan_from_dict(data: Dict) -> PlanNode:
    return PlanNode(
        obj_index=data["obj"],
        method_name=data["method"],
        salt=data["salt"],
        inject_abort=data.get("abort", False),
        children=tuple(_plan_from_dict(child) for child in data["children"]),
    )


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


def load_workload(path: str) -> Workload:
    """Regenerate a saved workload and verify its fingerprint."""
    with open(path) as handle:
        document = json.load(handle)
    if document.get("format") != _FORMAT:
        raise ConfigurationError(
            f"{path} is not a {_FORMAT} document "
            f"(format={document.get('format')!r})"
        )
    params_dict = dict(document["params"])
    if isinstance(params_dict.get("access_fraction"), list):
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


# ---------------------------------------------------------------------------
# Run reports
# ---------------------------------------------------------------------------

#: Id classes by their tuple tag (see :mod:`repro.util.ids`).
_ID_TYPES = (NodeId, ObjectId, TxnId)


def _freeze_to_json(value):
    if isinstance(value, _HandleRef):
        return {"__handle__": value.object_value}
    if isinstance(value, PlanNode):
        return {"__plan__": _plan_to_dict(value)}
    if isinstance(value, TypedId):  # an id is a tuple: test it first
        return {"__id__": list(value)}
    if isinstance(value, tuple):
        return {"__tuple__": [_freeze_to_json(item) for item in value]}
    if isinstance(value, list):
        return [_freeze_to_json(item) for item in value]
    if isinstance(value, dict):
        return {key: _freeze_to_json(item) for key, item in value.items()}
    return value


def _freeze_from_json(value):
    if isinstance(value, dict):
        if "__handle__" in value and len(value) == 1:
            return _HandleRef(value["__handle__"])
        if "__plan__" in value and len(value) == 1:
            return _plan_from_dict(value["__plan__"])
        if "__tuple__" in value and len(value) == 1:
            return tuple(_freeze_from_json(item) for item in value["__tuple__"])
        if "__id__" in value and len(value) == 1:
            tag, *fields = value["__id__"]
            return _ID_TYPES[tag](*fields)
        return {key: _freeze_from_json(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_freeze_from_json(item) for item in value]
    return value


def save_run_report(cluster, path: str,
                    workload: Optional[Workload] = None) -> None:
    """Persist a cluster run: stats summary plus the full commit log."""
    document = {
        "format": _REPORT_FORMAT,
        "summary": cluster.stats_summary(),
        "sim_time": cluster.env.now,
        "workload_fingerprint": (
            workload_fingerprint(workload) if workload is not None else None
        ),
        "commits": [
            {
                "time": record.time,
                "node": record.node.value,
                "object": record.object_id.value,
                "method": record.method_name,
                "label": record.label,
                "args": _freeze_to_json(record.frozen_args),
                "result": _freeze_to_json(record.result),
            }
            for record in cluster.commit_log
        ],
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)


def load_run_report(path: str) -> Dict:
    """Load a run report; commit args/results come back in frozen form."""
    with open(path) as handle:
        document = json.load(handle)
    if document.get("format") != _REPORT_FORMAT:
        raise ConfigurationError(
            f"{path} is not a {_REPORT_FORMAT} document"
        )
    for commit in document["commits"]:
        commit["args"] = _freeze_from_json(commit["args"])
        commit["result"] = _freeze_from_json(commit["result"])
    return document


def diff_run_reports(left: Dict, right: Dict) -> Dict[str, object]:
    """Compare two run reports of the *same workload* under different
    configurations: commit sets must agree; costs may differ."""
    left_commits = {
        (c["label"], c["method"], c["object"]) for c in left["commits"]
    }
    right_commits = {
        (c["label"], c["method"], c["object"]) for c in right["commits"]
    }
    return {
        "same_commits": left_commits == right_commits,
        "only_left": sorted(left_commits - right_commits),
        "only_right": sorted(right_commits - left_commits),
        "bytes": {
            "left": left["summary"]["network"]["total_bytes"],
            "right": right["summary"]["network"]["total_bytes"],
        },
        "messages": {
            "left": left["summary"]["network"]["total_messages"],
            "right": right["summary"]["network"]["total_messages"],
        },
    }
