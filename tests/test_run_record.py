"""The run record: the one reading of a finished cluster that every
builder, CLI command and baseline gate reports."""

import dataclasses
import json

import pytest

from repro.bench import experiments
from repro.bench.parallel import RunSpec
from repro.cli import main
from repro.load import build_load
from repro.runtime import Cluster, ClusterConfig, run_record
from repro.workload import SCENARIOS, generate_workload, run_workload

SEED = 5
WORKLOAD_PARAMS = SCENARIOS["medium-high"].scaled(0.1)
LOAD_ARGS = (("scenario", "zipf-smoke"), ("seed", SEED), ("scale", 0.25))

#: Builder name -> (RunSpec fields, number of roots it submits or None).
BUILDS = {
    "workload": (
        {"params": WORKLOAD_PARAMS},
        lambda: len(generate_workload(WORKLOAD_PARAMS, seed=SEED).plans),
    ),
    "load": (
        {"builder": "load", "builder_args": LOAD_ARGS},
        lambda: len(build_load("zipf-smoke", seed=SEED,
                               scale=0.25).workload.plans),
    ),
    "aggregation": (
        {"builder": "aggregation",
         "builder_args": (("variant", "fine"), ("group_size", 3),
                          ("num_groups", 3), ("rounds", 2))},
        lambda: None,
    ),
}


@pytest.mark.parametrize("traced", [False, True],
                         ids=["untraced", "traced"])
@pytest.mark.parametrize("builder", sorted(BUILDS))
def test_builder_record_reads_the_live_cluster(builder, traced,
                                               monkeypatch):
    clusters = []

    def spy(cluster, run=None):
        clusters.append(cluster)
        return run_record(cluster, run)

    monkeypatch.setattr(experiments, "run_record", spy)
    fields, count_roots = BUILDS[builder]
    spec = RunSpec(key=builder, seed=SEED, config=ClusterConfig(
        num_nodes=3, seed=SEED, trace=traced,
    ), **fields)
    rec = experiments.BUILDERS[builder](spec)
    [cluster] = clusters

    assert json.loads(json.dumps(rec)) == rec
    assert rec["network"] == cluster.network_stats.snapshot()
    assert rec["locks"] == cluster.lock_stats.snapshot()
    assert rec["transactions"] == cluster.txn_stats.snapshot()
    roots = count_roots()
    if roots is None:
        assert rec["failed"] is None
    else:
        assert rec["committed"] + rec["failed"] == roots
    index_of = {creation.object_id: str(index)
                for index, creation in enumerate(cluster.creation_log)}
    assert rec["objects"] == {
        index_of[object_id]: dataclasses.asdict(traffic)
        for object_id, traffic in cluster.network_stats.by_object.items()
    }
    assert rec["objects"]
    if traced:
        assert rec["metrics"] == cluster.metrics.snapshot()
    else:
        assert "metrics" not in rec


def test_repro_run_out_is_the_record_of_the_run(tmp_path, capsys):
    target = tmp_path / "run.json"
    assert main(["run", "medium-high", "--scale", "0.1", "--seed", "2",
                 "--out", str(target)]) == 0
    workload = generate_workload(SCENARIOS["medium-high"].scaled(0.1),
                                 seed=2)
    cluster = Cluster(ClusterConfig(num_nodes=4, protocol="lotec", seed=2))
    rerun = run_record(cluster, run_workload(cluster, workload))
    assert json.loads(target.read_text()) == rerun
    out = capsys.readouterr().out
    assert (f"{rerun['committed']} committed, {rerun['failed']} failed"
            in out)
