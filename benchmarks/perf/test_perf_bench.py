"""Self-tests of the benchmark (not under ``testpaths``: tier-1 is untouched).

    python3 -m pytest benchmarks/perf/test_perf_bench.py -q

Every test drives ``run.py`` as a user would, at a tenth of the size.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
LINE = re.compile(r"^(?P<workload>[\w-]+)/(?P<name>\S+) (?P<value>\S+) (?P<unit>\S+)")


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf-out")
    started = time.monotonic()
    done = subprocess.run(
        RUN + ["--size-factor", "0.1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stderr
    printed = {}
    for line in done.stdout.splitlines():
        match = LINE.match(line)
        if match:
            printed[(match["workload"], match["name"])] = (
                float(match["value"]), match["unit"]
            )
    return out, printed, elapsed


def declared():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return benchmark, benchmark["end_to_end"] + benchmark["per_layer"]


def test_whole_invocation_is_quick(small_run):
    assert small_run[2] < 30


def test_every_declared_metric_is_printed_with_its_unit(small_run):
    benchmark, metrics = declared()
    _, printed, _ = small_run
    for workload in benchmark["workloads"]:
        for metric in metrics:
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
            value, unit = printed[(workload["name"], metric["name"])]
            assert unit == metric["unit"], metric["name"]
            assert value == value  # not NaN
    assert len(printed) == len(benchmark["workloads"]) * len(metrics)


def test_layer_shares_sum_to_one(small_run):
    _, printed, _ = small_run
    for workload in {key[0] for key in printed}:
        shares = [value for (owner, name), (value, _) in printed.items()
                  if owner == workload and name.endswith(".self_share")]
        assert abs(sum(shares) - 1.0) <= 0.01, workload


def test_driver_line_matches_the_declaration():
    benchmark, _ = declared()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            RUN + ["--workload", "zipf-open", "--seed", "5", "--seconds", "1",
                   "--trace", str(trace), "--size-factor", "0.1"],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0
        assert {name: value["unit"] for name, value in line["metrics"].items()} \
            == {metric["name"]: metric["unit"] for metric in benchmark[key]}


def test_compare_of_a_run_with_itself_is_all_ok(small_run):
    out = small_run[0]
    done = subprocess.run(RUN + ["--compare", str(out), str(out)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [line for line in done.stdout.splitlines() if "/" in line][1:]
    assert len(rows) == 4 * 11
    assert all(row.endswith(" ok") for row in rows)


def test_compare_flags_a_worse_median(small_run, tmp_path):
    out = small_run[0]
    slower = tmp_path / "slower"
    slower.mkdir()
    for file in out.glob("*.json"):
        result = json.loads(file.read_text())
        result["end_to_end"]["wall_s"] *= 2
        (slower / file.name).write_text(json.dumps(result))
    done = subprocess.run(RUN + ["--compare", str(out), str(slower)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stdout.count(" worse") == 4


def test_a_non_serializable_trace_fails_the_command():
    # check/explorer.py's mutation: drop retained locks at sub-commit.
    done = subprocess.run(
        RUN + ["--workload", "fig2-deadlock", "--trace", "1",
               "--size-factor", "0.3", "--mutate", "skip-precommit-retention"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "fig2-deadlock" in done.stderr
    assert not done.stdout.strip().endswith("}")
