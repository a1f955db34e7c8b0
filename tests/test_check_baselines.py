"""The perf gate's comparison (``tools/check_baselines.py``): pure, so
these cases run no benchmark."""

import copy
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "check_baselines.py"
_SPEC = importlib.util.spec_from_file_location("check_baselines", _PATH)
check_baselines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_baselines)


def _point(py_calls, events):
    return {"py_calls": py_calls, "wall_s": 0.5,
            "exact": {"committed_share": 1.0, "msgs_per_commit": 29.4805,
                      "counters.events": events, "counters.deadlocks": 7}}


@pytest.fixture
def envelope():
    points = {
        "fig2-deadlock x1": _point(1_000_000, 46_018),
        "fig2-deadlock x2": _point(2_400_000, 108_119),
        "fig5-pages x1": _point(1_275_222, 33_100),
    }
    for name, point in points.items():
        workload, factor = name.split(" x")
        point.update(workload=workload, size_factor=float(factor))
    return {"python": "3.11", "py_calls_tolerance": 1.03,
            "seed": 11, "seconds": 8, "points": points}


def _measured(envelope):
    return {name: {key: copy.deepcopy(point[key])
                   for key in ("py_calls", "exact", "wall_s")}
            for name, point in envelope["points"].items()}


def test_equal_envelope_passes(envelope):
    assert check_baselines.compare_perf(
        envelope, _measured(envelope), "3.11") == []


def test_host_time_is_not_compared(envelope):
    measured = _measured(envelope)
    measured["fig5-pages x1"]["wall_s"] = 5.0
    assert check_baselines.compare_perf(envelope, measured, "3.11") == []


def test_a_simulated_counter_off_by_one_fails(envelope):
    measured = _measured(envelope)
    measured["fig5-pages x1"]["exact"]["counters.events"] += 1
    failures = check_baselines.compare_perf(envelope, measured, "3.11")
    assert len(failures) == 1
    assert "fig5-pages x1" in failures[0]
    assert "counters.events" in failures[0]
    assert "\n" not in failures[0]


def test_py_calls_ceiling_is_three_percent(envelope):
    measured = _measured(envelope)
    measured["fig5-pages x1"]["py_calls"] = int(1_275_222 * 1.029)
    assert check_baselines.compare_perf(envelope, measured, "3.11") == []
    measured["fig5-pages x1"]["py_calls"] = int(1_275_222 * 1.031)
    failures = check_baselines.compare_perf(envelope, measured, "3.11")
    assert len(failures) == 1
    assert "fig5-pages x1" in failures[0] and "py_calls" in failures[0]


def test_burst_ratio_above_the_limit_fails(envelope):
    measured = _measured(envelope)
    # Within 1.03x of its own record, but 2,460,000 / 1,000,000 > 2.45.
    measured["fig2-deadlock x2"]["py_calls"] = 2_460_000
    failures = check_baselines.compare_perf(envelope, measured, "3.11")
    assert len(failures) == 1
    assert "fig2-deadlock x2 / fig2-deadlock x1" in failures[0]
    assert "2.460" in failures[0]


def test_x4_burst_ratio_above_its_limit_fails(envelope):
    over, under, limit = check_baselines.BURST_POINTS[1]
    assert (over, under) == ("fig2-deadlock x4", "fig2-deadlock x1")
    envelope["points"][over] = dict(envelope["points"][under],
                                    py_calls=int(1_000_000 * limit))
    measured = _measured(envelope)
    assert check_baselines.compare_perf(envelope, measured, "3.11") == []
    measured[over]["py_calls"] += 10_000
    failures = check_baselines.compare_perf(envelope, measured, "3.11")
    assert any(f"{over} / {under}" in line and f"limit {limit}" in line
               for line in failures)


def test_interpreter_mismatch_fails_without_comparing(envelope):
    measured = _measured(envelope)
    measured["fig5-pages x1"]["py_calls"] *= 2
    failures = check_baselines.compare_perf(envelope, measured, "3.12")
    assert len(failures) == 1
    assert "3.11" in failures[0] and "3.12" in failures[0]


def test_a_point_left_unmeasured_fails(envelope):
    measured = _measured(envelope)
    del measured["fig5-pages x1"]
    failures = check_baselines.compare_perf(envelope, measured, "3.11")
    assert failures == ["perf fig5-pages x1: not measured"]


def test_committed_envelope_names_every_point():
    envelope = check_baselines.load_envelope("perf")
    assert envelope["python"] == "3.11"
    assert check_baselines.BURST_POINTS[0] == (
        "fig2-deadlock x2", "fig2-deadlock x1", 2.45)
    assert envelope["py_calls_tolerance"] == 1.03
    assert sorted(envelope["points"]) == [
        "fig2-deadlock x0.5", "fig2-deadlock x1", "fig2-deadlock x2",
        "fig2-deadlock x4", "fig5-pages x1", "tcp-closed x1",
        "zipf-open x1",
    ]
    for over, under, _limit in check_baselines.BURST_POINTS:
        assert over in envelope["points"] and under in envelope["points"]
    tcp = envelope["points"]["tcp-closed x1"]["exact"]
    assert "commits_per_s" not in tcp
    assert "root_latency_p95_ms" not in tcp
