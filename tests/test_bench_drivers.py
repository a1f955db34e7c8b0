"""Fast tests of the experiment table and the ASCII reporting."""

import pytest

from repro.bench import (
    EXPERIMENTS,
    build_plan,
    format_series_table,
    format_table,
    run_experiment,
)

TINY = dict(seed=3, scale=0.08, num_nodes=3)


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["name", "count"], [["alpha", 12345], ["b", 7]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "12,345" in lines[2]
        assert len(lines) == 4

    def test_format_series_table(self):
        text = format_series_table(
            "title", "x", {"s1": {"a": 1, "b": 2}, "s2": {"a": 3}}
        )
        assert text.startswith("title")
        assert "s1" in text and "s2" in text
        # Missing points render empty, not crash.
        assert "b" in text

    def test_float_formatting(self):
        text = format_table(["v"], [[0.0001234], [1.5], [2.0]])
        assert "1.234e-04" in text
        assert "1.5" in text


class TestBytesFigureDriver:
    def test_same_axis_across_protocols(self):
        result = run_experiment("fig2", objects_shown=6, **TINY)
        axes = [tuple(points) for points in result.series.values()]
        assert len(set(axes)) == 1
        assert len(axes[0]) <= 6

    def test_meta_totals_present(self):
        result = run_experiment("fig2", objects_shown=4, **TINY)
        for key in ("total_data_bytes", "total_messages", "committed"):
            assert set(result.meta[key]) == {"cotec", "otec", "lotec"}

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_experiment("fig2", scenario="nope", **TINY)

    def test_totals_helper(self):
        result = run_experiment("fig2", objects_shown=4, **TINY)
        totals = result.totals()
        for protocol, total in totals.items():
            assert total == sum(result.series[protocol].values())

    def test_render_contains_objects(self):
        result = run_experiment("fig2", objects_shown=3, **TINY)
        text = result.render()
        assert "cotec" in text and "O" in text


class TestTimeFigureDriver:
    def test_sweep_points(self):
        result = run_experiment(
            "fig7", software_costs=["100us", "500ns"], **TINY
        )
        for series in result.series.values():
            assert list(series) == ["100us", "500ns"]
            assert all(value >= 0 for value in series.values())

    def test_times_fall_with_cheaper_messaging(self):
        result = run_experiment(
            "fig8", software_costs=["100us", "500ns"], **TINY
        )
        for series in result.series.values():
            assert series["100us"] >= series["500ns"]

    def test_unknown_bandwidth_rejected(self):
        with pytest.raises(KeyError, match="bandwidth"):
            run_experiment("fig6", bandwidth="9Mbps", **TINY)


class TestExperimentTable:
    def test_every_experiment_declares_distinct_runs(self):
        # Every id plans without running anything: at least one run,
        # run keys unique within the experiment.
        for experiment_id in EXPERIMENTS:
            keys = [spec.key for spec in build_plan(experiment_id, **TINY).specs]
            assert keys and len(keys) == len(set(keys)), experiment_id

    def test_unknown_option_rejected(self):
        # A misspelt knob must fail loudly, not run the default.
        with pytest.raises(TypeError, match="scenaro"):
            build_plan("abl-rc", scenaro="large-high", **TINY)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            build_plan("fig99")

    def test_same_run_in_two_experiments_has_one_payload(self):
        # A run is identified by what it runs, not by which experiment
        # declared it, so the cache serves it to both.
        fig2 = {s.key: s for s in build_plan("fig2", **TINY).specs}
        gdo = {s.key: s for s in build_plan("abl-gdocache", **TINY).specs}
        assert fig2["lotec"].payload() == gdo["cached"].payload()
        assert fig2["otec"].payload() != gdo["cached"].payload()

    def test_locality_topology_defaults_to_one_node_per_client(self):
        from repro.load import LOAD_SCENARIOS

        clients = LOAD_SCENARIOS["zipf-smoke"].clients
        for num_nodes, expected in ((None, clients), (3, 3)):
            plan = build_plan("claims-locality", scenario="zipf-smoke",
                              seed=3, scale=0.1, num_nodes=num_nodes)
            assert {s.config.num_nodes for s in plan.specs} == {expected}


class TestAblationDrivers:
    def test_rc_driver_has_five_protocols(self):
        result = run_experiment("abl-rc", **TINY)
        assert set(result.series["data_bytes"]) == {
            "cotec", "otec", "lotec", "hlotec", "rc",
        }

    def test_object_grain_driver(self):
        result = run_experiment("abl-dsd", **TINY)
        assert set(result.series["data_bytes"]) == {"page", "object"}
        assert result.series["mean_data_message_bytes"]["object"] <= \
            result.series["mean_data_message_bytes"]["page"]

    def test_gdo_cache_driver(self):
        result = run_experiment("abl-gdocache", **TINY)
        assert result.series["local_ops"]["uncached"] == 0
        assert result.series["cache_hit_rate"]["uncached"] == 0

    def test_claims_messages_driver(self):
        result = run_experiment("msg-count", **TINY)
        for metric in ("messages", "bytes", "mean_message_bytes"):
            assert set(result.series[metric]) == {"cotec", "otec", "lotec"}


class TestBarChart:
    def test_chart_scales_to_peak(self):
        from repro.bench import format_bar_chart

        text = format_bar_chart(
            "t", {"a": {"x": 100, "y": 50}, "b": {"x": 0}}, width=10
        )
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "##########" in lines[2]   # the peak fills the width
        # zero-valued bar renders empty but still shows its value
        assert "| 0" in lines[3]
        assert lines[5].count("#") == 5   # half the peak, half the bar

    def test_chart_handles_empty_series(self):
        from repro.bench import format_bar_chart

        assert format_bar_chart("t", {}) == "t"

    def test_result_render_chart(self):
        result = run_experiment("fig2", objects_shown=3, **TINY)
        chart = result.render_chart(width=20)
        assert "cotec" in chart and "#" in chart
