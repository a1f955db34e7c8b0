"""The schedule-exploration fuzzer end to end.

Covers the explorer (one task = one reproducible run), failure
minimization, the campaign driver with its artifacts, the ``repro
fuzz`` CLI, and the mutation smoke test: an injected protocol bug
(skipping lock retention at pre-commit) must be caught by the checkers
within a small seed budget — evidence the fuzzer can actually detect
the class of bug it exists for.
"""

import json
from dataclasses import replace

import pytest

from repro.check import (
    ALL_PROTOCOLS,
    FuzzTask,
    judge,
    minimize,
    repro_command,
    run_campaign,
    run_task,
    trace_to_jsonl,
)
from repro.check.explorer import build_config
from repro.check.mutations import MUTATIONS, install_mutations
from repro.cli import main
from repro.runtime.cluster import Cluster
from repro.util.errors import ConfigurationError, ReproError
from repro.workload.generator import generate_workload
from repro.workload.params import SCENARIOS
from repro.workload.runner import run_workload

QUICK = dict(scenario="medium-high", scale=0.125, nodes=4)
MUTATION = "skip-precommit-retention"
SEMANTIC_MUTATION = "commute-conflicting-writes"


class TestRunTask:
    def test_clean_run_reports_ok(self):
        report = run_task(FuzzTask(seed=1, policy="random", **QUICK))
        assert report.ok
        assert report.committed > 0
        assert report.serializable
        assert report.violations == [] and report.error is None

    def test_identical_tasks_trace_byte_identically(self):
        task = FuzzTask(seed=2, policy="random", **QUICK)
        first = run_task(task, keep_trace=True)
        second = run_task(task, keep_trace=True)
        assert trace_to_jsonl(first.trace) == trace_to_jsonl(second.trace)

    def test_policy_changes_the_schedule(self):
        fifo = run_task(FuzzTask(seed=2, policy="fifo", **QUICK),
                        keep_trace=True)
        random_walk = run_task(FuzzTask(seed=2, policy="random", **QUICK),
                               keep_trace=True)
        assert trace_to_jsonl(fifo.trace) != trace_to_jsonl(
            random_walk.trace
        )

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_every_protocol_survives_one_adversarial_seed(self, protocol):
        report = run_task(FuzzTask(seed=0, protocol=protocol,
                                   policy="writer-first", **QUICK))
        assert report.ok, report.failure_summary()

    def test_judge_refuses_an_untraced_cluster(self):
        # Without a trace only the serial replay could run; a verdict
        # from it alone must not pass for a full judgement.
        task = FuzzTask(seed=1, **QUICK)
        cluster = Cluster(replace(build_config(task), trace=False))
        run_workload(cluster, generate_workload(
            SCENARIOS[task.scenario].scaled(task.scale), seed=task.seed))
        with pytest.raises(ConfigurationError, match="trace=True"):
            judge(cluster)

    def test_error_path_is_judged_by_the_reference_model(self, monkeypatch):
        # A run that ends in error skips only the serial replay: the
        # lock rules are still judged over its partial trace.
        def run_then_fail(cluster, workload):
            run_workload(cluster, workload)
            raise ReproError("run ended in error")

        monkeypatch.setattr("repro.check.explorer.run_workload",
                            run_then_fail)
        report = run_task(FuzzTask(
            seed=0, mutate=(MUTATION,), **MUTATIONS[MUTATION].catch_with))
        assert report.error is not None
        assert "reference.inherit" in {
            violation.checker for violation in report.violations}


class TestMutationSmoke:
    """The checkers must catch a deliberately broken protocol."""

    def test_skipped_retention_is_caught_within_budget(self):
        # Satellite acceptance: a handful of seeds suffices — the bug
        # is not a needle in a haystack for these checkers.
        for seed in range(5):
            report = run_task(FuzzTask(seed=seed, policy="random",
                                       mutate=(MUTATION,), **QUICK))
            if not report.ok:
                break
        else:
            pytest.fail("mutation escaped 5 fuzz seeds")
        tags = {violation.checker.split(".")[0]
                for violation in report.violations}
        # Both independent checker families see it, not just one.
        assert "reference" in tags
        assert "invariant" in tags

    def test_misspelt_mutation_is_rejected_not_run_clean(self):
        # The typo used to land in a frozenset nobody read: an honest
        # protocol ran under the mutation's name and passed.
        with pytest.raises(ConfigurationError) as raised:
            FuzzTask(seed=0, mutate=("skip-precomit-retention",))
        for known in MUTATIONS:
            assert known in str(raised.value)

    def test_failure_summary_names_the_evidence(self):
        report = run_task(FuzzTask(seed=0, policy="random",
                                   mutate=(MUTATION,), **QUICK))
        assert not report.ok
        summary = "\n".join(report.failure_summary())
        assert "retention skipped" in summary
        # The failing trace is attached for artifact dumps.
        assert report.trace

    def test_judge_catches_the_mutation_without_the_fuzzer(self):
        # The task shape the mutation table records for it, at a seed
        # it is caught on, run by hand and handed to judge().
        task = FuzzTask(seed=0, **MUTATIONS[MUTATION].catch_with)
        cluster = Cluster(build_config(task))
        install_mutations(cluster, [MUTATION])
        params = SCENARIOS[task.scenario].scaled(task.scale)
        run_workload(cluster, generate_workload(params, seed=task.seed))
        verdict = judge(cluster)
        assert not verdict.ok
        assert {violation.checker.split(".")[0]
                for violation in verdict.violations} & {"reference",
                                                         "invariant"}


class TestMinimizeAndRepro:
    def test_minimize_keeps_a_failing_task(self):
        task = FuzzTask(seed=0, policy="random", preset="lossy-net",
                        mutate=(MUTATION,), **QUICK)
        smaller = minimize(task)
        assert not run_task(smaller).ok
        assert smaller.scale <= task.scale
        # The injected bug fails without faults, so the preset and the
        # perturbed schedule both shrink away.
        assert smaller.preset is None
        assert smaller.policy == "fifo"

    def test_repro_command_round_trips_the_task(self):
        task = FuzzTask(seed=7, protocol="otec", preset="dup-delay",
                        policy="lifo", scenario="medium-moderate",
                        scale=0.5, nodes=3, mutate=(MUTATION,))
        command = repro_command(task)
        assert command.startswith("repro fuzz --seeds 1 ")
        for fragment in ("--seed-base 7", "--protocols otec",
                         "--presets dup-delay", "--policies lifo",
                         "--scenario medium-moderate", "--scale 0.5",
                         "--nodes 3", f"--mutate {MUTATION}"):
            assert fragment in command


class TestMigrationFuzz:
    """Adaptive home migration under the same oracles: the schedule
    perturbations and fault presets that vet the base protocol must
    also pass with entries moving between homes mid-run."""

    def test_migration_campaign_is_clean(self):
        result = run_campaign(seeds=2, protocols=("lotec",),
                              policies=("random",), migration=True,
                              **QUICK)
        assert result.ok, [
            line for failure in result.failures
            for line in failure.report.failure_summary()
        ]
        assert result.tasks_run == 2

    def test_migration_survives_crash_recover(self):
        # The satellite's crash x migration combo: node crashes while
        # entries are re-homing must not break any oracle.
        report = run_task(FuzzTask(seed=0, policy="writer-first",
                                   preset="crash-recover",
                                   migration=True, **QUICK))
        assert report.ok, report.failure_summary()
        assert report.committed > 0

    def test_migration_task_round_trips(self):
        task = FuzzTask(seed=3, policy="random", migration=True, **QUICK)
        assert "migration" in task.describe()
        assert "--migration" in repro_command(task)


class TestSemanticFuzz:
    """Commutativity-based lock modes under the same oracles.

    The synthetic workload's declared access sets put every generated
    method in the 'declared' trust tier, so semantic grants flow
    through real fuzz schedules — and the ``commute-conflicting-writes``
    mutation, which hands the lock manager a table wrongly commuting
    *every* same-class pair, must be caught by the checkers (which
    judge against the honest ``lock.commtable`` artifacts)."""

    @pytest.mark.parametrize("protocol", ["lotec", "cotec"])
    def test_semantic_tasks_are_clean(self, protocol):
        report = run_task(FuzzTask(seed=1, protocol=protocol,
                                   policy="random", semantic=True,
                                   **QUICK))
        assert report.ok, report.failure_summary()
        assert report.committed > 0

    def test_semantic_survives_crash_recover(self):
        report = run_task(FuzzTask(seed=0, policy="writer-first",
                                   preset="crash-recover",
                                   semantic=True, **QUICK))
        assert report.ok, report.failure_summary()

    def test_commute_mutation_caught_on_nine_of_ten_seeds(self):
        # Satellite acceptance: the wrongly-commuted grants must fail
        # the fuzzer on at least 9 of 10 seeds.
        reports = [
            run_task(FuzzTask(seed=seed, policy="random", semantic=True,
                              mutate=(SEMANTIC_MUTATION,), **QUICK))
            for seed in range(10)
        ]
        caught = [report for report in reports if not report.ok]
        assert len(caught) >= 9, [r.task.seed for r in reports if r.ok]
        # Both independent checker families see it, not just the
        # replay oracle.
        tags = {violation.checker.split(".")[0]
                for violation in caught[0].violations}
        assert "reference" in tags
        assert "invariant" in tags

    def test_semantic_task_round_trips(self):
        task = FuzzTask(seed=3, policy="random", semantic=True, **QUICK)
        assert "semantic" in task.describe()
        assert "--semantic" in repro_command(task)
        # Minimization shrinks the schedule, never the relaxation
        # under test.
        assert minimize(task).semantic


class TestCampaign:
    def test_clean_campaign(self):
        result = run_campaign(seeds=2, protocols=("lotec",),
                              policies=("random",), **QUICK)
        assert result.ok
        assert result.tasks_run == 2
        assert result.committed > 0

    def test_failing_campaign_writes_artifacts(self, tmp_path):
        result = run_campaign(
            seeds=1, protocols=("lotec",), policies=("random",),
            mutate=(MUTATION,), out_dir=str(tmp_path),
            minimize_failures=False, stop_on_failure=True, **QUICK,
        )
        assert not result.ok
        failure = result.failures[0]
        assert failure.command.startswith("repro fuzz --seeds 1")
        trace_path, report_path = failure.artifacts
        lines = (tmp_path / trace_path).read_text().splitlines()
        assert lines and all(json.loads(line) for line in lines)
        report_text = (tmp_path / report_path).read_text()
        assert "repro fuzz" in report_text

    def test_progress_callback_sees_every_task(self):
        seen = []
        run_campaign(seeds=1, protocols=("lotec", "cotec"),
                     policies=("writer-first",),
                     progress=seen.append, **QUICK)
        assert [r.task.protocol for r in seen] == ["lotec", "cotec"]


class TestFuzzCli:
    def test_clean_run_exits_zero(self, capsys):
        code = main(["fuzz", "--seeds", "1", "--protocols", "lotec",
                     "--policies", "random", "--scale", "0.125"])
        assert code == 0
        out = capsys.readouterr().out
        assert "all tasks clean" in out

    def test_mutated_run_exits_one_with_repro_line(self, capsys,
                                                   tmp_path):
        code = main(["fuzz", "--seeds", "1", "--protocols", "lotec",
                     "--policies", "random", "--scale", "0.125",
                     "--mutate", MUTATION, "--no-minimize", "--quiet",
                     "--trace-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "repro: repro fuzz --seeds 1" in err
        assert list(tmp_path.glob("*.trace.jsonl"))

    def test_unknown_mutation_exits_nonzero_with_one_line(self, capsys):
        code = main(["fuzz", "--seeds", "1", "--protocols", "lotec",
                     "--mutate", "skip-precomit-retention", "--quiet"])
        assert code != 0
        captured = capsys.readouterr()
        assert "all tasks clean" not in captured.out
        assert captured.err.count("\n") == 1
        assert "unknown mutation 'skip-precomit-retention'" in captured.err
        assert MUTATION in captured.err

    def test_unknown_protocol_exits_two(self, capsys):
        assert main(["fuzz", "--protocols", "bogus"]) == 2
        assert "unknown protocol" in capsys.readouterr().err

    def test_zero_seeds_is_an_error_not_a_clean_campaign(self, capsys):
        # `--seeds 0` used to run no task and print "all tasks clean".
        with pytest.raises(ConfigurationError, match="at least one seed"):
            run_campaign(seeds=0)
        assert main(["fuzz", "--seeds", "0", "--quiet"]) == 1
        captured = capsys.readouterr()
        assert "all tasks clean" not in captured.out
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_every_mutation_is_caught(name):
    """Each registered mutation fails at least 9 of 10 seeds under the
    task shape recorded beside its installer — so a mutation added
    without a catching configuration fails CI (``fuzz-smoke``)."""
    mutation = MUTATIONS[name]
    missed = []
    for seed in range(10):
        report = run_task(FuzzTask(seed=seed, mutate=(name,),
                                   **mutation.catch_with))
        caught = (not report.ok if mutation.checker is None else
                  any(violation.checker == mutation.checker
                      for violation in report.violations))
        if not caught:
            missed.append(seed)
    assert len(missed) <= 1, f"{name} escaped seeds {missed}"
