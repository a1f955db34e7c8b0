"""What a measured run leaves behind, and what it runs.

* No frame of a ``dataclasses``-generated method: cProfile keys every
  generated ``__init__`` as ``('<string>', 2, '__init__')`` and keeps
  one of them, so a run that executes any reads a ``py_calls`` total
  that depends on code-object addresses.
* No transaction tree outlives its root attempt: with the cycle
  collector off, a burst with deadlock retries, nested invocations and
  injected aborts leaves no ``Transaction`` and no ``UndoLog`` alive.
* The post-release migration check makes a process only for an entry
  it actually hands off.
"""

import gc
import sys
from dataclasses import replace

from repro.gdo import MigrationConfig, migration
from repro.load import build_load, run_load
from repro.memory.undo import UndoLog
from repro.net.message import MessageCategory
from repro.runtime import Cluster, ClusterConfig
from repro.txn.transaction import Transaction
from repro.workload import SCENARIOS, generate_workload, run_workload


def _generated_frames(run):
    """Names of the ``<string>`` frames ``run()`` executes."""
    seen = set()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename == "<string>":
            owner = type(frame.f_locals.get("self")).__name__
            seen.add(f"{owner}.{frame.f_code.co_name}")

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def _burst(abort_probability=0.0, seed=3):
    params = replace(SCENARIOS["medium-high"].scaled(0.2),
                     abort_probability=abort_probability)
    workload = generate_workload(params, seed=seed)
    cluster = Cluster(ClusterConfig(num_nodes=4, protocol="lotec",
                                    seed=seed, max_retries=25))
    return cluster, workload


def _migrating_load(seed=7):
    load = build_load("zipf-smoke", seed=seed, scale=0.5)
    cluster = Cluster(ClusterConfig(
        num_nodes=load.scenario.clients, seed=seed, protocol="lotec",
        migration=MigrationConfig(),
    ))
    return cluster, load


class TestNoGeneratedFrames:
    def test_run_workload_executes_no_generated_method(self):
        cluster, workload = _burst(abort_probability=0.05)
        frames = _generated_frames(lambda: run_workload(cluster, workload))
        assert frames == set()
        assert cluster.txn_stats.commits > 0

    def test_run_load_executes_no_generated_method(self):
        cluster, load = _migrating_load()
        frames = _generated_frames(lambda: run_load(cluster, load))
        assert frames == set()
        assert cluster.migration_stats.migrations > 0


class TestFamiliesLeaveNoCycle:
    def test_no_transaction_or_undo_log_survives_a_burst(self):
        gc.collect()
        gc.disable()
        try:
            # Other tests may still hold theirs; holding them here keeps
            # their ids from being reused by the burst's.
            held = [obj for obj in gc.get_objects()
                    if type(obj) in (Transaction, UndoLog)]
            before = {id(obj) for obj in held}
            cluster, workload = _burst(abort_probability=0.05)
            run = run_workload(cluster, workload)
            stats = cluster.txn_stats
            # The burst exercised every way a family ends.
            assert stats.aborts_deadlock > 0 and stats.retries > 0
            assert stats.aborts_user > 0 and run.failed > 0
            assert stats.sub_commits > 0 and stats.sub_aborts > 0
            assert stats.commits > 0
            left = [type(obj).__name__ for obj in gc.get_objects()
                    if type(obj) in (Transaction, UndoLog)
                    and id(obj) not in before]
        finally:
            gc.enable()
        assert left == []


class TestMigrationCheck:
    def test_a_process_only_per_handoff(self, monkeypatch):
        spawned = []

        class CountingProcess(migration.Process):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                spawned.append(kwargs.get("name"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(migration, "Process", CountingProcess)
        checks = []
        check = migration.HomeMigrationManager._migration_check

        def counted(self, *args):
            checks.append(args)
            check(self, *args)

        # Patched on the class: the release hook binds the method when
        # the cluster attaches migration.
        monkeypatch.setattr(migration.HomeMigrationManager,
                            "_migration_check", counted)
        cluster, load = _migrating_load()
        run_load(cluster, load)
        handoffs = cluster.network_stats.category_messages(
            MessageCategory.GDO_MIGRATE)
        assert cluster.migration_stats.migrations > 0
        # Every process sends at least one handoff; most checks send none.
        assert 0 < len(spawned) <= handoffs
        assert len(checks) > 2 * len(spawned)
        assert all(name.startswith("gdo-migrate:") for name in spawned)
