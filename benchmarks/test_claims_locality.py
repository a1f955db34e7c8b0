"""Locality claim: on a skewed open-loop load, adaptive GDO home
migration moves hot entries to their dominant accessor and — because
local messages are free in the model — cuts remote directory traffic
versus the seed's static round-robin homes.

Shape asserted: adaptive strictly beats static on remote directory
messages, actually migrates, and commits the same work.  The >= 30%
reduction quoted in EXPERIMENTS.md holds at full scale; smaller
scales leave less time for access counts to cross the migration
threshold (measured: ~24% at scale 0.5, ~8% at 0.25, ~1% at 0.1), so
the numeric floor is graded by scale and the win-at-all shape is the
invariant."""

from repro.bench import run_experiment

from conftest import BENCH_SCALE, BENCH_SEED, run_once


def test_migration_cuts_directory_messages(benchmark, show):
    result = run_once(
        benchmark, run_experiment, "claims-locality", seed=BENCH_SEED, scale=BENCH_SCALE,
    )
    show(result)
    remote = result.series["remote_directory_messages"]
    assert remote["adaptive"] < remote["static"]
    assert result.series["migrations"]["adaptive"] > 0
    assert result.series["migrations"]["static"] == 0
    # Same offered load, same outcome: migration must not cost commits.
    committed = result.series["committed"]
    assert committed["adaptive"] == committed["static"]
    reduction = result.meta["directory_message_reduction"]
    if BENCH_SCALE >= 1.0:
        assert reduction >= 0.3
    elif BENCH_SCALE >= 0.5:
        assert reduction >= 0.1
