"""Recovery of a whole sharded deployment: bit-identical to full replay."""

from __future__ import annotations

import pytest

from repro.engine.engine import Engine
from repro.errors import StorageError
from repro.shard import (
    ShardedEngine,
    is_sharded_directory,
    recover_sharded,
    shard_directory,
)
from repro.wal.journal import scan_journal
from repro.workloads.synthetic import synthetic_workload

from .util import assert_matches_unsharded

N_SHARDS = 3


@pytest.fixture(scope="module")
def workload():
    return synthetic_workload(
        n_tuples=300,
        n_queries=80,
        n_groups=6,
        group_size=4,
        queries_per_transaction=5,
        seed=13,
    )


@pytest.mark.parametrize("policy", ["naive", "normal_form_batch"])
def test_recovery_is_bit_identical_to_unsharded_full_replay(tmp_path, workload, policy):
    engine = ShardedEngine(
        workload.database,
        n_shards=N_SHARDS,
        policy=policy,
        shard_keys={"synthetic": "grp"},
        journal_dir=tmp_path,
        checkpoint_every=30,
    )
    engine.apply(workload.log)
    # Crash: close without the final checkpoint, leaving journal tails.
    engine.close(checkpoint=False)
    assert is_sharded_directory(tmp_path)
    assert any(
        scan_journal(shard_directory(tmp_path, shard) / "journal.log").records
        for shard in range(N_SHARDS)
    )

    recovered = recover_sharded(tmp_path)
    assert recovered.recovery.tail_records > 0
    assert recovered.recovery.n_shards == N_SHARDS
    unsharded = Engine(workload.database, policy=policy).apply(workload.log)
    assert_matches_unsharded(unsharded, recovered)
    # What-if valuations survive: initial-tuple names come back from the
    # shard checkpoints.
    assert recovered.tuple_var_names() == unsharded.tuple_var_names()
    recovered.close()


@pytest.mark.parametrize("policy", ["naive", "normal_form_batch"])
def test_recovered_deployment_keeps_applying(tmp_path, workload, policy):
    """Crash mid-history, recover, apply the rest: still bit-identical."""
    half = len(workload.log.items) // 2
    engine = ShardedEngine(
        workload.database,
        n_shards=N_SHARDS,
        policy=policy,
        shard_keys={"synthetic": "grp"},
        journal_dir=tmp_path,
        checkpoint_every=25,
    )
    engine.apply(workload.log.items[:half])
    engine.close(checkpoint=False)

    recovered = recover_sharded(tmp_path)
    recovered.apply(workload.log.items[half:])
    unsharded = Engine(workload.database, policy=policy).apply(workload.log)
    assert_matches_unsharded(unsharded, recovered)
    # Summed planner counters continue across the crash: the recovered
    # lifetime totals equal an uncrashed run's.
    assert recovered.stats.index_hits == unsharded.stats.index_hits
    assert recovered.stats.rows_matched == unsharded.stats.rows_matched
    recovered.close()


def test_parallel_recovery_matches_sequential(tmp_path, workload):
    engine = ShardedEngine(
        workload.database,
        n_shards=N_SHARDS,
        policy="normal_form_batch",
        shard_keys={"synthetic": "grp"},
        journal_dir=tmp_path,
        checkpoint_every=30,
        parallel=True,
    )
    engine.apply(workload.log)
    engine.close(checkpoint=False)

    with recover_sharded(tmp_path, parallel=True) as recovered:
        unsharded = Engine(workload.database, policy="normal_form_batch")
        unsharded.apply(workload.log)
        assert_matches_unsharded(unsharded, recovered)
        assert recovered.recovery.tail_records > 0


def test_coordinated_checkpoint_truncates_every_tail(tmp_path, workload):
    engine = ShardedEngine(
        workload.database,
        n_shards=N_SHARDS,
        policy="naive",
        shard_keys={"synthetic": "grp"},
        journal_dir=tmp_path,
        checkpoint_every=10_000,  # never due on its own
    )
    engine.apply(workload.log)
    assert engine.checkpoint() == N_SHARDS
    engine.close(checkpoint=False)
    for shard in range(N_SHARDS):
        assert not scan_journal(shard_directory(tmp_path, shard) / "journal.log").records

    recovered = recover_sharded(tmp_path)
    assert recovered.recovery.tail_records == 0
    unsharded = Engine(workload.database, policy="naive").apply(workload.log)
    assert_matches_unsharded(unsharded, recovered)
    recovered.close()


def test_recover_sharded_refuses_unsharded_directories(tmp_path):
    with pytest.raises(StorageError, match="manifest"):
        recover_sharded(tmp_path / "nothing-here")
    assert not is_sharded_directory(tmp_path)
