"""The checkpoint file: the capture payload a ``state`` reply carries,
under a resume header, written atomically.

Checkpoint → :func:`recover` must be bit-identical to the engine that
wrote it (rows, liveness, the identical interned annotation per row), the
rebuilt store must answer matchings through its indexes, and every
malformed, truncated or retired file must be refused with a
:class:`StorageError` rather than read as empty.
"""

from __future__ import annotations

import json

import pytest

from repro.core.expr import dag_size
from repro.db.database import Database
from repro.engine.oracle import assert_bit_identical
from repro.errors import StorageError
from repro.queries.pattern import Pattern
from repro.queries.updates import Delete, Insert, Modify, Transaction
from repro.server import ServerClient, ServerConfig, serve_in_thread
from repro.shard.codec import decode_capture
from repro.wal import JournaledEngine, recover
from repro.wal.checkpoint import CHECKPOINT_FILE, JOURNAL_FILE, CheckpointManager

from ..storage.test_storage import MALFORMED_TABLES


def fresh_database():
    return Database.from_rows("R", ["a", "b"], [(i, i % 3) for i in range(9)])


HISTORY = [
    Transaction("p", [Delete("R", Pattern(2, eq={1: 0}))]),
    Transaction("q", [Modify("R", Pattern(2, eq={1: 1}), {1: 7})]),
    Transaction("r", [Insert("R", (100, 100))]),
]


@pytest.fixture
def engine(tmp_path):
    """A journaled engine whose newest checkpoint covers ``HISTORY``."""
    engine = JournaledEngine(
        fresh_database(), tmp_path / "wal", policy="naive", checkpoint_every=10_000
    )
    engine.apply(HISTORY)
    engine.checkpoint()
    yield engine
    engine.journal.close()


def directory_of(engine):
    return engine.checkpoints.directory


def read_checkpoint(engine) -> dict:
    return json.loads(engine.checkpoints.checkpoint_path.read_bytes())


def rewrite_checkpoint(engine, checkpoint: dict) -> None:
    engine.checkpoints.checkpoint_path.write_text(json.dumps(checkpoint))


def test_round_trip_is_bit_identical(engine):
    recovered = recover(directory_of(engine))
    assert recovered.recovery.tail_records == 0
    assert_bit_identical(recovered, engine)
    assert recovered.result().same_contents(engine.result())
    # The body is the state reply's payload: it decodes to the same capture.
    assert_bit_identical(decode_capture(read_checkpoint(engine)), engine)
    recovered.journal.close()


def test_round_trip_keeps_tombstones_and_counts(engine):
    """Modified and deleted rows are dead but stored; both counts survive."""
    recovered = recover(directory_of(engine))
    assert recovered.support_count() == engine.support_count()
    assert recovered.live_count() == engine.live_count()
    assert recovered.live_count() < recovered.support_count()
    recovered.journal.close()


def test_write_replaces_the_previous_checkpoint(engine):
    engine.checkpoints.write(engine, engine.journal)
    engine.checkpoints.write(engine, engine.journal)  # clean overwrite
    assert sorted(p.name for p in directory_of(engine).iterdir()) == [
        CHECKPOINT_FILE, JOURNAL_FILE,
    ]
    recovered = recover(directory_of(engine))
    assert_bit_identical(recovered, engine)
    recovered.journal.close()


def test_failed_write_keeps_the_previous_checkpoint(engine, monkeypatch):
    """A failed write never destroys the last good checkpoint, never
    leaves temp debris, and never truncates the journal it did not cover."""
    good = engine.checkpoints.checkpoint_path.read_bytes()
    engine.apply(Transaction("s", [Insert("R", (200, 200))]))
    monkeypatch.setattr(engine.stats, "snapshot", lambda: {"handle": object()})
    with pytest.raises(StorageError, match="JSON-serializable"):
        engine.checkpoints.write(engine, engine.journal)
    assert engine.checkpoints.checkpoint_path.read_bytes() == good
    assert sorted(p.name for p in directory_of(engine).iterdir()) == [
        CHECKPOINT_FILE, JOURNAL_FILE,
    ]
    assert engine.journal.records_since_reset > 0


def test_unserializable_header_raises_storage_error(engine, monkeypatch, tmp_path):
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    monkeypatch.setattr(engine.stats, "snapshot", lambda: {"handle": {1, 2}})
    with pytest.raises(StorageError, match="JSON-serializable"):
        CheckpointManager(fresh).write(engine, engine.journal)
    assert list(fresh.iterdir()) == []


def test_load_missing_file(tmp_path):
    with pytest.raises(StorageError, match="no checkpoint"):
        CheckpointManager(tmp_path).load()


def test_load_corrupt_file(tmp_path):
    (tmp_path / CHECKPOINT_FILE).write_text("this is not a checkpoint")
    with pytest.raises(StorageError, match="corrupt checkpoint"):
        recover(tmp_path)


def test_truncated_checkpoint_raises_storage_error(engine):
    data = engine.checkpoints.checkpoint_path.read_bytes()
    for cut in range(0, len(data), max(1, len(data) // 64)):
        engine.checkpoints.checkpoint_path.write_bytes(data[:cut])
        with pytest.raises(StorageError, match="corrupt checkpoint"):
            recover(directory_of(engine))


def test_header_is_required(engine):
    checkpoint = read_checkpoint(engine)
    del checkpoint["journal_seq"]
    rewrite_checkpoint(engine, checkpoint)
    with pytest.raises(StorageError, match="not a WAL checkpoint.*journal_seq"):
        recover(directory_of(engine))


def test_recover_rejects_malformed_node_table(engine):
    checkpoint = read_checkpoint(engine)
    for nodes, root in MALFORMED_TABLES.values():
        checkpoint["exprs"] = {"nodes": nodes}
        for rows in checkpoint["relations"].values():
            for entry in rows:
                entry[1] = root
        rewrite_checkpoint(engine, checkpoint)
        with pytest.raises(StorageError, match="malformed|out of range"):
            recover(directory_of(engine))


def test_one_node_table_per_checkpoint(engine):
    checkpoint = read_checkpoint(engine)
    exprs = [expr for rows in engine.capture().values() for expr, _live in rows.values()]
    assert len(checkpoint["exprs"]["nodes"]) == dag_size(exprs)


def test_rebuilt_indexes_answer_matchings(engine):
    recovered = recover(directory_of(engine))
    pattern = Pattern(2, eq={1: 7})
    assert recovered.match_rows("R", pattern) == engine.match_rows("R", pattern)
    assert recovered.match_rows("R", pattern)  # the pattern does match rows
    planner = recovered.executor.store.stats
    assert planner.index_hits >= 1
    assert planner.fallback_scans == 0
    recovered.journal.close()


def test_restored_executor_continues_applying_updates(engine):
    recovered = recover(directory_of(engine))
    follow_up = Transaction("s", [Delete("R", Pattern(2, eq={1: 2}))])
    engine.apply(follow_up)
    recovered.apply(follow_up)
    assert recovered.live_rows("R") == engine.live_rows("R")
    assert_bit_identical(recovered, engine)
    recovered.journal.close()


def test_restore_rejects_non_expression_policies(engine):
    checkpoint = read_checkpoint(engine)
    for policy in ("normal_form", "none"):
        checkpoint["policy"] = policy
        rewrite_checkpoint(engine, checkpoint)
        with pytest.raises(StorageError, match="cannot resume"):
            recover(directory_of(engine))


@pytest.mark.parametrize("marker", sorted(CheckpointManager.RETIRED_LAYOUTS))
def test_retired_layouts_are_refused_by_name(tmp_path, marker):
    """A directory of a layout this build no longer reads is never read
    as empty, nor written over by a fresh engine."""
    (tmp_path / marker).write_bytes(b"old")
    for attempt in (
        lambda: recover(tmp_path),
        lambda: JournaledEngine(fresh_database(), tmp_path),
    ):
        with pytest.raises(StorageError, match="no longer supported") as refused:
            attempt()
        assert str(tmp_path / marker) in str(refused.value)
    assert [p.name for p in tmp_path.iterdir()] == [marker]


def test_checkpoint_relations_match_a_quiescent_state_reply(tmp_path):
    """At a quiescent point of a journaled server, the checkpoint's body
    decodes to exactly what ``state`` returns, node for node."""
    directory = tmp_path / "state"
    config = ServerConfig(
        port=0, backend="journaled", policy="normal_form_batch",
        directory=str(directory), checkpoint_every=10_000,
    )
    with serve_in_thread(fresh_database(), config) as handle:
        with ServerClient(handle.host, handle.port) as client:
            client.apply(HISTORY)
            assert client.checkpoint() == 1
            state = client.state()
            checkpoint = json.loads((directory / CHECKPOINT_FILE).read_bytes())
    assert_bit_identical(decode_capture(checkpoint), state)
