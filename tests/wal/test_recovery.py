"""Checkpointed recovery: bit-identical to full replay, crash by crash.

The recovery invariant under test (ISSUE 3 acceptance): loading the
newest checkpoint and replaying the journal tail yields *bit-identical*
state — same rows, same liveness, the identical interned annotation
object per row — to replaying the entire update history from scratch,
for every resumable policy and every crash point.
"""

from __future__ import annotations

import pytest

from repro.db.database import Database
from repro.engine.engine import Engine
from repro.engine.oracle import assert_bit_identical
from repro.errors import EngineError, QueryError, StorageError
from repro.queries.pattern import Pattern
from repro.queries.updates import Delete, Insert, Modify, Transaction
from repro.wal import JournaledEngine, recover, scan_journal
from repro.wal.checkpoint import CHECKPOINT_FILE
from repro.wal.journal import records_to_events

POLICIES = ["naive", "normal_form_batch"]


def fresh_database():
    return Database.from_rows(
        "R", ["a", "b"], [(i, i % 3) for i in range(9)]
    )


def sample_log():
    return [
        Transaction("p", [Delete("R", Pattern(2, eq={1: 0})), Insert("R", (100, 100))]),
        Transaction("q", [Modify("R", Pattern(2, eq={1: 1}), {1: 7})]),
        Transaction("r", [Delete("R", Pattern(2, eq={1: 7})), Insert("R", (101, 7))]),
        Transaction("s", [Modify("R", Pattern(2, eq={1: 7}), {0: 0})]),
    ]


def full_replay(policy, items):
    return Engine(fresh_database(), policy=policy).apply(items)


@pytest.mark.parametrize("policy", POLICIES)
class TestRecoveryInvariant:
    def test_empty_log_recovers_initial_state(self, tmp_path, policy):
        engine = JournaledEngine(fresh_database(), tmp_path, policy=policy)
        engine.journal.close()
        recovered = recover(tmp_path)
        assert recovered.recovery.tail_records == 0
        assert_bit_identical(recovered, Engine(fresh_database(), policy=policy))
        assert recovered.live_rows("R") == fresh_database().rows("R")

    def test_checkpoint_only_no_tail(self, tmp_path, policy):
        engine = JournaledEngine(fresh_database(), tmp_path, policy=policy)
        engine.apply(sample_log())
        engine.close()  # final checkpoint truncates the journal
        assert scan_journal(engine.checkpoints.journal_path).records == []
        recovered = recover(tmp_path)
        assert recovered.recovery.tail_records == 0
        assert recovered.recovery.replayed_queries == 0
        assert_bit_identical(recovered, full_replay(policy, sample_log()))

    def test_checkpoint_plus_tail_matches_full_replay(self, tmp_path, policy):
        # checkpoint_every=3 fires after transactions 1 and 3 of the
        # 4-transaction log, so recovery replays a genuine tail.
        engine = JournaledEngine(
            fresh_database(), tmp_path, policy=policy, checkpoint_every=3
        )
        engine.apply(sample_log())
        engine.journal.close()  # crash: replayed tail, no final checkpoint
        recovered = recover(tmp_path)
        assert recovered.recovery.tail_records > 0
        assert_bit_identical(recovered, full_replay(policy, sample_log()))

    def test_batched_pipeline_journal_recovers(self, tmp_path, policy):
        engine = JournaledEngine(
            fresh_database(), tmp_path, policy=policy, checkpoint_every=5
        )
        engine.apply_batch(sample_log())
        engine.journal.close()
        recovered = recover(tmp_path)
        reference = Engine(fresh_database(), policy=policy).apply_batch(sample_log())
        assert_bit_identical(recovered, reference)

    def test_tombstones_survive_checkpoint_and_replay(self, tmp_path, policy):
        engine = JournaledEngine(
            fresh_database(), tmp_path, policy=policy, checkpoint_every=5
        )
        engine.apply(sample_log())
        engine.journal.close()
        recovered = recover(tmp_path)
        state = recovered.capture()["R"]
        tombstones = {row for row, (_ann, live) in state.items() if not live}
        assert tombstones  # deletions and modification sources stay stored
        assert recovered.support_count() > recovered.live_count()
        reference_state = full_replay(policy, sample_log()).capture()["R"]
        assert tombstones == {
            row for row, (_ann, live) in reference_state.items() if not live
        }

    def test_kill_at_every_record_torn_write_sweep(self, tmp_path, policy):
        """Recovery is exact at every crash point, torn bytes included.

        Journal a run with no intermediate checkpoints, then cut the file
        at *every byte offset*; each cut must recover to exactly the full
        replay of the surviving record prefix, and the torn record must
        be gone from the journal afterwards.
        """
        directory = tmp_path / "wal"
        engine = JournaledEngine(
            fresh_database(), directory, policy=policy, checkpoint_every=10_000
        )
        engine.apply(sample_log())
        engine.journal.close()
        data = (directory / "journal.log").read_bytes()
        checkpoint_bytes = (directory / CHECKPOINT_FILE).read_bytes()

        for cut in range(len(data) + 1):
            crashed = tmp_path / f"crash-{cut}"
            crashed.mkdir()
            (crashed / CHECKPOINT_FILE).write_bytes(checkpoint_bytes)
            (crashed / "journal.log").write_bytes(data[:cut])
            recovered = recover(crashed)
            # Expected: replay exactly the surviving record prefix.
            surviving = scan_journal(crashed / "journal.log")
            assert not surviving.torn  # recovery truncated the torn tail
            expected = Engine(fresh_database(), policy=policy)
            for kind, payload in records_to_events(surviving.records):
                if kind == "query":
                    expected._apply_query(payload)
                else:
                    expected.executor.on_transaction_end(payload)
            assert_bit_identical(recovered, expected)
            recovered.journal.close()

    def test_recovered_engine_continues_and_recovers_again(self, tmp_path, policy):
        items = sample_log()
        engine = JournaledEngine(
            fresh_database(), tmp_path, policy=policy, checkpoint_every=5
        )
        engine.apply(items[:2])
        engine.journal.close()
        recovered = recover(tmp_path)
        recovered.apply(items[2:])
        recovered.journal.close()
        again = recover(tmp_path)
        assert_bit_identical(again, full_replay(policy, items))

    def test_resumable_stats_continue_across_recovery(self, tmp_path, policy):
        engine = JournaledEngine(
            fresh_database(), tmp_path, policy=policy, checkpoint_every=3
        )
        engine.apply(sample_log())
        engine.journal.close()
        recovered = recover(tmp_path)
        reference = full_replay(policy, sample_log())
        for key in ("queries", "inserts", "deletes", "modifies", "transactions",
                    "rows_created", "rows_matched"):
            assert getattr(recovered.stats, key) == getattr(reference.stats, key), key
        # Planner counters keep counting monotonically after recovery.
        before = recovered.stats.index_hits
        recovered.apply(Transaction("t", [Delete("R", Pattern(2, eq={1: 2}))]))
        assert recovered.stats.index_hits > before
        recovered.journal.close()

    def test_tuple_vars_survive_recovery(self, tmp_path, policy):
        engine = JournaledEngine(fresh_database(), tmp_path, policy=policy)
        engine.apply(sample_log())
        engine.journal.close()
        recovered = recover(tmp_path)
        reference = full_replay(policy, sample_log())
        for row in fresh_database().rows("R"):
            assert recovered.tuple_var("R", row) == reference.tuple_var("R", row)
        assert recovered.tuple_var_names() == reference.tuple_var_names()

    def test_custom_annotate_names_survive_recovery(self, tmp_path, policy):
        """Initial-tuple names from a custom callback are checkpoint state.

        The callback itself cannot be persisted, but it only ever names
        *initial* tuples (inserts are named by their query annotation),
        and those names ride along in the checkpoint's ``tuple_vars``
        metadata — so a recovered engine answers what-ifs identically.
        """
        namer = lambda rel, row, i: f"{rel}#{i}"  # noqa: E731
        engine = JournaledEngine(
            fresh_database(), tmp_path, policy=policy, annotate=namer,
            checkpoint_every=3,
        )
        engine.apply(sample_log())
        engine.journal.close()
        recovered = recover(tmp_path)
        reference = Engine(fresh_database(), policy=policy, annotate=namer).apply(
            sample_log()
        )
        assert_bit_identical(recovered, reference)
        for row in fresh_database().rows("R"):
            name = recovered.tuple_var("R", row)
            assert name == reference.tuple_var("R", row)
            assert name is not None and name.startswith("R#")


class TestLifecycle:
    def test_fresh_engine_refuses_existing_directory(self, tmp_path):
        JournaledEngine(fresh_database(), tmp_path).journal.close()
        with pytest.raises(StorageError, match="use repro.wal.recover"):
            JournaledEngine(fresh_database(), tmp_path)

    def test_recover_requires_a_checkpoint(self, tmp_path):
        with pytest.raises(StorageError, match="no checkpoint"):
            recover(tmp_path / "void")
        # Recovery is read-only: a mistyped path is not created.
        assert not (tmp_path / "void").exists()

    def test_non_resumable_policies_rejected(self, tmp_path):
        for policy in ("none", "normal_form", "mv_tree"):
            with pytest.raises(EngineError, match="cannot be journaled"):
                JournaledEngine(fresh_database(), tmp_path / policy, policy=policy)

    def test_context_manager_checkpoints_on_clean_exit(self, tmp_path):
        with JournaledEngine(fresh_database(), tmp_path, checkpoint_every=10_000) as engine:
            engine.apply(sample_log())
        assert scan_journal(tmp_path / "journal.log").records == []
        recovered = recover(tmp_path)
        assert recovered.recovery.tail_records == 0
        assert_bit_identical(recovered, full_replay("naive", sample_log()))

    def test_context_manager_keeps_tail_on_exception(self, tmp_path):
        with pytest.raises(RuntimeError):
            with JournaledEngine(
                fresh_database(), tmp_path, checkpoint_every=10_000
            ) as engine:
                engine.apply(sample_log()[:1])
                raise RuntimeError("crash")
        assert scan_journal(tmp_path / "journal.log").records  # tail preserved
        recovered = recover(tmp_path)
        assert_bit_identical(recovered, full_replay("naive", sample_log()[:1]))

    def test_failed_apply_writes_abort_record(self, tmp_path):
        engine = JournaledEngine(fresh_database(), tmp_path, checkpoint_every=10_000)
        engine.apply(sample_log()[:1])
        with pytest.raises(QueryError, match="no annotation"):
            engine.apply(Delete("R", Pattern(2, eq={1: 1})))  # un-annotated
        state = engine.capture()
        engine.journal.close()
        recovered = recover(tmp_path)
        assert not recovered.recovery.skipped_final_record  # abort was durable
        assert recovered.capture() == state

    def test_crash_before_abort_record_skips_final_query(self, tmp_path):
        engine = JournaledEngine(fresh_database(), tmp_path, checkpoint_every=10_000)
        engine.apply(sample_log()[:1])
        with pytest.raises(QueryError):
            engine.apply(Delete("R", Pattern(2, eq={1: 1})))
        state = engine.capture()
        engine.journal.close()
        # Strip the trailing abort record: the crash beat it to disk.
        journal_path = tmp_path / "journal.log"
        lines = journal_path.read_bytes().splitlines(keepends=True)
        assert b'"kind":"abort"' in lines[-1]
        journal_path.write_bytes(b"".join(lines[:-1]))
        recovered = recover(tmp_path)
        assert recovered.recovery.skipped_final_record
        assert recovered.capture() == state
        recovered.journal.close()
        # The recovery appended the missing abort: future recoveries are clean.
        again = recover(tmp_path)
        assert not again.recovery.skipped_final_record
        assert again.capture() == state

    def test_failed_apply_batch_query_stays_recoverable(self, tmp_path):
        """Journaled runs write ahead per query, so a raising query inside
        a batched run is abort-compensated and the directory recovers to
        exactly the applied prefix."""
        engine = JournaledEngine(fresh_database(), tmp_path, checkpoint_every=10_000)
        good = Insert("R", (100, 100), "p")
        bad = Delete("R", Pattern(2, eq={1: 0}))  # un-annotated: raises
        with pytest.raises(QueryError, match="no annotation"):
            engine.apply_batch([good, bad, Insert("R", (101, 101), "p")])
        state = engine.capture()
        engine.journal.close()
        recovered = recover(tmp_path)
        assert recovered.capture() == state
        assert recovered.live_rows("R") >= {(100, 100)}  # prefix applied
        assert (101, 101) not in recovered.live_rows("R")  # suffix never ran
        recovered.journal.close()
        assert recover(tmp_path).capture() == state  # and stays clean

    def test_torn_final_record_is_reported_and_truncated(self, tmp_path):
        engine = JournaledEngine(fresh_database(), tmp_path, checkpoint_every=10_000)
        engine.apply(sample_log())
        engine.journal.close()
        journal_path = tmp_path / "journal.log"
        data = journal_path.read_bytes()
        journal_path.write_bytes(data[:-3])  # tear the final record
        recovered = recover(tmp_path)
        assert recovered.recovery.torn_bytes_dropped > 0
        assert not scan_journal(journal_path).torn

    def test_row_threshold_triggers_checkpoints(self, tmp_path):
        engine = JournaledEngine(
            fresh_database(),
            tmp_path,
            checkpoint_every=10_000,
            checkpoint_rows=1,
        )
        written_before = engine.checkpoints.written
        engine.apply(sample_log()[:1])  # creates a row -> checkpoint due
        assert engine.checkpoints.written > written_before
        engine.journal.close()
