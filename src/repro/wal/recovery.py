"""Crash recovery: newest checkpoint + journal tail = pre-crash state.

:func:`recover` rebuilds a :class:`~repro.wal.engine.JournaledEngine`
from a durable directory alone:

1. load the newest checkpoint (atomic, so it is always complete);
2. restore the executor from it — the node table decodes once and each
   row goes straight into a fresh store with its annotation and
   liveness; then initial-tuple variable names and engine counters;
3. scan the journal, truncating a torn final record cleanly;
4. replay every record with ``seq > checkpoint.journal_seq`` through the
   ordinary engine machinery (transaction-end hooks fire at their
   journaled positions);
5. reopen the journal for appending, sequence numbers continuing.

The recovery invariant — asserted across policies in ``tests/wal`` and
measured by ``repro figure recovery`` — is that the result is
*bit-identical* (rows, annotations by object identity, liveness) to
replaying the entire update history from scratch, while touching only the
log tail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..db.database import Database
from ..db.schema import Relation, Schema
from ..engine.engine import make_executor
from ..engine.executors import Executor, NaiveExecutor
from ..engine.stats import EngineStats
from ..errors import StorageError
from ..shard.codec import decode_tuple_vars
from ..storage.exprjson import exprs_from_arena
from ..store.annotation_store import AnnotationStore
from .checkpoint import DEFAULT_EVERY_RECORDS, CheckpointManager
from .engine import JournaledEngine
from .journal import scan_journal, truncate_torn_tail

__all__ = ["RecoveryReport", "recover"]


@dataclass
class RecoveryReport:
    """What :func:`recover` found and did."""

    policy: str
    #: last journal sequence number the checkpoint covered.
    checkpoint_seq: int
    #: records found in the journal beyond the checkpoint.
    tail_records: int
    #: queries re-applied from the tail.
    replayed_queries: int
    #: transaction-end hooks re-fired from the tail.
    replayed_transactions: int
    #: bytes of a torn final record that were cleanly truncated.
    torn_bytes_dropped: int
    #: True when the final journaled query had raised before mutating
    #: state and was skipped (its abort record is now durable).
    skipped_final_record: bool
    #: recovered state, for reporting.
    support_rows: int
    live_rows: int

    def as_dict(self) -> dict[str, object]:
        return {
            "policy": self.policy,
            "checkpoint_seq": self.checkpoint_seq,
            "tail_records": self.tail_records,
            "replayed_queries": self.replayed_queries,
            "replayed_transactions": self.replayed_transactions,
            "torn_bytes_dropped": self.torn_bytes_dropped,
            "skipped_final_record": self.skipped_final_record,
            "support_rows": self.support_rows,
            "live_rows": self.live_rows,
        }


@dataclass
class _ResumeState:
    """The restored parts handed to ``JournaledEngine(_resume=...)``."""

    executor: Executor
    stats: EngineStats
    rows_at_checkpoint: int
    tail_records: list
    next_seq_base: int


def _restore_executor(checkpoint: dict, policy: str, source: Path) -> Executor:
    """An executor resuming from a loaded checkpoint's annotated state.

    Only policies whose annotation slots hold plain UP[X] expressions can
    resume — ``naive`` and ``normal_form_batch`` (the incremental
    ``normal_form`` policy keeps Theorem 5.3 state machines that a
    detached expression does not determine).  Row ids and the per-column
    indexes are storage artifacts, rebuilt here by one
    :meth:`RelationStore.add` per stored row.
    """
    try:
        schema = Schema(
            [Relation(name, attributes) for name, attributes in checkpoint["schema"].items()]
        )
        relations = checkpoint["relations"]
        roots = [root for rows in relations.values() for _row, root, _live in rows]
        exprs = iter(exprs_from_arena(checkpoint["exprs"], roots))
        executor = make_executor(Database(schema), policy)
        if not isinstance(executor, NaiveExecutor):  # includes normal_form_batch
            raise StorageError(
                f"policy {policy!r} cannot resume from an expression checkpoint; "
                "use 'naive' or 'normal_form_batch'"
            )
        store = AnnotationStore(schema)
        for name, rows in relations.items():
            add = store.relation(name).add
            for row, _root, live in rows:
                add(tuple(row), next(exprs), bool(live))
        executor.store = store
        executor._tuple_vars = decode_tuple_vars(checkpoint.get("tuple_vars", []))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"corrupt checkpoint {source}: {exc!r}") from exc
    return executor


def recover(
    directory: str | Path,
    sync: str = "flush",
    checkpoint_every: int = DEFAULT_EVERY_RECORDS,
    checkpoint_rows: int | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> JournaledEngine:
    """Resume the journaled engine persisted in ``directory``.

    Returns a live :class:`JournaledEngine` at the exact pre-crash state,
    journal open for further updates, with a :class:`RecoveryReport` on
    its ``recovery`` attribute.  Raises
    :class:`~repro.errors.StorageError` when the directory holds no
    checkpoint or the journal is corrupt beyond a torn final record.
    """
    manager = CheckpointManager(
        directory, every_records=checkpoint_every, every_rows=checkpoint_rows
    )
    checkpoint = manager.load()
    policy = str(checkpoint["policy"])
    checkpoint_seq = int(checkpoint["journal_seq"])
    executor = _restore_executor(checkpoint, policy, manager.checkpoint_path)
    # The restored planner totals become the stats' baseline offset: the
    # rebuilt store's own counters restart at zero and honestly count only
    # post-recovery matchings; EngineStats.sync_planner adds the baseline
    # so the engine-level lifetime totals continue across the crash.
    stats = EngineStats.restore(checkpoint.get("stats"))
    del checkpoint  # the decoded store holds everything it carried

    scan = scan_journal(manager.journal_path)
    torn_dropped = truncate_torn_tail(manager.journal_path, scan)
    tail = [record for record in scan.records if record["seq"] > checkpoint_seq]

    queries_before, transactions_before = stats.queries, stats.transactions
    engine = JournaledEngine(
        None,
        directory,
        policy=policy,
        sync=sync,
        checkpoint_every=checkpoint_every,
        checkpoint_rows=checkpoint_rows,
        clock=clock,
        _resume=_ResumeState(
            executor=executor,
            stats=stats,
            rows_at_checkpoint=stats.rows_created,
            tail_records=tail,
            next_seq_base=max(checkpoint_seq, scan.last_seq or 0),
        ),
    )
    engine.recovery = RecoveryReport(
        policy=policy,
        checkpoint_seq=checkpoint_seq,
        tail_records=len(tail),
        replayed_queries=stats.queries - queries_before,
        replayed_transactions=stats.transactions - transactions_before,
        torn_bytes_dropped=torn_dropped,
        skipped_final_record=engine.replay_skipped_final,
        support_rows=engine.support_count(),
        live_rows=engine.live_count(),
    )
    return engine
