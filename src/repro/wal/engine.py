"""The durable engine: journal every update, checkpoint, survive crashes.

:class:`JournaledEngine` is an :class:`~repro.engine.engine.Engine` whose
journal hook writes to an append-only :class:`~repro.wal.journal.Journal`
and whose checkpoints go through a
:class:`~repro.wal.checkpoint.CheckpointManager`.  The durable directory
is self-contained: creation writes a *baseline checkpoint* of the initial
annotated database, so :func:`repro.wal.recovery.recover` never needs the
original input to rebuild the exact pre-crash state.

Checkpoints fire only at quiescent points — after a top-level query,
transaction, or iterable element has been fully applied, never inside a
transaction — because a checkpoint observes provenance, and observation
flushes the ``normal_form_batch`` policy.  Under :meth:`apply_batch`,
fused runs therefore never cross top-level iterable elements (same final
state and provenance as the un-journaled pipeline; only run-boundary
accounting differs).

Only policies whose annotation slots are plain UP[X] expressions can be
journaled with checkpoints — ``naive`` and ``normal_form_batch`` — since
only those resume from an expression checkpoint (``normal_form`` keeps
Theorem 5.3 state machines, ``none`` keeps no provenance at all).  To
journal any other policy without checkpoint/recover support, pass a bare
:class:`Journal` to ``Engine(journal=...)`` directly.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

from ..db.database import Database
from ..engine.engine import Engine
from ..errors import EngineError, ReproError, StorageError
from ..queries.updates import Transaction, UpdateQuery
from ..workloads.logs import log_from_events, query_from_dict
from .checkpoint import DEFAULT_EVERY_RECORDS, CheckpointManager
from .journal import BATCH_END, QUERY, TXN_END, Journal, records_to_events

__all__ = ["JournaledEngine", "RESUMABLE_POLICIES"]

#: Policies whose checkpoints can be resumed (see ``repro.wal.recovery``).
RESUMABLE_POLICIES = ("naive", "no_axioms", "normal_form_batch")


class JournaledEngine(Engine):
    """An engine with a write-ahead journal and checkpointed durability."""

    def __init__(
        self,
        database: Database,
        directory,
        policy: str = "naive",
        annotate: Callable[[str, tuple, int], str] | None = None,
        sync: str = "flush",
        checkpoint_every: int = DEFAULT_EVERY_RECORDS,
        checkpoint_rows: int | None = None,
        clock: Callable[[], float] = time.perf_counter,
        _resume=None,
    ):
        if policy not in RESUMABLE_POLICIES:
            raise EngineError(
                f"policy {policy!r} cannot be journaled with checkpoints "
                f"(resumable policies: {', '.join(RESUMABLE_POLICIES)}); "
                "pass Engine(journal=...) a bare Journal to log without them"
            )
        self.checkpoints = CheckpointManager(
            directory, every_records=checkpoint_every, every_rows=checkpoint_rows
        )
        #: Follower mode: updates arrive only as shipped journal frames
        #: (:meth:`apply_shipped`) until :meth:`promote`.
        self.following = False
        #: Recovery only: the final journaled query had raised before
        #: mutating state and the crash beat its abort record to disk.
        self.replay_skipped_final = False
        if _resume is None:
            if self.checkpoints.has_checkpoint():
                raise StorageError(
                    f"{self.checkpoints.directory} already holds a journaled "
                    "engine; use repro.wal.recover() to resume it"
                )
            super().__init__(database, policy, annotate, clock)
            self.checkpoints.directory.mkdir(parents=True, exist_ok=True)
            self.journal = Journal(self.checkpoints.journal_path, sync=sync)
            self._rows_at_checkpoint = 0
            # Baseline checkpoint: the initial annotated database, so the
            # directory alone reproduces any later state.
            self.checkpoints.write(self, self.journal)
        else:
            super().__init__(Database(_resume.executor.schema), policy, annotate, clock)
            self.executor = _resume.executor
            self.stats = _resume.stats
            self._rows_at_checkpoint = _resume.rows_at_checkpoint
            self._replay(_resume.tail_records)
            self.journal = Journal(
                self.checkpoints.journal_path,
                sync=sync,
                start_seq=_resume.next_seq_base,
                preexisting_records=len(_resume.tail_records),
            )
            if self.replay_skipped_final:
                # Append the missing abort now so future recoveries skip
                # the record without re-applying.
                self.journal.append_abort()

    # -- replay (recovery only) ---------------------------------------------

    def _replay(self, tail_records: list[dict]) -> None:
        """Re-apply the journal tail with the journal hook detached.

        The tail decodes through the shared replay vocabulary: journal
        records become :meth:`UpdateLog.events` tuples (aborted queries
        dropped), :func:`log_from_events` regroups them into the original
        transactions — an unfinished trailing transaction stays bare
        queries, so its end-of-transaction hook does not fire — and each
        item goes through the ordinary :meth:`Engine.apply` machinery.
        """
        self.journal = None
        items = log_from_events(records_to_events(tail_records)).items
        for position, item in enumerate(items):
            try:
                Engine.apply(self, item)
            except Exception as exc:
                # Any exception, not just ReproError: the write path
                # abort-compensates every raising apply, so a failing
                # final query always means the crash beat its abort
                # record to disk — skip it and durably compensate.
                if position == len(items) - 1 and isinstance(item, UpdateQuery):
                    self.replay_skipped_final = True
                    continue
                if isinstance(exc, ReproError):
                    raise StorageError(
                        f"journal replay failed mid-tail on {item!r}: {exc}"
                    ) from exc
                raise

    # -- checkpointing --------------------------------------------------------

    def maybe_checkpoint(self, force: bool = False) -> bool:
        """Checkpoint if a threshold is reached (or ``force`` with new work)."""
        records_since = self.journal.records_since_reset
        rows_since = self.stats.rows_created - self._rows_at_checkpoint
        if records_since <= 0:
            return False
        if force or self.checkpoints.due(records_since, rows_since):
            start = self._clock()
            self.checkpoints.write(self, self.journal)
            self.stats.checkpoint_time += self._clock() - start
            self._rows_at_checkpoint = self.stats.rows_created
            return True
        return False

    def checkpoint(self) -> int:
        """Write a checkpoint now; returns how many were written (0 when
        the journal holds nothing new)."""
        if self.following:
            # A forced checkpoint could observe provenance mid-transaction
            # and flush the normal_form_batch policy at a point the
            # primary never did; followers checkpoint at shipped flush
            # boundaries only (see apply_shipped).
            raise EngineError(
                "followers checkpoint from the shipped stream; force "
                "checkpoints on the primary"
            )
        return int(self.maybe_checkpoint(force=True))

    def close(self, checkpoint: bool = True) -> None:
        """Checkpoint (by default) and close the journal file.

        ``close(checkpoint=False)`` leaves the journal tail in place —
        recovery then replays it, exactly as after a crash.  A follower
        never forces the checkpoint (the stream may be mid-transaction);
        its tail replays on the next bootstrap.
        """
        if self.journal.closed:
            return
        if checkpoint and not self.following:
            self.maybe_checkpoint(force=True)
        self.journal.close()

    # -- applying (checkpoints at quiescent points) ---------------------------

    def _check_writer(self) -> None:
        if self.following:
            raise EngineError(
                "this engine is a read-only follower; promote() it first"
            )

    def apply(self, item) -> "JournaledEngine":
        self._check_writer()
        super().apply(item)
        self.maybe_checkpoint()
        return self

    def apply_batch(self, item) -> "JournaledEngine":
        self._check_writer()
        if isinstance(item, (UpdateQuery, Transaction)):
            super().apply_batch(item)
            self.maybe_checkpoint()
        elif isinstance(item, Iterable):
            for element in item:
                self.apply_batch(element)
        else:
            raise EngineError(f"cannot apply {type(item).__name__}")
        return self

    # -- follower mode ----------------------------------------------------------

    def follow(self) -> None:
        """Become a follower: the journal is fed by :meth:`apply_shipped`."""
        self.following = True

    def promote(self) -> None:
        """Become a writer again, continuing the shipped sequence."""
        self.following = False

    def apply_shipped(self, record: dict, line: bytes) -> bool:
        """Fold one shipped journal frame in; ``False`` if its query failed.

        The line is appended verbatim first, so durability is settled
        before the state change (redo-log discipline, as on the primary);
        the record then replays through the vocabulary :meth:`_replay`
        uses, so the state at sequence *s* is bit-identical to the
        primary's.  A query that fails validation here must be confirmed
        by the primary's ``abort`` record — the caller's concern.
        Checkpoints fire only after ``txn_end`` / ``batch_end``: those are
        the primary's own flush points, so the observation a checkpoint
        makes cannot flush ``normal_form_batch`` where the primary did not.
        """
        if not self.following:
            raise EngineError("apply_shipped needs follower mode; follow() first")
        self.journal.append_raw(line, record["seq"])
        kind = record["kind"]
        if kind == QUERY:
            try:
                self._apply_query(query_from_dict(record["query"]), journaled=False)
            except ReproError:
                return False
        elif kind == TXN_END:
            self.executor.on_transaction_end(str(record["name"]))
            self.stats.transactions += 1
            self.maybe_checkpoint()
        elif kind == BATCH_END:
            self.maybe_checkpoint()
        return True
