"""Checkpoints: periodic durable snapshots that truncate the journal.

A journaled directory holds exactly two files::

    <dir>/checkpoint.sqlite   newest AnnotatedSnapshot (atomic os.replace)
    <dir>/journal.log         append-only record tail since that checkpoint

A checkpoint is the engine's full annotated state — captured from the
live :class:`~repro.store.annotation_store.AnnotationStore` through
:meth:`AnnotatedSnapshot.from_engine`, which for the ``normal_form_batch``
policy also flushes pending naive layers into normal form — plus the
resume metadata recovery needs:

``journal_seq``
    The last journal sequence number the checkpoint covers.  Written
    *into* the snapshot before the journal is reset, so a crash between
    the two leaves a journal whose covered prefix is recognizably stale
    (recovery replays only ``seq > journal_seq``).
``stats``
    :meth:`EngineStats.snapshot` counters, restored on recovery so a
    restarted engine keeps counting from where the crash left off.
``tuple_vars``
    The initial-tuple annotation names, so what-if valuations by tuple
    keep working on a recovered engine (plain ``restore_executor`` loses
    them).

The write order is the recovery invariant: snapshot first (atomically),
journal reset second.  Whatever the crash point, the newest complete
checkpoint plus the records with greater sequence numbers reproduce the
exact pre-crash state.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import StorageError
from ..storage.snapshot import AnnotatedSnapshot, load_snapshot, save_snapshot

__all__ = ["CheckpointManager", "CHECKPOINT_FILE", "JOURNAL_FILE"]

CHECKPOINT_FILE = "checkpoint.sqlite"
JOURNAL_FILE = "journal.log"
#: Manifest of the retired sharded layout (one journaled subdirectory per
#: shard); a directory holding it is refused, never read as empty.
_SHARDED_MANIFEST = "shards.json"

#: Default checkpoint threshold: journal records since the last checkpoint.
DEFAULT_EVERY_RECORDS = 1024


class CheckpointManager:
    """Owns a journaled directory's layout and checkpoint policy."""

    def __init__(
        self,
        directory: str | Path,
        every_records: int = DEFAULT_EVERY_RECORDS,
        every_rows: int | None = None,
    ):
        if every_records is not None and every_records < 1:
            raise StorageError("checkpoint threshold every_records must be >= 1")
        if every_rows is not None and every_rows < 1:
            raise StorageError("checkpoint threshold every_rows must be >= 1")
        # No mkdir here: the manager is also constructed on the read path
        # (recover on a mistyped directory must not create it); the fresh
        # JournaledEngine creates the directory before opening its journal.
        self.directory = Path(directory)
        manifest = self.directory / _SHARDED_MANIFEST
        if manifest.exists():
            raise StorageError(
                f"{self.directory} holds {manifest.name}: the sharded layout "
                "is no longer supported; replay its update history into a "
                "fresh directory"
            )
        self.checkpoint_path = self.directory / CHECKPOINT_FILE
        self.journal_path = self.directory / JOURNAL_FILE
        self.every_records = every_records
        self.every_rows = every_rows
        #: checkpoints written by this process.
        self.written = 0

    def has_checkpoint(self) -> bool:
        return self.checkpoint_path.exists()

    def due(self, records_since: int, rows_created_since: int) -> bool:
        """True once either threshold is reached (and there is new work)."""
        if records_since <= 0:
            return False
        if self.every_records is not None and records_since >= self.every_records:
            return True
        return self.every_rows is not None and rows_created_since >= self.every_rows

    # -- writing ------------------------------------------------------------

    def write(self, engine, journal) -> AnnotatedSnapshot:
        """Snapshot ``engine`` atomically, then truncate ``journal``.

        Must be called at a quiescent point (between top-level updates,
        never mid-transaction): the snapshot observes provenance, which
        flushes the ``normal_form_batch`` policy.
        """
        tuple_vars = [
            [relation, list(row), name]
            for relation, names in engine.tuple_vars().items()
            for row, name in names.items()
        ]
        snapshot = AnnotatedSnapshot.from_engine(
            engine,
            meta={
                "policy": engine.policy,
                "journal_seq": journal.last_seq,
                "stats": engine.stats.snapshot(),
                "tuple_vars": tuple_vars,
            },
        )
        # Under the fsync policy the snapshot must be durably on disk
        # *before* the reset truncates the journal — otherwise power loss
        # could persist the truncation but not the rename, losing every
        # record since the previous checkpoint.
        save_snapshot(
            snapshot, self.checkpoint_path, fsync=journal.sync_policy == "fsync"
        )
        journal.reset()
        self.written += 1
        return snapshot

    # -- reading ------------------------------------------------------------

    def load(self) -> AnnotatedSnapshot:
        if not self.has_checkpoint():
            raise StorageError(
                f"no checkpoint in {self.directory} (nothing to recover; a "
                "JournaledEngine writes its baseline checkpoint on creation)"
            )
        snapshot = load_snapshot(self.checkpoint_path)
        if "journal_seq" not in snapshot.meta or "policy" not in snapshot.meta:
            raise StorageError(
                f"snapshot {self.checkpoint_path} is not a WAL checkpoint "
                "(missing journal_seq/policy metadata)"
            )
        return snapshot
