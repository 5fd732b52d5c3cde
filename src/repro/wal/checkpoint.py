"""Checkpoints: periodic durable snapshots that truncate the journal.

A journaled directory holds exactly two files::

    <dir>/checkpoint.json   newest checkpoint (atomic os.replace)
    <dir>/journal.log       append-only record tail since that checkpoint

A checkpoint is one JSON object: the engine's full annotated state as
the :func:`~repro.shard.codec.encode_capture` payload of
:meth:`Engine.capture() <repro.engine.engine.Engine.capture>` — the same
``exprs`` node table and ``relations`` root lists a ``state`` reply
carries (capturing flushes the ``normal_form_batch`` policy first) —
under a header holding what recovery needs besides:

``policy``
    The executor policy to resume.
``journal_seq``
    The last journal sequence number the checkpoint covers.  Written
    *into* the checkpoint before the journal is reset, so a crash between
    the two leaves a journal whose covered prefix is recognizably stale
    (recovery replays only ``seq > journal_seq``).
``schema``
    ``{relation: [attribute, ...]}``, which a capture does not carry.
``stats``
    :meth:`EngineStats.snapshot` counters, restored on recovery so a
    restarted engine keeps counting from where the crash left off.
``tuple_vars``
    The initial-tuple annotation names as ``[relation, row, name]``
    triples, so what-if valuations by tuple keep working on a recovered
    engine.

The write order is the recovery invariant: checkpoint first (atomically),
journal reset second.  Whatever the crash point, the newest complete
checkpoint plus the records with greater sequence numbers reproduce the
exact pre-crash state.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..errors import StorageError
from ..shard.codec import encode_capture, encode_tuple_vars

__all__ = ["CheckpointManager", "CHECKPOINT_FILE", "JOURNAL_FILE", "write_atomic"]

CHECKPOINT_FILE = "checkpoint.json"
JOURNAL_FILE = "journal.log"

#: Default checkpoint threshold: journal records since the last checkpoint.
DEFAULT_EVERY_RECORDS = 1024


def write_atomic(path: Path, data: bytes, fsync: bool = False) -> None:
    """Replace ``path`` with ``data`` so a crash leaves old or new, never a mix.

    ``data`` goes to a sibling temp file that :func:`os.replace` moves
    onto ``path``.  With ``fsync`` the temp file and then the containing
    directory are synced around the rename, so the replacement survives
    power loss, not just process crashes.
    """
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        if fsync:
            _fsync_directory(path.parent)
    finally:
        if tmp.exists():
            tmp.unlink()


def _fsync_directory(directory: Path) -> None:
    """Persist a rename by syncing the directory entry (POSIX best effort)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir-open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class CheckpointManager:
    """Owns a journaled directory's layout and checkpoint policy."""

    #: Files marking layouts this build no longer reads.  A directory
    #: holding one is refused, never read as empty or written over.
    RETIRED_LAYOUTS = {
        "shards.json": "the sharded layout",
        "checkpoint.sqlite": "the SQLite checkpoint layout",
    }

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
        for name, layout in self.RETIRED_LAYOUTS.items():
            marker = self.directory / name
            if marker.exists():
                raise StorageError(
                    f"{marker}: {layout} is no longer supported; replay its "
                    "update history into a fresh directory"
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

    def write(self, engine, journal) -> None:
        """Checkpoint ``engine`` atomically, then truncate ``journal``.

        Must be called at a quiescent point (between top-level updates,
        never mid-transaction): the capture observes provenance, which
        flushes the ``normal_form_batch`` policy.
        """
        checkpoint = {
            "policy": engine.policy,
            "journal_seq": journal.last_seq,
            "schema": {r.name: list(r.attributes) for r in engine.schema},
            "stats": engine.stats.snapshot(),
            "tuple_vars": encode_tuple_vars(engine.tuple_vars()),
        }
        checkpoint.update(encode_capture(engine.capture()))
        try:
            data = json.dumps(checkpoint, separators=(",", ":")).encode()
        except (TypeError, ValueError) as exc:
            raise StorageError(f"checkpoint not JSON-serializable: {exc}") from exc
        # Under the fsync policy the checkpoint must be durably on disk
        # *before* the reset truncates the journal — otherwise power loss
        # could persist the truncation but not the rename, losing every
        # record since the previous checkpoint.
        write_atomic(self.checkpoint_path, data, fsync=journal.sync_policy == "fsync")
        journal.reset()
        self.written += 1

    # -- reading ------------------------------------------------------------

    def load(self) -> dict:
        """The newest checkpoint as written by :meth:`write`, header checked."""
        if not self.has_checkpoint():
            raise StorageError(
                f"no checkpoint in {self.directory} (nothing to recover; a "
                "JournaledEngine writes its baseline checkpoint on creation)"
            )
        try:
            checkpoint = json.loads(self.checkpoint_path.read_bytes())
        except ValueError as exc:
            raise StorageError(f"corrupt checkpoint {self.checkpoint_path}: {exc}") from exc
        missing = {"policy", "journal_seq", "schema", "exprs", "relations"} - set(
            checkpoint if isinstance(checkpoint, dict) else ()
        )
        if missing:
            raise StorageError(
                f"{self.checkpoint_path} is not a WAL checkpoint (missing "
                f"{', '.join(sorted(missing))})"
            )
        return checkpoint
