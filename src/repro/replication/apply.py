"""Applying shipped journal frames to a follower engine.

The applier is the sequencing half of the follower: it receives
``(record, line)`` pairs — the decoded record plus the exact bytes the
primary wrote — and hands each one, exactly once and in order, to the
follower-mode engine's
:meth:`~repro.wal.engine.JournaledEngine.apply_shipped`, which owns the
rest (durable-first verbatim append, replay through the recovery
vocabulary, checkpoints at the shipped flush boundaries), so the
follower's state at sequence *s* is bit-identical to the primary's at *s*.

Exactly-once sequencing is structural: frames at or below the applied
sequence are skipped (a reconnect re-ships from the follower's durable
seq, which may trail its applied seq by an in-flight frame), and a gap
raises :class:`ReplicationError` rather than silently losing records.

Aborted queries need care.  The primary journals a failing query and
then an ``abort`` record; both lines are shipped.  The follower applies
the query, *expects* it to fail identically (the failure is
deterministic validation), and checks the abort record confirms it —
any asymmetry (primary aborted but the follower succeeded, or vice
versa) is divergence and fatal.  If the follower crashes between the
query and its abort, recovery appends its own abort record — which is
byte-identical to the primary's (same sequence, same ``undo`` payload,
hence the same CRC) — and the re-shipped copy is skipped as a duplicate.
"""

from __future__ import annotations

from ..errors import ReplicationError
from ..wal.journal import ABORT

__all__ = ["ShipmentApplier"]


class ShipmentApplier:
    """Sequences shipped journal frames onto a follower-mode engine."""

    def __init__(self, engine):
        self.engine = engine
        #: highest sequence number applied to the engine.
        self.applied_seq = engine.last_seq
        #: sequence of a query that failed locally and now awaits the
        #: primary's confirming abort record.
        self._pending_failed: int | None = None

    def apply_lines(self, shipments) -> int:
        """Apply ``(record, line)`` pairs in order; returns frames applied.

        Duplicates (``seq <= applied_seq``) are skipped; a gap raises.
        """
        applied = 0
        for record, line in shipments:
            seq = record["seq"]
            if seq <= self.applied_seq:
                continue
            if seq != self.applied_seq + 1:
                raise ReplicationError(
                    f"sequence gap in shipped frames: got {seq}, "
                    f"expected {self.applied_seq + 1}"
                )
            self._apply_record(record, line)
            self.applied_seq = seq
            applied += 1
        return applied

    def _apply_record(self, record: dict, line: bytes) -> None:
        aborts = record["kind"] == ABORT
        if self._pending_failed is not None and not aborts:
            raise ReplicationError(
                f"divergence at seq {self._pending_failed}: the query "
                "failed here but the primary applied it (no abort record "
                "followed)"
            )
        if aborts and self._pending_failed != record["seq"] - 1:
            raise ReplicationError(
                f"divergence at seq {record['seq']}: the primary "
                "aborted a query the follower applied successfully"
            )
        if self.engine.apply_shipped(record, line):
            self._pending_failed = None
        else:
            # Deterministic validation failure: the primary's next record
            # must be the confirming abort.
            self._pending_failed = record["seq"]

    def promote(self) -> None:
        """Hand the engine back to writing, continuing the shipped sequence.

        After this the applier must not receive further shipments.
        """
        if self._pending_failed is not None:
            raise ReplicationError(
                "cannot promote with an unconfirmed aborting query; the "
                "stream stopped mid-abort — recover the directory instead"
            )
        self.engine.promote()
