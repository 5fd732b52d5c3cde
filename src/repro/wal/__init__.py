"""Durability: write-ahead journal, checkpoints, crash recovery.

The paper's engine is defined by its update log — provenance is the
algebraic residue of a sequence of hyperplane updates — so durability is
log-shaped too: journal every update as it is applied
(:mod:`~repro.wal.journal`), periodically checkpoint the full annotated
state as one ``checkpoint.json`` (the capture payload a ``state`` reply
carries, under a resume header) and truncate the journal
(:mod:`~repro.wal.checkpoint`), and recover by loading the newest
checkpoint and replaying only the log tail
(:mod:`~repro.wal.recovery`).  See the durability section of
``docs/ARCHITECTURE.md`` for the record format and the recovery
invariant.

Quickstart::

    from repro.wal import JournaledEngine, recover

    engine = JournaledEngine(db, "state/", policy="normal_form_batch")
    engine.apply(log)          # every update journaled before it applies
    # -- crash --
    engine = recover("state/") # checkpoint + tail; bit-identical state
"""

from .checkpoint import CheckpointManager
from .engine import JournaledEngine, RESUMABLE_POLICIES
from .journal import Journal, JournalScan, SYNC_POLICIES, scan_journal, truncate_torn_tail
from .recovery import RecoveryReport, recover

__all__ = [
    "CheckpointManager",
    "Journal",
    "JournalScan",
    "JournaledEngine",
    "RESUMABLE_POLICIES",
    "RecoveryReport",
    "SYNC_POLICIES",
    "recover",
    "scan_journal",
    "truncate_torn_tail",
]
