"""The one snapshot value: the annotated state of an engine at one point.

A :class:`Snapshot` is what the provenance service publishes to readers
and what a checkpoint persists: the row-keyed :data:`Capture` an
engine's :meth:`~repro.engine.engine.Engine.capture` returns, stamped
with the service version and the journal sequence it reflects.  Its wire
and on-disk form is the same :func:`repro.shard.codec.encode_capture`
payload — one shared :mod:`~repro.storage.exprjson` node table with an
integer root per row — so the bytes a ``state`` reply carries and the
body of ``checkpoint.json`` are one encoding.

A snapshot also carries the read replies already encoded from it
(:attr:`Snapshot.frames`), so each reply is encoded once per published
version however many readers ask for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..core.expr import Expr

__all__ = ["Capture", "Snapshot"]

#: Per-relation ``{row: (expression, live)}`` — the row-id-free view the
#: bit-identity checks compare (expression-valued, whatever the policy
#: stores internally; ``None`` for the provenance-free vanilla policy).
Capture = dict[str, dict[tuple, tuple["Expr | None", bool]]]


@dataclass(frozen=True)
class Snapshot:
    """One immutable observation of an engine at a quiescent point.

    ``version`` counts the apply admissions folded in, so two snapshots
    with equal versions hold identical state; ``seq`` is the engine's
    :attr:`~repro.engine.engine.Engine.last_seq` (``None`` without a
    journal); ``relations`` is the capture itself.

    ``frames`` caches the complete wire frames the server encoded from
    this snapshot, keyed ``("provenance", relation)`` or ``"state"``.
    A snapshot's state never changes, so neither does a reply built from
    it: the first read encodes, every later read of the same version
    sends the cached bytes.  The cache lives and dies with the snapshot,
    so it holds at most one frame per relation read at a live version.
    Only the server's event loop reads or fills it.  It takes no part in
    equality.
    """

    version: int
    seq: int | None
    relations: Mapping[str, Mapping[tuple, tuple["Expr | None", bool]]]
    frames: dict[object, bytes] = field(default_factory=dict, compare=False, repr=False)
