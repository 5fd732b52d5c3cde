"""Row deltas: the incremental read-path vocabulary.

A :class:`RowDelta` describes one support-row change in the same
row-keyed terms a :meth:`~repro.store.annotation_store.AnnotationStore.state`
capture speaks — ``(relation, row, expression, live)`` — plus a ``kind``
tag naming what happened to the row over one drain interval:

====================  ======================================================
``insert``            the row entered the support (or re-entered after a
                      ``free``); payload is its annotation and liveness
``delete``            a row already in the support changed and ends the
                      interval tombstoned (``live`` is ``False``)
``annotation``        a row already in the support changed and ends the
                      interval live — re-inserts, modification targets,
                      deferred normalization rewrites
``free``              the row left the support entirely (vanilla physical
                      deletes, dead zero-annotation rows dropped by the
                      deferred policy); no payload
====================  ======================================================

Consumers reconstruct state with *upsert* semantics — every kind except
``free`` sets ``state[relation][row] = (expr, live)``, ``free`` removes
the key — so replaying a delta stream over a seed capture is bit-identical
to a fresh capture at the same version (:func:`apply_delta_batch`).

Deltas are not recorded as they happen.  Every support mutation passes
through a :class:`~repro.store.row_store.RowStore`, whose per-relation
*change set* remembers which rows changed since the last drain and
whether each entered the support; at quiescent points — the same points
that publish snapshots — :meth:`~repro.engine.engine.Engine.drain_deltas`
turns it into a :class:`DeltaBatch`, one delta per changed row with its
final annotation and liveness, stamped with the snapshot version.  A row
that entered and left the support inside one interval is not in it.

On the wire a batch carries the one expression encoding every capture
uses (:func:`repro.storage.exprjson.exprs_to_arena`): one shared node
table per batch plus an integer root per delta, expressions re-interned
by the receiving process exactly like ``state`` replies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, MutableMapping

from ..core.expr import Expr
from ..storage.exprjson import exprs_from_arena, exprs_to_arena

__all__ = [
    "DELTA_KINDS",
    "DeltaBatch",
    "RowDelta",
    "apply_delta",
    "apply_delta_batch",
    "decode_delta_batch",
    "encode_delta_batch",
]

#: Every delta kind a batch may carry (see the module docstring).
DELTA_KINDS = ("insert", "delete", "annotation", "free")


@dataclass(frozen=True)
class RowDelta:
    """One coalesced support-row change."""

    kind: str
    relation: str
    row: tuple
    expr: "Expr | None"
    live: bool


@dataclass(frozen=True)
class DeltaBatch:
    """Every row changed between two quiescent points, version-stamped.

    ``version`` is the service's apply-admission count at the drain — the
    same counter that stamps published snapshots, so a consumer that has
    applied every batch up to version ``v`` holds exactly the rows a
    snapshot captured at ``v`` would show (asserted bit-identically in
    ``tests/views`` and ``repro figure view``).
    """

    version: int
    deltas: tuple[RowDelta, ...]

    def __len__(self) -> int:
        return len(self.deltas)

    def __iter__(self) -> Iterator[RowDelta]:
        return iter(self.deltas)


# ---------------------------------------------------------------------------
# Reconstruction (the consumer side)
# ---------------------------------------------------------------------------


def apply_delta(
    state: MutableMapping[str, MutableMapping[tuple, tuple]], delta: RowDelta
) -> None:
    """Apply one delta to a ``{relation: {row: (expr, live)}}`` state."""
    rows = state.setdefault(delta.relation, {})
    if delta.kind == "free":
        rows.pop(delta.row, None)
    else:
        rows[delta.row] = (delta.expr, delta.live)


def apply_delta_batch(
    state: MutableMapping[str, MutableMapping[tuple, tuple]], batch: DeltaBatch
) -> None:
    """Apply a whole batch; ``state`` then reflects ``batch.version``."""
    for delta in batch:
        apply_delta(state, delta)


# ---------------------------------------------------------------------------
# Wire codec (the shared node table; see repro.storage.exprjson)
# ---------------------------------------------------------------------------


def encode_delta_batch(batch: DeltaBatch) -> dict:
    """A pickle/JSON-safe batch: one shared node table per batch."""
    table, roots = exprs_to_arena(delta.expr for delta in batch.deltas)
    return {
        "version": batch.version,
        "exprs": table,
        "deltas": [
            [delta.kind, delta.relation, list(delta.row), root, delta.live]
            for delta, root in zip(batch.deltas, roots)
        ],
    }


def decode_delta_batch(payload: dict) -> DeltaBatch:
    """Inverse of :func:`encode_delta_batch`; re-interns every expression."""
    rows = payload["deltas"]
    exprs = exprs_from_arena(payload["exprs"], [entry[3] for entry in rows])
    return DeltaBatch(
        version=int(payload["version"]),
        deltas=tuple(
            RowDelta(str(kind), str(relation), tuple(row), expr, bool(live))
            for (kind, relation, row, _root, live), expr in zip(rows, exprs)
        ),
    )
