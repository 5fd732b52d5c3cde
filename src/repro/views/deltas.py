"""Row deltas: the incremental read-path vocabulary.

A :class:`RowDelta` describes one support-row change in the same
row-keyed terms a :meth:`~repro.store.annotation_store.AnnotationStore.state`
capture speaks — ``(relation, row, expression, live)`` — plus a ``kind``
tag naming what happened:

====================  ======================================================
``insert``            the row entered the support (or re-entered after a
                      ``free``); payload is its annotation and liveness
``delete``            the row was tombstoned (``live`` becomes ``False``,
                      the annotation records the deletion)
``annotation``        the row's annotation (and possibly liveness) changed
                      in place — re-inserts, modification targets, deferred
                      normalization rewrites
``free``              the row left the support entirely (vanilla physical
                      deletes, dead zero-annotation rows dropped by the
                      deferred policy); no payload
====================  ======================================================

Consumers reconstruct state with *upsert* semantics — every kind except
``free`` sets ``state[relation][row] = (expr, live)``, ``free`` removes
the key — so replaying a delta stream over a seed capture is bit-identical
to a fresh capture at the same version (:func:`apply_delta_batch`).

Executors record deltas into a :class:`DeltaBuffer` through the
``delta_sink`` hook (attached with
:meth:`~repro.engine.engine.Engine.attach_deltas`), which coalesces per ``(relation, row)``: a row touched many times inside
one flush interval ships once, with its final annotation and liveness.
The buffer is drained at quiescent points only — the same points that
publish snapshots — and every drained :class:`DeltaBatch` is stamped with
the snapshot version that produced it.

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
    "DeltaBuffer",
    "RowDelta",
    "apply_delta",
    "apply_delta_batch",
    "decode_delta_batch",
    "encode_delta_batch",
]

#: Every delta kind a sink may record (see the module docstring).
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


class DeltaBuffer:
    """The engine-side delta sink: coalesces row changes per flush interval.

    ``record`` is called from executor mutation points (single-writer
    discipline: only the thread applying updates ever records); ``drain``
    is called at quiescent points only, after pending deferred work was
    flushed (:meth:`~repro.engine.engine.Engine.flush_pending`), so drained annotations are exactly
    the ones a same-version capture observes.
    """

    __slots__ = ("_pending",)

    def __init__(self):
        #: ``(relation, row) -> [kind, expr, live]`` in first-touch order.
        self._pending: dict[tuple[str, tuple], list] = {}

    def record(
        self,
        kind: str,
        relation: str,
        row: tuple,
        expr: "Expr | None",
        live: bool,
    ) -> None:
        key = (relation, row)
        entry = self._pending.get(key)
        if kind == "free":
            if entry is not None and entry[0] == "insert":
                # The row entered and left the support inside one
                # interval: net nothing, consumers never hear about it.
                del self._pending[key]
            else:
                self._pending[key] = ["free", None, False]
            return
        if entry is None:
            self._pending[key] = [kind, expr, live]
        else:
            # An insert stays an insert for consumers whatever happens to
            # it afterwards, and a freed row reappearing is new again;
            # otherwise the latest kind labels the coalesced change.
            first = "insert" if entry[0] in ("insert", "free") else kind
            entry[0] = first
            entry[1] = expr
            entry[2] = live

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)

    def drain(self, version: int) -> DeltaBatch:
        """Freeze the pending changes into a version-stamped batch."""
        deltas = tuple(
            RowDelta(kind, relation, row, expr, live)
            for (relation, row), (kind, expr, live) in self._pending.items()
        )
        self._pending.clear()
        return DeltaBatch(version=version, deltas=deltas)


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
