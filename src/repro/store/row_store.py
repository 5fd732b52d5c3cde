"""Row slots with stable integer ids.

A :class:`RowStore` holds the physical rows of one relation.  Every row
occupies one *slot*, addressed by a monotonically increasing integer row
id; a slot records the row value, an opaque annotation, and a
set-semantics liveness bit.  Slots are appended and freed, never reused,
so iterating row ids in ascending order is exactly insertion order — the
order the executors' hand-rolled ``dict`` bookkeeping used to iterate in,
which the provenance semantics (and the bit-identical batched replay)
depends on.  :meth:`RowStore.compact` renumbers ids densely when freed
slots pile up (churn-heavy vanilla workloads); it preserves relative id
order, so the insertion-order invariant survives, and is only invoked at
points where no row id is held by a caller.

Two notions of absence coexist, mirroring the executor semantics:

* a *freed* slot left the support entirely — vanilla physical deletes,
  and the deferred policy dropping dead zero-annotation rows;
* a stored slot with ``live == False`` is a *tombstone*: it stays in the
  support (updates still match it; paper Figure 4) but is invisible to
  set semantics.

Each store also keeps the relation's *change set*, the one record of
support mutations: the values of the rows changed since the last drain,
each with whether it entered the support in that interval.  The deferred
policy's flush reads its *pending* part — rows mutated since the last
:meth:`RowStore.mark_flushed` — so a transaction-end flush costs the rows
a transaction touched, not the support; quiescent points drain the whole
set into row deltas (:meth:`RowStore.take_changes`) or, with no view
attached, forget what needs no flush.  A row drains once however often
it was touched; one that entered and was freed again in the interval
nets to nothing, and a freed row added back has entered again.  Keyed by
row value, the set survives :meth:`RowStore.compact` renumbering.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["RowStore"]


class RowStore:
    """Append-only slots: row value, annotation, liveness, per row id.

    Annotations are held as the objects the executor stored (``None``,
    interned :class:`~repro.core.expr.Expr` DAGs, normal forms).
    """

    __slots__ = ("_rows", "_ann", "_live", "_id_of", "_pending", "_settled")

    def __init__(self):
        self._rows: list[tuple | None] = []
        self._ann: list[object] = []
        self._live: list[bool] = []
        #: row value -> row id, for rows currently in the support.
        self._id_of: dict[tuple, int] = {}
        # The change set in two disjoint parts, row value -> entered:
        #: stored rows mutated since the last ``mark_flushed()``;
        self._pending: dict[tuple, bool] = {}
        #: the other rows changed since the last drain (flushed or freed).
        self._settled: dict[tuple, bool] = {}

    # -- mutation -------------------------------------------------------------

    def add(self, row: tuple, ann: object = None, live: bool = True) -> int:
        """Store a new row; returns its (fresh) row id.

        The row must not already be in the support — executors look ids up
        first and mutate in place on a hit.
        """
        if row in self._id_of:
            raise ValueError(f"row {row!r} already stored (id {self._id_of[row]})")
        rid = len(self._rows)
        self._rows.append(row)
        self._ann.append(ann)
        self._live.append(live)
        self._id_of[row] = rid
        self._settled.pop(row, None)
        self._pending[row] = True
        return rid

    def free(self, rid: int) -> tuple:
        """Remove a slot from the support entirely; returns its row value."""
        row = self._rows[rid]
        if row is None:
            raise ValueError(f"row id {rid} already freed")
        del self._id_of[row]
        if not (self._pending.pop(row, False) or self._settled.pop(row, False)):
            # A row that entered and left inside one interval nets to
            # nothing; any other freed row is a change to drain.
            self._settled[row] = False
        self._rows[rid] = None
        self._ann[rid] = None
        self._live[rid] = False
        return row

    def slot_count(self) -> int:
        """Allocated slots, freed ones included (compaction bookkeeping)."""
        return len(self._rows)

    def compact(self) -> None:
        """Drop freed slots, renumbering row ids densely.

        Relative id order — and therefore insertion-order iteration — is
        preserved.  Only safe while no caller holds row ids: ids are
        consumed within a single query application, so the store compacts
        between matchings (see ``RelationStore.matching``).
        """
        keep = [rid for rid, row in enumerate(self._rows) if row is not None]
        self._rows = [self._rows[rid] for rid in keep]
        self._ann = [self._ann[rid] for rid in keep]
        self._live = [self._live[rid] for rid in keep]
        self._id_of = {row: rid for rid, row in enumerate(self._rows)}

    def set_annotation(self, rid: int, ann: object) -> None:
        self._ann[rid] = ann
        row = self._rows[rid]
        if row not in self._pending:
            self._pending[row] = self._settled.pop(row, False)

    def set_live(self, rid: int, live: bool) -> None:
        self._live[rid] = live
        row = self._rows[rid]
        if row not in self._pending:
            self._pending[row] = self._settled.pop(row, False)

    # -- the change set ---------------------------------------------------------

    def pending_rows(self) -> list[tuple[int, tuple]]:
        """``(rid, row)`` for every row mutated since the last
        :meth:`mark_flushed`, in ascending-id order."""
        id_of = self._id_of
        return sorted((id_of[row], row) for row in self._pending)

    def mark_flushed(self) -> None:
        """The pending rows are flushed: they stay changes to drain."""
        self._settled.update(self._pending)
        self._pending.clear()

    def take_changes(self) -> list[tuple[tuple, bool]]:
        """``(row, entered)`` for every row changed since the last drain;
        empties the change set.  A row no longer stored was freed."""
        changes = [*self._settled.items(), *self._pending.items()]
        self._settled.clear()
        self._pending.clear()
        return changes

    def drop_settled(self) -> None:
        """Forget the changed rows that are not pending, unread."""
        self._settled.clear()

    def drop_changes(self) -> None:
        """Forget every changed row, unread."""
        self._settled.clear()
        self._pending.clear()

    def change_count(self) -> int:
        """Rows in the change set."""
        return len(self._pending) + len(self._settled)

    # -- access ---------------------------------------------------------------

    def rid_of(self, row: tuple) -> int | None:
        """The row id of a stored row, or ``None``."""
        return self._id_of.get(row)

    def row(self, rid: int) -> tuple:
        value = self._rows[rid]
        if value is None:
            raise ValueError(f"row id {rid} is freed")
        return value

    def annotation(self, rid: int) -> object:
        return self._ann[rid]

    def is_live(self, rid: int) -> bool:
        return self._live[rid]

    def __contains__(self, row: tuple) -> bool:
        return row in self._id_of

    def __len__(self) -> int:
        """Stored rows (the support: live rows plus tombstones)."""
        return len(self._id_of)

    def live_count(self) -> int:
        return sum(1 for live in self._live if live)

    def items(self) -> Iterator[tuple[int, tuple]]:
        """``(rid, row)`` over the support, in insertion (ascending-id) order."""
        for rid, row in enumerate(self._rows):
            if row is not None:
                yield rid, row

    def live_rows(self) -> set[tuple]:
        return {row for rid, row in self.items() if self._live[rid]}
