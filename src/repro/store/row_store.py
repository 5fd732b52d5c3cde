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
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["RowStore"]


class RowStore:
    """Append-only slots: row value, annotation, liveness, per row id.

    Annotations are held as the objects the executor stored (``None``,
    interned :class:`~repro.core.expr.Expr` DAGs, normal forms).
    """

    __slots__ = ("_rows", "_ann", "_live", "_id_of")

    def __init__(self):
        self._rows: list[tuple | None] = []
        self._ann: list[object] = []
        self._live: list[bool] = []
        #: row value -> row id, for rows currently in the support.
        self._id_of: dict[tuple, int] = {}

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
        return rid

    def free(self, rid: int) -> tuple:
        """Remove a slot from the support entirely; returns its row value."""
        row = self._rows[rid]
        if row is None:
            raise ValueError(f"row id {rid} already freed")
        del self._id_of[row]
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

    def set_live(self, rid: int, live: bool) -> None:
        self._live[rid] = live

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
