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

Each store also keeps a *dirty set*: the values of the rows added or
re-annotated (or whose liveness was set) since the last
:meth:`RowStore.take_dirty`.  It is what makes the deferred policy's
transaction-end flush proportional to the rows a transaction touched
rather than to the support; the policies that defer nothing clear it at
transaction end instead.  It is keyed by row value, not row id, so
:meth:`RowStore.compact` renumbering cannot make it stale, and freeing a
row removes it, so it never holds more entries than the support.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["RowStore"]


class RowStore:
    """Append-only slots: row value, annotation, liveness, per row id.

    Annotations are held as the objects the executor stored (``None``,
    interned :class:`~repro.core.expr.Expr` DAGs, normal forms).
    """

    __slots__ = ("_rows", "_ann", "_live", "_id_of", "_dirty")

    def __init__(self):
        self._rows: list[tuple | None] = []
        self._ann: list[object] = []
        self._live: list[bool] = []
        #: row value -> row id, for rows currently in the support.
        self._id_of: dict[tuple, int] = {}
        #: values of stored rows mutated since the last ``take_dirty()``.
        self._dirty: set[tuple] = set()

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
        self._dirty.add(row)
        return rid

    def free(self, rid: int) -> tuple:
        """Remove a slot from the support entirely; returns its row value."""
        row = self._rows[rid]
        if row is None:
            raise ValueError(f"row id {rid} already freed")
        del self._id_of[row]
        self._dirty.discard(row)
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
        self._dirty.add(self._rows[rid])

    def set_live(self, rid: int, live: bool) -> None:
        self._live[rid] = live
        self._dirty.add(self._rows[rid])

    def settle(self, rid: int, ann: object) -> None:
        """Replace an annotation with its flushed form, leaving the row clean.

        The deferred policy's flush writes back normal forms through this:
        normalizing a normal form again is a fixed point, so the rewrite
        must not make the row pending for the next flush.
        """
        self._ann[rid] = ann

    def take_dirty(self) -> list[tuple[int, tuple]]:
        """``(rid, row)`` for every row mutated since the last call, in
        ascending-id order; clears the dirty set."""
        id_of = self._id_of
        dirty = sorted((id_of[row], row) for row in self._dirty)
        self._dirty.clear()
        return dirty

    def clear_dirty(self) -> None:
        """Forget the rows mutated since the last drain, unread.

        What the policies that defer no work do at transaction end, so
        the set stays bounded by the rows one transaction touches.
        """
        self._dirty.clear()

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
