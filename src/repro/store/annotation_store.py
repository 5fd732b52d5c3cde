"""The shared storage layer under every executor.

An :class:`AnnotationStore` holds, per relation, a
:class:`~repro.store.row_store.RowStore` (stable row ids, annotation
slots, liveness bits) together with one maintained
:class:`~repro.store.column_index.ColumnIndex` per attribute position.
Executors express *what* they store in the annotation slot (nothing,
UP[X] expressions, normal forms); the store owns *how* rows are found —
:meth:`RelationStore.matching` compiles each pattern through the planner
and either probes the maintained indexes or falls back to a linear scan,
with every decision counted in :class:`PlannerStats`.

Matching semantics: the support (tombstones included) is searched, and
matches are produced in ascending row-id order — exactly the order a
linear scan of the old per-executor dicts produced — so indexed and
scanned execution are bit-identical, not merely set-equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..db.schema import Relation, Schema
from ..errors import EngineError
from ..queries.pattern import Pattern
from .column_index import ColumnIndex
from .planner import SCAN, compile_plan
from .row_store import RowStore

__all__ = ["AnnotationStore", "PlannerStats", "RelationStore"]


@dataclass
class PlannerStats:
    """Planner decisions, accumulated over a store's lifetime."""

    #: pattern matchings served by probing column indexes.
    index_hits: int = 0
    #: pattern matchings that linear-scanned the whole support.
    fallback_scans: int = 0
    #: candidate rows the index handed to the predicate (indexed path only).
    rows_examined: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "index_hits": self.index_hits,
            "fallback_scans": self.fallback_scans,
            "rows_examined": self.rows_examined,
        }


class RelationStore:
    """One relation's rows plus its maintained per-column indexes."""

    __slots__ = ("relation", "rows", "indexes", "use_indexes", "_stats")

    def __init__(
        self,
        relation: Relation,
        stats: PlannerStats,
        use_indexes: bool = True,
    ):
        self.relation = relation
        self.rows = RowStore()
        self.indexes = tuple(ColumnIndex() for _ in range(relation.arity))
        self.use_indexes = use_indexes
        self._stats = stats

    # -- mutation (indexes maintained incrementally) ----------------------------

    def add(self, row: tuple, ann: object = None, live: bool = True) -> int:
        rid = self.rows.add(row, ann, live)
        for index, value in zip(self.indexes, row):
            index.add(rid, value)
        return rid

    def free(self, rid: int) -> None:
        """Drop a row from the support (vanilla deletes, dead zero rows)."""
        row = self.rows.free(rid)
        for index, value in zip(self.indexes, row):
            index.remove(rid, value)

    def _maybe_compact(self) -> None:
        """Rebuild slots and indexes once freed slots dominate.

        Freed slots keep their ``None`` entries until compaction, so
        churn-heavy workloads (vanilla insert+delete cycles) would
        otherwise grow the slot lists — and every fallback scan — without
        bound.  Compaction runs at the top of :meth:`matching`, the one
        point where no caller holds row ids; amortized cost is O(1) per
        freed slot.
        """
        rows = self.rows
        if rows.slot_count() > 64 and rows.slot_count() > 2 * len(rows):
            rows.compact()
            indexes = tuple(ColumnIndex() for _ in self.indexes)
            for rid, row in rows.items():
                for index, value in zip(indexes, row):
                    index.add(rid, value)
            self.indexes = indexes

    # -- matching ---------------------------------------------------------------

    def matching(self, pattern: Pattern) -> list[tuple[int, tuple]]:
        """All support rows satisfying ``pattern``, as ``(rid, row)`` pairs.

        Materialized (not a generator) because every caller mutates the
        store while consuming the matches.
        """
        self._maybe_compact()
        plan = compile_plan(pattern) if self.use_indexes else SCAN
        if not plan.is_scan:
            sets = []
            for position in plan.positions:
                candidates = self.indexes[position].candidates(pattern.eq[position])
                if candidates is not None:
                    sets.append(candidates)
            if sets:
                sets.sort(key=len)
                survivors = sets[0]
                for other in sets[1:]:
                    survivors = survivors & other
                self._stats.index_hits += 1
                self._stats.rows_examined += len(survivors)
                rows = self.rows
                return [
                    (rid, row)
                    for rid in sorted(survivors)
                    if pattern.matches(row := rows.row(rid))
                ]
        self._stats.fallback_scans += 1
        return [(rid, row) for rid, row in self.rows.items() if pattern.matches(row)]

    # -- inspection -------------------------------------------------------------

    def items(self) -> Iterator[tuple[int, tuple]]:
        return self.rows.items()

    def __len__(self) -> int:
        return len(self.rows)


class AnnotationStore:
    """Per-relation :class:`RelationStore` map with shared planner stats."""

    __slots__ = ("schema", "stats", "_relations")

    def __init__(self, schema: Schema, use_indexes: bool = True):
        self.schema = schema
        self.stats = PlannerStats()
        self._relations: dict[str, RelationStore] = {
            relation.name: RelationStore(relation, self.stats, use_indexes)
            for relation in schema
        }

    @property
    def use_indexes(self) -> bool:
        return all(store.use_indexes for store in self._relations.values())

    @use_indexes.setter
    def use_indexes(self, enabled: bool) -> None:
        for store in self._relations.values():
            store.use_indexes = enabled

    def relation(self, name: str) -> RelationStore:
        try:
            return self._relations[name]
        except KeyError:
            raise EngineError(f"unknown relation {name!r}") from None

    def relations(self) -> Iterator[tuple[str, RelationStore]]:
        return iter(self._relations.items())

    # -- whole-store inspection --------------------------------------------------

    def support_count(self) -> int:
        return sum(len(store.rows) for store in self._relations.values())

    def live_count(self) -> int:
        return sum(store.rows.live_count() for store in self._relations.values())

    def live_rows(self, name: str) -> set[tuple]:
        return self.relation(name).rows.live_rows()

    def items(self, name: str) -> Iterator[tuple[tuple, object, bool]]:
        """``(row, annotation, live)`` over one relation's support."""
        rows = self.relation(name).rows
        for rid, row in rows.items():
            yield row, rows.annotation(rid), rows.is_live(rid)

    def state(self) -> dict[str, dict[tuple, tuple[object, bool]]]:
        """A materialized ``{relation: {row: (annotation, live)}}`` capture.

        The row-id-free view of the whole store — what a checkpoint
        persists and what bit-identity comparisons compare (row ids and
        indexes are storage artifacts, rebuilt on load).  The returned
        dicts are detached from the store: mutating the store afterwards
        does not change a captured state.
        """
        return {
            name: {row: (ann, live) for row, ann, live in self.items(name)}
            for name in self.schema.names
        }
