"""MV-semiring provenance tracking as an engine policy (paper Section 6.4).

Follows the reenactment model of [Arab et al. 2016] for our update-only
fragment: the database is a set of *tuple versions*, each carrying its own
MV-annotation.  An update evolves the matching versions in place (wrapping
a ``U`` operation and rewriting the row); no merging of sources into one
target ever happens, so — unlike the UP[X] executors — modified tuples are
not duplicated (the difference the paper highlights when comparing
database sizes).  A transaction commit wraps the touched versions with a
``C`` operation, as in the reenactment encoding.

Storage sits on the shared :mod:`repro.store` facade like every other
executor: one slot per distinct *current row value*, whose annotation is
the non-empty list of :class:`MVVersion` objects currently at that row
(they necessarily share it — a version's row only changes by relocating
to the target's slot) and whose liveness bit is "any version live".
Selection therefore runs through the store's pattern planner instead of a
whole-relation version scan, and multiversion reads share one maintenance
path with the live-view machinery.  Because slots hold version lists, not
``UP[X]`` expressions (:attr:`MVExecutor.stores_expressions`), the policy
has no row-delta form and live views cannot attach to it.
"""

from __future__ import annotations

from typing import Callable, Iterator

from ..db.database import Database
from ..engine.executors import Executor, StoreBackedExecutor
from ..errors import EngineError
from ..queries.updates import Delete, Insert, Modify
from .expr import MVString, MVTree

__all__ = ["MVExecutor", "MVVersion"]


class MVVersion:
    """One tuple version: current row value, annotation, liveness."""

    __slots__ = ("row", "ann", "live", "version_id")

    def __init__(self, row: tuple, ann, live: bool, version_id: int):
        self.row = row
        self.ann = ann
        self.live = live
        self.version_id = version_id


class MVExecutor(StoreBackedExecutor):
    """Engine policy generating MV-semiring annotations.

    ``representation`` selects the tree (``anytree``-like, deep copies) or
    string (concatenation, re-parse on use) implementation, matching the
    two baselines of Figure 10b.
    """

    tracks_provenance = True
    stores_expressions = False

    def __init__(
        self,
        database: Database,
        representation: str = "tree",
        annotate: Callable[[str, tuple, int], str] | None = None,
    ):
        if representation not in ("tree", "string"):
            raise EngineError(f"unknown MV representation {representation!r}")
        super().__init__(database)
        self.policy = f"mv_{representation}"
        self._leaf = MVTree.leaf if representation == "tree" else MVString.leaf
        self._tuple_vars: dict[str, dict[tuple, str]] = {}
        self._time = 1
        self._next_version = 1
        self._touched: list[MVVersion] = []
        namer = annotate or (lambda rel, row, i: f"x{i}")
        counter = 0
        for name in database.relations():
            store = self.store.relation(name)
            names: dict[tuple, str] = {}
            for row in sorted(database.rows(name), key=repr):
                counter += 1
                ann_name = namer(name, row, counter)
                names[row] = ann_name
                version = MVVersion(row, self._leaf(ann_name), True, self._next_version)
                self._next_version += 1
                store.add(row, [version], True)
            self._tuple_vars[name] = names

    # -- query application -------------------------------------------------------

    def _tick(self) -> int:
        self._time += 1
        return self._time

    def apply_insert(self, query: Insert) -> tuple[int, int]:
        store = self._relation_store(query.relation)
        row = self.schema.relation(query.relation).check_row(query.row)
        nu = self._tick()
        fresh = self._leaf(f"x{query.relation}.{self._next_version}")
        version = MVVersion(
            row,
            fresh.wrap("I", self._next_version, query._check_annotation(), nu),
            True,
            self._next_version,
        )
        self._next_version += 1
        rows = store.rows
        rid = rows.rid_of(row)
        if rid is None:
            store.add(row, [version], True)
        else:
            # The row already has versions (live or tombstoned): the new
            # version joins them at the same slot.
            rows.annotation(rid).append(version)
            rows.set_live(rid, True)
        self._touched.append(version)
        return (0, 1)

    def apply_delete(self, query: Delete) -> tuple[int, int]:
        store = self._relation_store(query.relation)
        p = query._check_annotation()
        nu = self._tick()
        rows = store.rows
        matched = 0
        for rid, _row in store.matching(query.pattern):
            wrapped = 0
            for version in rows.annotation(rid):
                if version.live:
                    version.ann = version.ann.wrap("D", version.version_id, p, nu)
                    version.live = False
                    self._touched.append(version)
                    wrapped += 1
            if wrapped:
                rows.set_live(rid, False)
                matched += wrapped
        return (matched, 0)

    def apply_modify(self, query: Modify) -> tuple[int, int]:
        store = self._relation_store(query.relation)
        p = query._check_annotation()
        nu = self._tick()
        rows = store.rows
        # Match and collect movers against the pre-query state before any
        # relocation: every version is moved at most once per query (as in
        # the flat-list reenactment loop, which visits each version once),
        # even when one source's target is another source's row.
        moves: list[tuple[int, tuple, tuple, list[MVVersion]]] = []
        matched = 0
        for rid, row in store.matching(query.pattern):
            movers = [v for v in rows.annotation(rid) if v.live]
            if not movers:
                continue
            moves.append((rid, row, query.apply_to_row(row), movers))
            matched += len(movers)
        for rid, row, target, movers in moves:
            mover_ids = {id(v) for v in movers}
            for version in movers:
                version.ann = version.ann.wrap("U", version.version_id, p, nu)
                version.row = target
                self._touched.append(version)
            if target == row:
                continue
            remaining = [v for v in rows.annotation(rid) if id(v) not in mover_ids]
            if remaining:
                # Earlier moves in this query may have landed live versions
                # here, so the slot's liveness is recomputed, not cleared.
                rows.set_annotation(rid, remaining)
                rows.set_live(rid, any(v.live for v in remaining))
            else:
                store.free(rid)
            trid = rows.rid_of(target)
            if trid is None:
                store.add(target, list(movers), True)
            else:
                rows.annotation(trid).extend(movers)
                rows.set_live(trid, True)
        return (matched, 0)

    def on_transaction_end(self, name: str) -> None:
        """Commit: wrap every version the transaction touched with ``C``."""
        nu = self._tick()
        committed: set[int] = set()
        for version in self._touched:
            if id(version) not in committed:
                committed.add(id(version))
                version.ann = version.ann.wrap("C", version.version_id, name, nu)
        self._touched.clear()
        super().on_transaction_end(name)

    # -- inspection -----------------------------------------------------------------

    def _all_versions(self, relation: str) -> list[MVVersion]:
        """Every version of ``relation`` in creation order.

        Slots keep versions grouped by current row, so creation order is
        recovered by sorting on the monotonically assigned ``version_id``
        — the order the flat-list implementation stored and every
        observer (provenance iteration, last-wins row summaries) relied
        on.
        """
        store = self._relation_store(relation)
        versions = [
            v for _rid, row in store.rows.items() for v in store.rows.annotation(_rid)
        ]
        versions.sort(key=lambda v: v.version_id)
        return versions

    def live_rows(self, relation: str) -> set[tuple[object, ...]]:
        return self.store.live_rows(relation)

    def support_count(self) -> int:
        return sum(
            len(store.rows.annotation(rid))
            for _name, store in self.store.relations()
            for rid, _row in store.rows.items()
        )

    def live_count(self) -> int:
        return sum(
            1
            for _name, store in self.store.relations()
            for rid, _row in store.rows.items()
            for v in store.rows.annotation(rid)
            if v.live
        )

    def provenance_size(self) -> int:
        return sum(
            v.ann.length()
            for _name, store in self.store.relations()
            for rid, _row in store.rows.items()
            for v in store.rows.annotation(rid)
        )

    def provenance_dag_size(self) -> int:
        """MV annotations are unshared chains: stored size equals length."""
        return self.provenance_size()

    def provenance_items(self, relation: str) -> Iterator[tuple[tuple, object, bool]]:
        """Yields ``(row, MV annotation, live)`` — one entry per version."""
        for version in self._all_versions(relation):
            yield version.row, version.ann, version.live

    def annotation_of(self, relation: str, row: tuple):
        # Slots hold version lists, not expressions: fall back to the
        # generic provenance scan (first version at the row, in creation
        # order) instead of the store probe.
        return Executor.annotation_of(self, relation, row)
