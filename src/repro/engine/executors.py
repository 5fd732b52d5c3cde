"""Query executors: vanilla evaluation and the two provenance policies.

Three executors implement the paper's three main configurations:

* :class:`VanillaExecutor` — "No provenance": set semantics with physical
  deletes, the baseline of Figures 7b/8b;
* :class:`NaiveExecutor` — "No axioms": the literal Section 3.1
  construction.  Tuples are tombstoned, never removed, and annotations are
  raw UP[X] expressions that only the zero axioms simplify (worst-case
  exponential, Proposition 5.1);
* :class:`NormalFormExecutor` — "Normal form": identical matching
  semantics, but annotations are maintained as Theorem 5.3 shapes with the
  Figure 6 rules applied incrementally after every update.

All of them sit on one shared storage layer, the
:class:`~repro.store.annotation_store.AnnotationStore`: stable row ids,
annotation slots, liveness bits, and per-column indexes maintained on
every insertion and removal.  Row selection for deletions and
modifications goes through the store's pattern planner — match cost is
proportional to the matched rows, not the relation size, with a
guaranteed linear-scan fallback — so no executor hand-rolls its own
row-set/annotation-dict bookkeeping or scans relations wholesale.

A detail that is easy to miss in the paper but visible in its Figure 4: the
annotated semantics applies updates to every tuple with a *non-zero
annotation*, including tombstones (that is how the tombstone
``(p1 +M (p3 *M p)) - p`` becomes a modification source under ``p'``).
The store searches the whole support accordingly.  Real set-semantics
liveness is tracked separately per row so that the vanilla result can
always be recovered exactly (and is cross-checked in tests): a
modification target is *live* iff it was live and not modified away, or
some live source mapped onto it.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from ..core.expr import Expr, ZERO, dag_size, minus, plus_i, plus_m, ssum, times_m, var
from ..core.normal_form import Contribution, NormalForm
from ..core.normalize import normalize_expr
from ..db.database import Database
from ..errors import EngineError
from ..queries.updates import Delete, Insert, Modify, UpdateQuery
from ..store.annotation_store import AnnotationStore, RelationStore
from ..views.deltas import RowDelta

__all__ = [
    "Executor",
    "VanillaExecutor",
    "NaiveExecutor",
    "NormalFormExecutor",
    "BatchNormalFormExecutor",
    "AnnotatedExecutor",
]


class Executor:
    """Interface every policy executor implements."""

    #: registry name, e.g. ``"naive"``; subclasses override.
    policy = "abstract"
    #: whether the executor maintains provenance annotations.
    tracks_provenance = True

    def apply(self, query: UpdateQuery) -> tuple[int, int]:
        """Apply one query; returns ``(rows matched, rows created)``."""
        if isinstance(query, Insert):
            return self.apply_insert(query)
        if isinstance(query, Delete):
            return self.apply_delete(query)
        if isinstance(query, Modify):
            return self.apply_modify(query)
        raise EngineError(f"unknown query type {type(query).__name__}")

    def apply_batch(self, queries: Sequence[UpdateQuery]) -> tuple[int, int]:
        """Apply a single-relation run of queries; returns summed (matched, created).

        Selection already runs through the store's maintained indexes for
        every single query, so a run needs no throwaway per-run index: the
        batched pipeline's remaining leverage is deferred work at run and
        transaction boundaries (see :class:`BatchNormalFormExecutor`).
        Execution is query-by-query in run order, so results are
        bit-identical to sequential application by construction.
        """
        queries = list(queries)
        if queries and any(q.relation != queries[0].relation for q in queries[1:]):
            raise EngineError("apply_batch requires queries on a single relation")
        matched = created = 0
        for query in queries:
            m, c = self.apply(query)
            matched += m
            created += c
        return (matched, created)

    def apply_insert(self, query: Insert) -> tuple[int, int]:
        raise NotImplementedError

    def apply_delete(self, query: Delete) -> tuple[int, int]:
        raise NotImplementedError

    def apply_modify(self, query: Modify) -> tuple[int, int]:
        raise NotImplementedError

    def on_transaction_end(self, name: str) -> None:
        """Hook invoked after a whole :class:`Transaction` was applied."""

    def flush(self) -> None:
        """Materialize deferred work; a no-op unless the policy defers any."""

    # -- inspection -----------------------------------------------------------

    def live_rows(self, relation: str) -> set[tuple[object, ...]]:
        raise NotImplementedError

    def result(self) -> Database:
        """The live contents as a plain database (standard set semantics)."""
        raise NotImplementedError

    def support_count(self) -> int:
        """Number of stored rows including tombstones."""
        raise NotImplementedError

    def live_count(self) -> int:
        raise NotImplementedError

    def provenance_size(self) -> int:
        """Total expanded provenance size over all stored rows.

        Counts every annotation as a *tree* (shared sub-expressions with
        multiplicity) — the formula-length metric of Proposition 5.1.  May
        be astronomically large for the naive policy; it is computed with
        memoized big-int arithmetic, never by materializing the tree.
        """
        return 0

    def provenance_dag_size(self) -> int:
        """Total *stored* provenance size: distinct expression nodes.

        Shared sub-expressions count once across the whole database.  This
        is what an implementation holding annotations as objects (like the
        paper's Python prototype, and like this one) physically keeps in
        memory, and the metric the Section 6 memory-overhead figures use.
        """
        return 0

    def provenance_items(self, relation: str) -> Iterator[tuple[tuple, Expr, bool]]:
        """Yields ``(row, expression, live)`` for every stored row."""
        raise NotImplementedError

    def annotation_of(self, relation: str, row: tuple) -> Expr:
        """The annotation of one stored row (``0`` if never stored).

        Generic fallback: a provenance scan.  Store-backed executors
        override this with an O(1) probe of the row-keyed index.
        """
        target = tuple(row)
        for stored, expr, _live in self.provenance_items(relation):
            if stored == target:
                return expr
        return ZERO


class StoreBackedExecutor(Executor):
    """Common plumbing of every executor sitting on an :class:`AnnotationStore`.

    Every support mutation goes through the store, whose per-relation
    change sets (:class:`~repro.store.row_store.RowStore`) are the one
    record of what changed.  At quiescent points the engine either
    drains them into row deltas (:meth:`take_deltas`, while live views
    are attached) or forgets them (:meth:`drop_changes`).  Executors
    whose slots have no ``UP[X]`` expression form set
    :attr:`stores_expressions` to False; the engine then refuses to
    attach views.
    """

    #: whether annotation slots map to UP[X] expressions (:meth:`_expr_of`).
    stores_expressions = True

    def __init__(self, database: Database, use_indexes: bool = True):
        self.schema = database.schema
        self.store = AnnotationStore(database.schema, use_indexes=use_indexes)

    def _relation_store(self, name: str) -> RelationStore:
        return self.store.relation(name)

    def on_transaction_end(self, name: str) -> None:
        self.flush()

    def take_deltas(self) -> list[RowDelta]:
        """Drain every change set into one row delta per changed row.

        A row that entered the support since the last drain is an
        ``insert``; a row no longer stored is a ``free``; any other
        changed row is an ``annotation`` when live and a ``delete`` when
        tombstoned.  Payloads are the final annotation and liveness,
        mapped through :meth:`_expr_of`.
        """
        deltas = []
        for name, store in self.store.relations():
            rows = store.rows
            for row, entered in rows.take_changes():
                rid = rows.rid_of(row)
                if rid is None:
                    deltas.append(RowDelta("free", name, row, None, False))
                    continue
                ann, live = rows.annotation(rid), rows.is_live(rid)
                kind = "insert" if entered else "annotation" if live else "delete"
                expr = None if ann is None else self._expr_of(ann)
                deltas.append(RowDelta(kind, name, row, expr, live))
        return deltas

    def drop_changes(self) -> None:
        """Forget the change sets unread: nothing is deferred."""
        for _name, store in self.store.relations():
            store.rows.drop_changes()

    def live_rows(self, relation: str) -> set[tuple[object, ...]]:
        return self.store.live_rows(relation)

    def result(self) -> Database:
        db = Database(self.schema)
        for name, _store in self.store.relations():
            db.extend(name, self.store.live_rows(name))
        return db

    def support_count(self) -> int:
        return self.store.support_count()

    def live_count(self) -> int:
        return self.store.live_count()

    def annotation_of(self, relation: str, row: tuple) -> Expr:
        """O(1) probe of the row-keyed index instead of a provenance scan.

        Bit-identical to the generic scan: the probe hits exactly the slot
        the scan would find (rows are unique in the support) and maps its
        annotation through the same ``_expr_of`` hook.
        """
        rows = self._relation_store(relation).rows
        rid = rows.rid_of(tuple(row))
        if rid is None:
            return ZERO
        ann = rows.annotation(rid)
        return ZERO if ann is None else self._expr_of(ann)

    def _expr_of(self, ann: object) -> Expr:
        """Map a stored annotation slot to its UP[X] expression.

        The vanilla executor stores no annotations (every slot is
        ``None``, handled above); annotated executors override this.
        """
        return ZERO


class VanillaExecutor(StoreBackedExecutor):
    """Set semantics, physical deletes, no annotations ("No provenance").

    Rows live in the same indexed store the annotated executors use (with
    empty annotation slots) — so runtime comparisons against the
    provenance policies measure provenance work, not a container artifact.
    Deletions and modification sources *free* their rows: the vanilla
    support is exactly the live database.
    """

    policy = "none"
    tracks_provenance = False

    def __init__(self, database: Database, use_indexes: bool = True):
        super().__init__(database, use_indexes)
        for name in database.relations():
            store = self.store.relation(name)
            for row in database.rows(name):
                store.add(row, None, True)

    def apply_insert(self, query: Insert) -> tuple[int, int]:
        store = self._relation_store(query.relation)
        row = self.schema.relation(query.relation).check_row(query.row)
        if store.rows.rid_of(row) is not None:
            return (0, 0)
        store.add(row, None, True)
        return (0, 1)

    def apply_delete(self, query: Delete) -> tuple[int, int]:
        store = self._relation_store(query.relation)
        matched = store.matching(query.pattern)
        for rid, _row in matched:
            store.free(rid)
        return (len(matched), 0)

    def apply_modify(self, query: Modify) -> tuple[int, int]:
        store = self._relation_store(query.relation)
        matched = store.matching(query.pattern)
        images = dict.fromkeys(query.apply_to_row(row) for _rid, row in matched)
        for rid, _row in matched:
            store.free(rid)
        created = 0
        for image in images:
            if store.rows.rid_of(image) is None:
                store.add(image, None, True)
                created += 1
        return (len(matched), created)

    def provenance_items(self, relation: str) -> Iterator[tuple[tuple, Expr, bool]]:
        for _rid, row in self._relation_store(relation).items():
            yield row, ZERO, True


class AnnotatedExecutor(StoreBackedExecutor):
    """Shared machinery of the naive and normal-form policies.

    Subclasses provide the annotation algebra through five hooks
    (:meth:`_initial`, :meth:`_insert_ann`, :meth:`_delete_ann`,
    :meth:`_contribution`, :meth:`_absorb`) plus :meth:`_expr_of`; rows,
    liveness and selection all live in the shared store.  Tuples are
    tombstoned (``live = False``), never freed — updates match the whole
    support.
    """

    def __init__(
        self,
        database: Database,
        annotate: Callable[[str, tuple, int], str] | None = None,
        use_indexes: bool = True,
    ):
        super().__init__(database, use_indexes)
        self._tuple_vars: dict[str, dict[tuple, str]] = {}
        namer = annotate or (lambda rel, row, i: f"x{i}")
        counter = 0
        for name in database.relations():
            store = self.store.relation(name)
            names: dict[tuple, str] = {}
            for row in sorted(database.rows(name), key=repr):
                counter += 1
                ann_name = namer(name, row, counter)
                names[row] = ann_name
                store.add(row, self._initial(ann_name), True)
            self._tuple_vars[name] = names

    # -- algebra hooks --------------------------------------------------------

    def _initial(self, ann_name: str) -> object:
        raise NotImplementedError

    def _insert_ann(self, ann: object | None, p: Expr) -> object:
        raise NotImplementedError

    def _delete_ann(self, ann: object, p: Expr) -> object:
        raise NotImplementedError

    def _contribution(self, ann: object, p: Expr) -> object:
        raise NotImplementedError

    def _merge(self, contributions: list[object]) -> object:
        raise NotImplementedError

    def _absorb(self, ann: object | None, contribution: object, p: Expr) -> object:
        raise NotImplementedError

    def _expr_of(self, ann: object) -> Expr:
        raise NotImplementedError

    # -- query application ------------------------------------------------------

    def apply_insert(self, query: Insert) -> tuple[int, int]:
        store = self._relation_store(query.relation)
        row = self.schema.relation(query.relation).check_row(query.row)
        p = var(query._check_annotation())
        rows = store.rows
        rid = rows.rid_of(row)
        if rid is None:
            ann = self._insert_ann(None, p)
            store.add(row, ann, True)
            return (0, 1)
        ann = self._insert_ann(rows.annotation(rid), p)
        rows.set_annotation(rid, ann)
        rows.set_live(rid, True)
        return (0, 0)

    def apply_delete(self, query: Delete) -> tuple[int, int]:
        store = self._relation_store(query.relation)
        p = var(query._check_annotation())
        matched = store.matching(query.pattern)
        rows = store.rows
        for rid, _row in matched:
            ann = self._delete_ann(rows.annotation(rid), p)
            rows.set_annotation(rid, ann)
            rows.set_live(rid, False)
        return (len(matched), 0)

    def apply_modify(self, query: Modify) -> tuple[int, int]:
        store = self._relation_store(query.relation)
        # Phase 1: select sources over the whole support (tombstones
        # included), through the planner.
        matched = store.matching(query.pattern)
        return self._modify_matched(store, matched, query)

    def _modify_matched(
        self,
        store: RelationStore,
        matched: list[tuple[int, tuple]],
        query: Modify,
    ) -> tuple[int, int]:
        """Phases 2/3 of a modification over pre-matched (rid, row) pairs."""
        p = var(query._check_annotation())
        rows = store.rows
        # Collect the *pre-state* contributions of the matched sources.
        by_target: dict[tuple, list[object]] = {}
        live_target: dict[tuple, bool] = {}
        for rid, row in matched:
            target = query.apply_to_row(row)
            by_target.setdefault(target, []).append(
                self._contribution(rows.annotation(rid), p)
            )
            live_target[target] = live_target.get(target, False) or rows.is_live(rid)
        # Phase 2: sources are modified away (deleted).
        for rid, _row in matched:
            ann = self._delete_ann(rows.annotation(rid), p)
            rows.set_annotation(rid, ann)
            rows.set_live(rid, False)
        # Phase 3: targets absorb the merged contributions.
        created = 0
        for target, contributions in by_target.items():
            merged = self._merge(contributions)
            rid = rows.rid_of(target)
            if rid is None:
                ann = self._absorb(None, merged, p)
                if self._expr_of(ann).is_zero and not live_target[target]:
                    # All sources were deleted under this very annotation:
                    # the target's annotation is 0, i.e. it never enters the
                    # support (Rule 3 firing on an absent target).
                    continue
                store.add(target, ann, live_target[target])
                created += 1
            else:
                ann = self._absorb(rows.annotation(rid), merged, p)
                live = rows.is_live(rid) or live_target[target]
                rows.set_annotation(rid, ann)
                rows.set_live(rid, live)
        return (len(matched), created)

    # -- inspection ---------------------------------------------------------------

    def provenance_size(self) -> int:
        return sum(
            self._expr_of(ann).size()
            for name, _store in self.store.relations()
            for _row, ann, _live in self.store.items(name)
        )

    def provenance_dag_size(self) -> int:
        return dag_size(
            self._expr_of(ann)
            for name, _store in self.store.relations()
            for _row, ann, _live in self.store.items(name)
        )

    def provenance_items(self, relation: str) -> Iterator[tuple[tuple, Expr, bool]]:
        for row, ann, live in self.store.items(relation):
            yield row, self._expr_of(ann), live


class NaiveExecutor(AnnotatedExecutor):
    """The literal Section 3.1 construction ("No axioms")."""

    policy = "naive"

    def _initial(self, ann_name: str) -> Expr:
        return var(ann_name)

    def _insert_ann(self, ann: Expr | None, p: Expr) -> Expr:
        return plus_i(ann if ann is not None else ZERO, p)

    def _delete_ann(self, ann: Expr, p: Expr) -> Expr:
        return minus(ann, p)

    def _contribution(self, ann: Expr, p: Expr) -> Expr:
        return ann

    def _merge(self, contributions: list[Expr]) -> Expr:
        return ssum(contributions)

    def _absorb(self, ann: Expr | None, contribution: Expr, p: Expr) -> Expr:
        return plus_m(ann if ann is not None else ZERO, times_m(contribution, p))

    def _expr_of(self, ann: Expr) -> Expr:
        return ann


class NormalFormExecutor(AnnotatedExecutor):
    """Incremental Theorem 5.3 normal forms ("Normal form")."""

    policy = "normal_form"

    def _initial(self, ann_name: str) -> NormalForm:
        return NormalForm.untouched(var(ann_name))

    def _insert_ann(self, ann: NormalForm | None, p: Expr) -> NormalForm:
        return (ann if ann is not None else NormalForm.absent()).on_insert(p)

    def _delete_ann(self, ann: NormalForm, p: Expr) -> NormalForm:
        return ann.on_delete(p)

    def _contribution(self, ann: NormalForm, p: Expr) -> Contribution:
        return ann.contribution(p)

    def _merge(self, contributions: list[Contribution]) -> Contribution:
        acc = Contribution()
        for c in contributions:
            acc = acc.merge(c)
        return acc

    def _absorb(
        self, ann: NormalForm | None, contribution: Contribution, p: Expr
    ) -> NormalForm:
        return (ann if ann is not None else NormalForm.absent()).absorb(contribution, p)

    def _expr_of(self, ann: NormalForm) -> Expr:
        return ann.to_expr()


class BatchNormalFormExecutor(NaiveExecutor):
    """Normal forms with batch-deferred rewriting ("Normal form, batched").

    During a run of updates annotations accumulate through the *naive*
    Section 3.1 construction — O(1) smart-constructor appends per touched
    row, no per-update rule application — and the Theorem 5.3 rewrite runs
    once per :meth:`flush`: at transaction boundaries and before any
    provenance is observed.  A flush rewrites only the rows touched since
    the previous one (each :class:`~repro.store.row_store.RowStore`'s pending
    rows), so its cost follows the size of the update, not of the support —
    the bar Berkholz-style update processing sets.  It uses the memoized
    replay normalizer (:func:`repro.core.normalize.normalize_expr`), so
    bases shared across rows and layers already normalized by earlier
    flushes are not rewritten again.

    The flushed annotation of a row is UP[X]-equivalent to what
    :class:`NormalFormExecutor` maintains incrementally (both implement the
    Figure 6 rules), and of the same linear size bound.
    """

    policy = "normal_form_batch"

    def flush(self) -> None:
        """Rewrite every annotation touched since the last flush into its
        normal form, once.

        The touched rows are each change set's pending rows.  Untouched
        rows need no work: every stored annotation went through a flush
        after its last mutation, annotations are immutable interned DAGs,
        and a normal form is a fixed point of the normalizer.

        Rows whose annotation normalizes to ``0`` and that are dead are
        dropped from the support: they are modification targets all of
        whose sources were deleted under the same annotation (Rule 3), the
        rows the incremental executor never creates in the first place.  A
        live row can never normalize to ``0`` (Proposition 4.2: liveness is
        the all-true Boolean valuation of the annotation).
        """
        for _name, store in self.store.relations():
            rows = store.rows
            dead_zero: list[int] = []
            for rid, _row in rows.pending_rows():
                old = rows.annotation(rid)
                ann = normalize_expr(old)
                if ann is not old:
                    rows.set_annotation(rid, ann)
                if ann.is_zero and not rows.is_live(rid):
                    dead_zero.append(rid)
            rows.mark_flushed()
            for rid in dead_zero:
                store.free(rid)

    def drop_changes(self) -> None:
        """Forget the flushed and freed rows; pending rows wait for the
        next flush."""
        for _name, store in self.store.relations():
            store.rows.drop_settled()

    # Observations must never expose un-normalized intermediates, and the
    # support count must not depend on whether provenance was read first
    # (flushing drops dead zero-annotation rows).

    def provenance_items(self, relation: str) -> Iterator[tuple[tuple, Expr, bool]]:
        self.flush()
        return super().provenance_items(relation)

    def annotation_of(self, relation: str, row: tuple) -> Expr:
        self.flush()
        return super().annotation_of(relation, row)

    def provenance_size(self) -> int:
        self.flush()
        return super().provenance_size()

    def provenance_dag_size(self) -> int:
        self.flush()
        return super().provenance_dag_size()

    def support_count(self) -> int:
        self.flush()
        return super().support_count()
