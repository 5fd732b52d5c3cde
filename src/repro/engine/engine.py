"""The provenance-tracking update engine.

:class:`Engine` wraps a policy executor and applies update queries,
transactions or whole logs while collecting the statistics the paper's
evaluation reports.  Policies::

    none / no_provenance   vanilla set semantics (baseline)
    naive / no_axioms      Section 3.1 construction, no equivalence axioms
    normal_form            incremental Theorem 5.3 normal forms
    normal_form_batch      Theorem 5.3 normal forms, rewritten once per
                           flush (transaction end or observation); the
                           served default
    mv_tree / mv_string    the MV-semiring baseline of [Arab et al. 2016]

Example::

    engine = Engine(db, policy="normal_form")
    engine.apply(Transaction("t1", [Delete.where(rel, {"category": "Fashion"})]))
    for row, expr, live in engine.provenance("products"):
        ...
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator, Mapping

from ..core.expr import Expr, evaluate
from ..db.database import Database
from ..errors import EngineError
from ..queries.updates import Transaction, UpdateQuery
from ..views.deltas import DeltaBatch
from .executors import (
    BatchNormalFormExecutor,
    Executor,
    NaiveExecutor,
    NormalFormExecutor,
    VanillaExecutor,
)
from .stats import EngineStats

__all__ = ["Engine", "POLICIES", "make_executor"]


def _mv_factory(kind: str):
    def factory(database: Database, annotate=None) -> Executor:
        from ..mv.policy import MVExecutor  # lazy: keep engine importable alone

        return MVExecutor(database, representation=kind, annotate=annotate)

    return factory


POLICIES: dict[str, Callable[..., Executor]] = {
    "none": VanillaExecutor,
    "no_provenance": VanillaExecutor,
    "naive": NaiveExecutor,
    "no_axioms": NaiveExecutor,
    "normal_form": NormalFormExecutor,
    "normal_form_batch": BatchNormalFormExecutor,
    "mv_tree": _mv_factory("tree"),
    "mv_string": _mv_factory("string"),
}


def make_executor(
    database: Database,
    policy: str,
    annotate: Callable[[str, tuple, int], str] | None = None,
) -> Executor:
    """Instantiate the executor registered under ``policy``."""
    try:
        factory = POLICIES[policy]
    except KeyError:
        raise EngineError(
            f"unknown policy {policy!r} (known: {', '.join(sorted(POLICIES))})"
        ) from None
    if factory is VanillaExecutor:
        return VanillaExecutor(database)
    return factory(database, annotate=annotate)


class Engine:
    """Applies hyperplane updates under a provenance policy."""

    def __init__(
        self,
        database: Database,
        policy: str = "normal_form",
        annotate: Callable[[str, tuple, int], str] | None = None,
        clock: Callable[[], float] = time.perf_counter,
        journal=None,
    ):
        self.policy = policy
        self.executor = make_executor(database, policy, annotate)
        self.stats = EngineStats()
        self._clock = clock
        #: Write-ahead journal hook (see ``repro.wal``).  Anything with
        #: ``append_query`` / ``append_txn_end`` / ``append_batch_end``
        #: works; every update is journaled *before* it is applied, so a
        #: crash mid-apply re-applies the record on recovery (redo-log
        #: discipline) instead of losing it.
        self.journal = journal
        #: whether :meth:`drain_deltas` reads the change sets (live views).
        self._deltas_attached = False

    # -- applying updates -------------------------------------------------------

    def apply(self, item: UpdateQuery | Transaction | Iterable) -> "Engine":
        """Apply a query, a transaction, or any iterable of those.

        The end of each call is a quiescent point: with no live view
        attached, the changes nothing will read are forgotten there (see
        :meth:`drain_deltas`).  Returns ``self`` so applications chain.
        """
        if isinstance(item, UpdateQuery):
            self._apply_query(item)
        elif isinstance(item, Transaction):
            for query in item:
                self._apply_query(query)
            if self.journal is not None:
                self.journal.append_txn_end(item.name)
            self.executor.on_transaction_end(item.name)
            self.stats.transactions += 1
        elif isinstance(item, Iterable) and not isinstance(item, (str, bytes)):
            # str/bytes are iterables of themselves one character down and
            # would recurse forever; they are never applicable anyway.
            for element in item:
                self.apply(element)
        else:
            raise EngineError(f"cannot apply {type(item).__name__}")
        self._forget_unread_changes()
        return self

    def _forget_unread_changes(self) -> None:
        """With no view attached, drop the changes no flush needs."""
        if not self._deltas_attached:
            self.executor.drop_changes()

    def _apply_query(self, query: UpdateQuery, journaled: bool = True) -> None:
        # The journal append sits inside the timed section (as in the
        # batched path), so a journaled run's wall_time reflects the
        # per-record sync cost it actually pays.  ``journaled=False`` is
        # the replay of a record that is durable already (a shipped frame).
        journal = self.journal if journaled else None
        start = self._clock()
        if journal is not None:
            journal.append_query(query)
        try:
            matched, created = self.executor.apply(query)
        except Exception:
            if journal is not None:
                # The write-ahead record must not replay on recovery:
                # executors validate before mutating, so a raising apply
                # left no state change to redo.
                journal.append_abort()
            raise
        elapsed = self._clock() - start
        self.stats.record(query.kind, matched, created, elapsed)
        self._sync_planner_stats()

    def _sync_planner_stats(self) -> None:
        self.stats.sync_planner(self.executor.store.stats)

    def apply_batch(self, item: UpdateQuery | Transaction | Iterable) -> "Engine":
        """Apply a query sequence through the batched pipeline.

        Semantically identical to :meth:`apply` — same final states, same
        provenance.  Maximal runs of consecutive queries on one relation
        are handed to :meth:`~repro.engine.executors.Executor.apply_batch`
        as one unit.  That call is a plain per-query loop: every query
        already selects through the store's maintained indexes, and no
        executor overrides it, so a run shares no selection work.  With a
        journal attached, each query of a run is journaled before it is
        applied, and the run ends with a batch-end record.  Runs never
        straddle a transaction boundary, so per-transaction hooks (the
        ``normal_form_batch`` flush among them) fire exactly as under
        :meth:`apply`, and so does the quiescent point at the end of the
        call.  Per-run timings land in ``stats`` as batch counters.
        """
        run: list[UpdateQuery] = []

        def flush_run() -> None:
            if not run:
                return
            start = self._clock()
            if self.journal is None:
                matched, created = self.executor.apply_batch(run)
            else:
                # Journaled runs take the per-query write-ahead protocol
                # (append, apply, abort-compensate on a raising apply), so
                # the journal always reflects exactly the applied prefix
                # of a run.  Executor.apply_batch is bit-identical to this
                # loop by construction (no executor overrides it), so run
                # semantics are unchanged; only the fused call is given up.
                matched = created = 0
                for query in run:
                    self.journal.append_query(query)
                    try:
                        m, c = self.executor.apply(query)
                    except Exception:
                        self.journal.append_abort()
                        raise
                    matched += m
                    created += c
                self.journal.append_batch_end(len(run))
            elapsed = self._clock() - start
            self.stats.record_batch([q.kind for q in run], matched, created, elapsed)
            self._sync_planner_stats()
            run.clear()

        def feed(item: UpdateQuery | Transaction | Iterable) -> None:
            if isinstance(item, UpdateQuery):
                if run and run[-1].relation != item.relation:
                    flush_run()
                run.append(item)
            elif isinstance(item, Transaction):
                flush_run()  # runs never straddle a transaction boundary
                for query in item:
                    feed(query)
                flush_run()
                if self.journal is not None:
                    self.journal.append_txn_end(item.name)
                self.executor.on_transaction_end(item.name)
                self.stats.transactions += 1
            elif isinstance(item, Iterable) and not isinstance(item, (str, bytes)):
                for element in item:
                    feed(element)
            else:
                raise EngineError(f"cannot apply {type(item).__name__}")

        feed(item)
        flush_run()
        self._forget_unread_changes()
        return self

    # -- results ------------------------------------------------------------------

    def result(self) -> Database:
        """The live contents under standard set semantics."""
        return self.executor.result()

    def live_rows(self, relation: str) -> set[tuple[object, ...]]:
        return self.executor.live_rows(relation)

    def provenance(self, relation: str) -> Iterator[tuple[tuple, Expr, bool]]:
        """``(row, provenance expression, live)`` for every stored row."""
        return self.executor.provenance_items(relation)

    def annotation_of(self, relation: str, row: Iterable[object]) -> Expr:
        """The provenance expression of one row (0 if never stored).

        Store-backed executors resolve this through the row-keyed index in
        O(1); other executors fall back to a provenance scan.
        """
        return self.executor.annotation_of(relation, tuple(row))

    def tuple_var(self, relation: str, row: Iterable[object]) -> str | None:
        """Base annotation name of an initial tuple (for what-if valuations)."""
        return self.tuple_vars().get(relation, {}).get(tuple(row))

    def tuple_var_names(self) -> frozenset[str]:
        """All annotation names assigned to initial tuples."""
        return frozenset(
            name for names in self.tuple_vars().values() for name in names.values()
        )

    # -- measurements ---------------------------------------------------------------

    def support_count(self) -> int:
        return self.executor.support_count()

    def live_count(self) -> int:
        return self.executor.live_count()

    def provenance_size(self) -> int:
        return self.executor.provenance_size()

    def provenance_dag_size(self) -> int:
        return self.executor.provenance_dag_size()

    def overhead_report(self, baseline: "Engine | None" = None) -> dict[str, object]:
        """The Section 6 measurements for this engine (vs. an optional baseline).

        ``row_overhead`` is the tombstone overhead relative to the
        baseline's live rows; when the baseline holds no live rows at all
        the ratio is undefined and reported as ``None`` rather than a
        value fabricated from a clamped denominator.
        """
        report: dict[str, object] = {
            "policy": self.policy,
            "support_rows": self.support_count(),
            "live_rows": self.live_count(),
            "provenance_size": self.provenance_size(),
            "wall_time": self.stats.wall_time,
            "queries": self.stats.queries,
            "index_hits": self.stats.index_hits,
            "fallback_scans": self.stats.fallback_scans,
        }
        if baseline is not None:
            base_rows = baseline.live_count()
            report["row_overhead"] = (
                (self.support_count() - base_rows) / base_rows if base_rows else None
            )
            if baseline.stats.wall_time:
                report["time_overhead"] = (
                    self.stats.wall_time - baseline.stats.wall_time
                ) / baseline.stats.wall_time
        return report

    # -- specialization (Section 4) ----------------------------------------------------

    def specialize(
        self,
        structure,
        env: Mapping[str, object] | Callable[[str], object],
    ) -> dict[str, dict[tuple, object]]:
        """Evaluate every stored annotation in a concrete Update-Structure.

        This is the "provenance usage" operation the paper times in Figures
        7c/8c: assigning values to annotations.  Returns, per relation, a
        mapping from rows to structure values (e.g. booleans for deletion
        propagation).  Defined over :meth:`provenance` alone, so every
        backend shares it.
        """
        if not self.tracks_provenance:
            raise EngineError(f"policy {self.policy!r} does not track provenance")
        if not self.stores_expressions:
            raise EngineError(
                f"policy {self.policy!r} stores version annotations, not UP[X] "
                "expressions; Update-Structure specialization does not apply"
            )
        return {
            name: {
                row: evaluate(expr, structure, env)
                for row, expr, _live in self.provenance(name)
            }
            for name in self.schema.names
        }

    def specialized_database(
        self,
        structure,
        env: Mapping[str, object] | Callable[[str], object],
    ) -> Database:
        """The database whose rows are those with non-zero specialized value."""
        values = self.specialize(structure, env)
        db = Database(self.schema)
        zero = structure.zero
        for name, rows in values.items():
            db.extend(name, (row for row, value in rows.items() if value != zero))
        return db

    # -- the quiescent-point contract ---------------------------------------------------
    #
    # Everything a host (the provenance service, a replication follower)
    # may ask of a backend between top-level updates.  The plain in-memory
    # behaviour lives here; JournaledEngine overrides what differs.
    # docs/ARCHITECTURE.md ("Engine contract") tabulates method x backend.

    #: RecoveryReport when this engine came out of ``recover()``.
    recovery = None

    @property
    def schema(self):
        return self.executor.schema

    @property
    def tracks_provenance(self) -> bool:
        return self.executor.tracks_provenance

    @property
    def stores_expressions(self) -> bool:
        """Whether annotations are UP[X] expressions rather than MV version
        annotations — what row deltas and specialization both need."""
        return self.executor.stores_expressions

    @property
    def last_seq(self) -> int | None:
        """The durable journal sequence reached; ``None`` without a journal."""
        return self.journal.last_seq if self.journal is not None else None

    def capture(self) -> dict[str, dict[tuple, tuple[Expr | None, bool]]]:
        """The full annotated state, ``{relation: {row: (expression, live)}}``.

        Goes through :meth:`provenance` so the ``normal_form_batch``
        policy flushes first, exactly as before any other observation.
        That is one flush per relation, but a flush normalises only the
        rows touched since the previous one: the first read normalises
        what the last update left pending, and the other R-1 find nothing.
        The vanilla policy captures ``None`` annotations (its support is
        its live rows; a uniform ``0`` would only inflate wire payloads).
        """
        tracks = self.tracks_provenance
        return {
            name: {
                row: (expr if tracks else None, live)
                for row, expr, live in self.provenance(name)
            }
            for name in self.schema.names
        }

    def flush_pending(self) -> None:
        """Materialize deferred executor work (batch normalization)."""
        self.executor.flush()

    def attach_deltas(self) -> None:
        """Keep every later row change for :meth:`drain_deltas` (live views).

        The one place a backend that cannot emit row deltas says so.
        """
        if not self.stores_expressions:
            raise EngineError(
                f"policy {self.policy!r} does not emit row deltas "
                "(MV version annotations have no UP[X] delta form)"
            )
        self._forget_unread_changes()
        self._deltas_attached = True

    def drain_deltas(self, version: int) -> DeltaBatch | None:
        """Close a quiescent interval: every row changed since the last drain.

        With deltas attached, pending deferred work is flushed first and
        the change sets drain into one delta per changed row, stamped
        ``version``, so the batch shows exactly what a same-version
        capture would.  Without, nothing reads them: the changes that
        need no flush are forgotten (pending batch normalization stays
        for its own flush point, which this never adds) and the result
        is ``None``.
        """
        if not self._deltas_attached:
            self._forget_unread_changes()
            return None
        self.executor.flush()
        return DeltaBatch(version, tuple(self.executor.take_deltas()))

    def pending_changes(self) -> int:
        """Rows held in the change sets; after a drain without deltas
        attached, the rows whose deferred normalization is pending."""
        return sum(
            store.rows.change_count() for _name, store in self.executor.store.relations()
        )

    def match_rows(
        self, relation: str, pattern
    ) -> dict[tuple, tuple[Expr | None, bool]]:
        """The ``{row: (expression, live)}`` slice of ``relation`` matching
        ``pattern``, through the store's pattern planner — O(matched), not
        O(relation) — flushed first, so it shows exactly the rows and
        annotations a :meth:`capture` taken now would.
        """
        self.flush_pending()
        executor = self.executor
        store = executor.store.relation(relation)
        slots = store.rows
        return {
            row: (
                None if (ann := slots.annotation(rid)) is None else executor._expr_of(ann),
                slots.is_live(rid),
            )
            for rid, row in store.matching(pattern)
        }

    def tuple_vars(self) -> dict[str, dict[tuple, str]]:
        """Initial-tuple annotation names, ``{relation: {row: name}}``."""
        return getattr(self.executor, "_tuple_vars", {})

    def checkpoint(self) -> int:
        """Write a durability checkpoint now; returns how many were written."""
        raise EngineError("a plain engine keeps no durable state to checkpoint")

    def close(self, checkpoint: bool = True) -> None:
        """Graceful shutdown.  Nothing is durable here, but deferred
        normalization is flushed so it is not silently dropped work."""
        self.flush_pending()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        # An exception mid-work is a crash, not a clean shutdown: durable
        # backends keep their journal tail so recovery replays it.
        self.close(checkpoint=exc_type is None)
