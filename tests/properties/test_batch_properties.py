"""Property tests for the batched pipeline and the rewrite memo.

The load-bearing property (ISSUE 1): applying a random update log batched
and sequentially normalizes to the same expression, row for row, under
every provenance policy.
"""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.core.equivalence import canonical, equivalent
from repro.core.expr import ZERO
from repro.core.memo import memoization
from repro.core.normalize import normalize_expr
from repro.engine.engine import Engine
from repro.engine.oracle import assert_bit_identical

from .strategies import arbitrary_exprs, databases, logs


def normalized_provenance(engine, relation):
    return {
        row: canonical(normalize_expr(expr)) for row, expr, _live in engine.provenance(relation)
    }


@given(databases, logs())
def test_batched_and_sequential_normalize_identically(db, log):
    """Fused runs replay the sequential semantics exactly (normal_form)."""
    sequential = Engine(db, policy="normal_form").apply(log)
    batched = Engine(db, policy="normal_form").apply_batch(log)
    for relation in db.schema.names:
        assert normalized_provenance(sequential, relation) == normalized_provenance(
            batched, relation
        )
        assert sequential.live_rows(relation) == batched.live_rows(relation)


@given(databases, logs())
def test_deferred_batch_policy_equivalent_to_incremental(db, log):
    """One deferred normalization at the end == per-update rule application."""
    incremental = Engine(db, policy="normal_form").apply(log)
    deferred = Engine(db, policy="normal_form_batch").apply_batch(log)
    for relation in db.schema.names:
        inc = {row: expr for row, expr, _live in incremental.provenance(relation)}
        dfd = {row: expr for row, expr, _live in deferred.provenance(relation)}
        # Supports may differ on rows whose annotation is ≡ 0 but not
        # syntactically 0 (the zero axioms can fold away insertion markers
        # the incremental state machine still sees, and vice versa); absent
        # rows denote annotation 0.
        for row in set(inc) | set(dfd):
            assert equivalent(inc.get(row, ZERO), dfd.get(row, ZERO))
        assert incremental.live_rows(relation) == deferred.live_rows(relation)


def full_walk_flush(executor) -> None:
    """The oracle flush: normalise every stored row of every relation.

    What ``BatchNormalFormExecutor.flush`` did before it read only the
    change set's pending rows.
    """
    for _name, store in executor.store.relations():
        rows = store.rows
        dead_zero = []
        for rid, row in rows.items():
            old = rows.annotation(rid)
            ann = normalize_expr(old)
            if ann is not old:
                rows.set_annotation(rid, ann)
            if ann.is_zero and not rows.is_live(rid):
                dead_zero.append(rid)
        for rid in dead_zero:
            store.free(rid)


def full_walk_engine(db) -> Engine:
    engine = Engine(db, policy="normal_form_batch")
    executor = engine.executor
    executor.flush = lambda: full_walk_flush(executor)
    return engine


@pytest.mark.parametrize("step", ["apply", "apply_batch", "query"])
@given(databases, logs())
def test_dirty_set_flush_matches_full_walk_at_every_prefix(step, db, log):
    """Flushing only the touched rows is bit-identical to flushing them all.

    ``apply``/``apply_batch`` compare after every transaction (flushed at
    its end); ``query`` applies the queries bare and compares after each,
    so every flush is an observation's.
    """
    dirty, oracle = Engine(db, policy="normal_form_batch"), full_walk_engine(db)
    items = log if step != "query" else [query for txn in log for query in txn]
    for item in items:
        for engine in (dirty, oracle):
            getattr(engine, "apply_batch" if step == "apply_batch" else "apply")(item)
        assert_bit_identical(dirty, oracle)


@given(arbitrary_exprs())
def test_memoized_rewrites_equal_uncached_rewrites(expr):
    """The memo layer never changes a rewrite's result, only its cost."""
    with memoization(True):
        cached = normalize_expr(expr)
    with memoization(False):
        uncached = normalize_expr(expr)
    assert cached is uncached
