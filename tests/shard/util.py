"""Shared assertion and workload helpers for the sharded bit-identity suite."""

from __future__ import annotations

from repro.engine.oracle import assert_bit_identical
from repro.queries.pattern import Pattern
from repro.queries.updates import Delete, Modify, Transaction
from repro.workloads.logs import UpdateLog


def assert_matches_unsharded(unsharded, sharded) -> None:
    """The shared oracle over ``capture()``, plus the merged read API.

    ``ShardedEngine.result()`` / ``live_rows()`` merge per-shard databases on
    their own path (not through ``capture()``), so they are checked too.
    """
    assert_bit_identical(unsharded, sharded)
    assert sharded.result().same_contents(unsharded.result())
    for relation in unsharded.schema.names:
        assert sharded.live_rows(relation) == unsharded.live_rows(relation), relation


def with_broadcasts(log: UpdateLog, relation, arity: int) -> UpdateLog:
    """The synthetic log plus queries no grp-equality can route.

    Appends a value-column modification (equality off the shard key), a
    disequality-only deletion, and a match-all deletion — all broadcast —
    so mixed streams exercise both router paths.
    """
    v0 = relation.index_of("v0")
    extra = [
        Transaction("bc0", [Modify(relation.name, Pattern(arity, eq={v0: 1}), {v0: 2})]),
        Delete(relation.name, Pattern(arity, neq={v0: {3}}), "bc1"),
        Transaction("bc2", [Delete(relation.name, Pattern.any(arity))]),
    ]
    return UpdateLog(list(log.items) + extra, log.meta)
