"""Property tests: sharded == unsharded under random update streams.

Seeded generators produce mixed streams — routed and broadcast
selections, inserts, modifications (including identity anchors),
transactions and bare annotated queries, applied through ``apply`` or
``apply_batch`` — over a shard key whose values mix ints, floats, bools,
strings and ``None``, so the stable hash's ``==``-consistency across
numeric types is load-bearing, not incidental.
"""

from __future__ import annotations

import random

import pytest

from repro.db.database import Database
from repro.db.schema import Relation, Schema
from repro.engine.engine import Engine
from repro.queries.pattern import Pattern
from repro.queries.updates import Delete, Insert, Modify, Transaction
from repro.shard import ShardedEngine

from ..shard.util import assert_matches_unsharded

#: Shard-key domain deliberately spanning ==-equal numeric spellings.
KEY_DOMAIN = [0, 1, 2, 3, True, False, 1.0, 2.0, "hot", "cold", "", None]
VALUE_DOMAIN = list(range(6))
ARITY = 3  # r(k, g, v) sharded on g (position 1)


def _random_database(rng: random.Random, n_rows: int) -> Database:
    schema = Schema([Relation("r", ["k", "g", "v"])])
    db = Database(schema)
    rows = db.rows("r")
    while len(rows) < n_rows:
        rows.add((len(rows), rng.choice(KEY_DOMAIN), rng.choice(VALUE_DOMAIN)))
    return db


def _random_query(rng: random.Random, next_id: list[int]):
    roll = rng.random()
    if roll < 0.30:
        next_id[0] += 1
        return Insert("r", (next_id[0], rng.choice(KEY_DOMAIN), rng.choice(VALUE_DOMAIN)))
    # Routed (shard-key equality) or broadcast (value equality, diseq, any).
    selector = rng.random()
    if selector < 0.5:
        pattern = Pattern(ARITY, eq={1: rng.choice(KEY_DOMAIN)})
    elif selector < 0.75:
        pattern = Pattern(ARITY, eq={2: rng.choice(VALUE_DOMAIN)})
    elif selector < 0.9:
        pattern = Pattern(ARITY, neq={1: {rng.choice(KEY_DOMAIN)}})
    else:
        pattern = Pattern.any(ARITY)
    if roll < 0.65:
        return Delete("r", pattern)
    if rng.random() < 0.1 and pattern.eq:
        # Identity anchor: assign a pinned position its own constant.
        anchor = min(pattern.eq)
        return Modify("r", pattern, {anchor: pattern.eq[anchor]})
    return Modify("r", pattern, {2: rng.choice(VALUE_DOMAIN)})


def _random_stream(rng: random.Random, n_queries: int):
    next_id = [10_000]
    items = []
    txn = 0
    while n_queries > 0:
        if rng.random() < 0.6:
            take = min(rng.randint(1, 4), n_queries)
            items.append(
                Transaction(f"t{txn}", [_random_query(rng, next_id) for _ in range(take)])
            )
            n_queries -= take
            txn += 1
        else:
            items.append(_random_query(rng, next_id).annotated(f"q{txn}"))
            n_queries -= 1
            txn += 1
    return items


@pytest.mark.parametrize("policy", ["naive", "normal_form_batch"])
@pytest.mark.parametrize("seed", range(8))
def test_random_streams_are_bit_identical(seed, policy):
    rng = random.Random(1000 * seed + 17)
    database = _random_database(rng, n_rows=rng.randint(20, 60))
    stream = _random_stream(rng, n_queries=rng.randint(15, 45))
    n_shards = rng.randint(2, 5)
    batched = rng.random() < 0.5

    unsharded = Engine(database, policy=policy)
    sharded = ShardedEngine(database, n_shards=n_shards, policy=policy, shard_keys={"r": "g"})
    if batched:
        unsharded.apply_batch(stream)
        sharded.apply_batch(stream)
    else:
        unsharded.apply(stream)
        sharded.apply(stream)
    assert_matches_unsharded(unsharded, sharded)
    assert sharded.stats.queries == unsharded.stats.queries
    assert sharded.stats.rows_matched == unsharded.stats.rows_matched
    assert sharded.stats.rows_created == unsharded.stats.rows_created


@pytest.mark.parametrize("seed", [1, 2])
def test_random_streams_none_policy(seed):
    """Vanilla physical deletes shard identically (support == live rows)."""
    rng = random.Random(seed)
    database = _random_database(rng, n_rows=40)
    stream = _random_stream(rng, n_queries=30)
    unsharded = Engine(database, policy="none").apply(stream)
    sharded = ShardedEngine(
        database, n_shards=3, policy="none", shard_keys={"r": "g"}
    ).apply(stream)
    assert_matches_unsharded(unsharded, sharded)
