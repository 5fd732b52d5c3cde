"""Sequential sharded execution is bit-identical to the unsharded engine."""

from __future__ import annotations

import pytest

from repro.core.expr import ZERO
from repro.engine.engine import Engine
from repro.errors import EngineError
from repro.queries.pattern import Pattern
from repro.queries.updates import Delete, Modify
from repro.semantics.boolean import BooleanStructure
from repro.shard import ShardedEngine
from repro.workloads.synthetic import synthetic_workload

from .util import assert_matches_unsharded, with_broadcasts

POLICIES = ["none", "naive", "normal_form", "normal_form_batch"]


@pytest.fixture(scope="module")
def workload():
    return synthetic_workload(
        n_tuples=600,
        n_queries=90,
        n_groups=8,
        group_size=4,
        queries_per_transaction=3,
        seed=11,
    )


def _mixed_log(workload):
    relation = workload.schema.relation("synthetic")
    return with_broadcasts(workload.log, relation, relation.arity)


@pytest.mark.parametrize("policy", POLICIES)
def test_routed_and_broadcast_mix_is_bit_identical(workload, policy):
    log = _mixed_log(workload)
    unsharded = Engine(workload.database, policy=policy).apply(log)
    sharded = ShardedEngine(
        workload.database, n_shards=4, policy=policy, shard_keys={"synthetic": "grp"}
    ).apply(log)
    assert_matches_unsharded(unsharded, sharded)
    # Merged measurements agree with the unsharded engine exactly.
    assert sharded.support_count() == unsharded.support_count()
    assert sharded.live_count() == unsharded.live_count()
    assert sharded.provenance_size() == unsharded.provenance_size()
    assert sharded.provenance_dag_size() == unsharded.provenance_dag_size()


@pytest.mark.parametrize("policy", ["naive", "normal_form_batch"])
def test_apply_batch_is_bit_identical(workload, policy):
    log = _mixed_log(workload)
    unsharded = Engine(workload.database, policy=policy).apply_batch(log)
    sharded = ShardedEngine(
        workload.database, n_shards=4, policy=policy, shard_keys={"synthetic": "grp"}
    ).apply_batch(log)
    assert_matches_unsharded(unsharded, sharded)
    assert sharded.stats.batches > 0


def test_merged_stats_contract(workload):
    log = workload.log  # fully routable: every selection is a grp equality
    unsharded = Engine(workload.database, policy="naive").apply(log)
    sharded = ShardedEngine(
        workload.database, n_shards=4, policy="naive", shard_keys={"synthetic": "grp"}
    ).apply(log)
    merged, base = sharded.stats, unsharded.stats
    # Logical stream counters count each query once, broadcasts included.
    for key in ("queries", "inserts", "deletes", "modifies", "transactions"):
        assert getattr(merged, key) == getattr(base, key), key
    assert len(merged.per_query_time) == merged.queries
    # Additive work counters are summed over shards; on a fully routed
    # workload exactly one shard matched per query, so they equal the
    # unsharded totals to the unit.
    assert merged.rows_matched == base.rows_matched
    assert merged.rows_created == base.rows_created
    assert merged.index_hits == base.index_hits
    assert merged.fallback_scans == base.fallback_scans
    assert merged.index_rows_examined == base.index_rows_examined
    # Per-shard snapshots are exposed raw, and sum to the merged totals.
    per_shard = sharded.shard_stats()
    assert len(per_shard) == 4
    assert sum(s["index_hits"] for s in per_shard) == merged.index_hits


def test_broadcasts_count_every_shards_matching_work(workload):
    relation = workload.schema.relation("synthetic")
    broadcast = Delete(relation.name, Pattern.any(relation.arity), "bc")
    unsharded = Engine(workload.database, policy="naive").apply(broadcast)
    sharded = ShardedEngine(
        workload.database, n_shards=4, policy="naive", shard_keys={"synthetic": "grp"}
    ).apply(broadcast)
    assert sharded.stats.queries == unsharded.stats.queries == 1
    # Each shard linear-scanned its own partition: 4 scans vs 1, but the
    # same total row count matched.
    assert sharded.stats.fallback_scans == 4
    assert unsharded.stats.fallback_scans == 1
    assert sharded.stats.rows_matched == unsharded.stats.rows_matched


def test_tuple_vars_and_annotation_probes_match(workload):
    log = workload.log
    unsharded = Engine(workload.database, policy="naive").apply(log)
    sharded = ShardedEngine(
        workload.database, n_shards=4, policy="naive", shard_keys={"synthetic": "grp"}
    ).apply(log)
    assert sharded.tuple_var_names() == unsharded.tuple_var_names()
    sample = sorted(workload.database.rows("synthetic"), key=repr)[:20]
    for row in sample:
        assert sharded.tuple_var("synthetic", row) == unsharded.tuple_var(
            "synthetic", row
        )
        assert sharded.annotation_of("synthetic", row) is unsharded.annotation_of(
            "synthetic", row
        )
    missing = (-99, "nope", 0, 0, 0)
    assert sharded.annotation_of("synthetic", missing) is ZERO


def test_specialization_matches(workload):
    log = workload.log
    unsharded = Engine(workload.database, policy="naive").apply(log)
    sharded = ShardedEngine(
        workload.database, n_shards=3, policy="naive", shard_keys={"synthetic": "grp"}
    ).apply(log)
    structure = BooleanStructure()
    dropped = next(iter(unsharded.tuple_var_names()))
    env = lambda name: name != dropped  # noqa: E731
    assert sharded.specialize(structure, env) == unsharded.specialize(structure, env)
    assert sharded.specialized_database(structure, env).same_contents(
        unsharded.specialized_database(structure, env)
    )


def test_sharded_engine_guards():
    workload = synthetic_workload(n_tuples=50, n_queries=0, n_groups=5, group_size=2)
    with pytest.raises(EngineError, match="cannot be sharded"):
        ShardedEngine(workload.database, policy="mv_tree")
    engine = ShardedEngine(workload.database, n_shards=2)
    with pytest.raises(EngineError, match="cannot apply"):
        engine.apply("oops")
    with pytest.raises(EngineError, match="cannot apply"):
        engine.apply_batch(b"oops")
    with pytest.raises(EngineError, match="not journaled"):
        engine.checkpoint()
    with pytest.raises(EngineError, match="does not track provenance"):
        ShardedEngine(workload.database, n_shards=2, policy="none").specialize(
            BooleanStructure(), lambda _: True
        )
    relation = workload.schema.relation("synthetic")
    resharding = Modify(
        relation.name, Pattern(relation.arity, eq={1: 3}), {0: 123}, "p"
    )
    with pytest.raises(EngineError, match="re-sharding"):
        # default shard key is position 0 ("id"), which this assigns
        engine.apply(resharding)


def test_overhead_report_surface(workload):
    baseline = Engine(workload.database, policy="none").apply(workload.log)
    sharded = ShardedEngine(
        workload.database, n_shards=3, policy="naive", shard_keys={"synthetic": "grp"}
    ).apply(workload.log)
    report = sharded.overhead_report(baseline)
    assert report["policy"] == "naive"
    assert report["support_rows"] == sharded.support_count()
    assert report["row_overhead"] is not None
