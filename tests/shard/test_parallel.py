"""The process-pool backend: bit-identity through the wire codec.

Workloads stay small — every test here pays worker start-up and capture
round-trips; the semantics they exercise (routing, transaction hooks,
flush points) are identical to the sequential backend's by construction,
so the load-bearing assertion is that the *codec path* (events out,
re-interned exprjson captures back) loses nothing.
"""

from __future__ import annotations

import time

import pytest

from repro.engine.engine import Engine
from repro.errors import EngineError
from repro.queries.updates import Insert
from repro.shard import ShardedEngine
from repro.workloads.synthetic import synthetic_workload

from .util import assert_matches_unsharded, with_broadcasts


@pytest.fixture(scope="module")
def workload():
    return synthetic_workload(
        n_tuples=300,
        n_queries=60,
        n_groups=6,
        group_size=4,
        queries_per_transaction=3,
        seed=7,
    )


@pytest.mark.parametrize("policy", ["naive", "normal_form_batch"])
def test_parallel_mix_is_bit_identical(workload, policy):
    relation = workload.schema.relation("synthetic")
    log = with_broadcasts(workload.log, relation, relation.arity)
    unsharded = Engine(workload.database, policy=policy).apply(log)
    with ShardedEngine(
        workload.database,
        n_shards=3,
        policy=policy,
        shard_keys={"synthetic": "grp"},
        parallel=True,
    ) as sharded:
        sharded.apply(log)
        # Captures decode through the smart constructors, so annotation
        # objects are identical to the unsharded engine's *in this
        # process* even though the workers built them elsewhere.
        assert_matches_unsharded(unsharded, sharded)
        assert sharded.stats.rows_matched == unsharded.stats.rows_matched
        assert sharded.provenance_dag_size() == unsharded.provenance_dag_size()


def test_parallel_apply_batch_and_interleaved_observation(workload):
    unsharded = Engine(workload.database, policy="naive")
    with ShardedEngine(
        workload.database,
        n_shards=3,
        policy="naive",
        shard_keys={"synthetic": "grp"},
        parallel=True,
    ) as sharded:
        half = len(workload.log.items) // 2
        unsharded.apply_batch(workload.log.items[:half])
        sharded.apply_batch(workload.log.items[:half])
        # Observation mid-stream drains the pending buffers.
        assert sharded.support_count() == unsharded.support_count()
        unsharded.apply_batch(workload.log.items[half:])
        sharded.apply_batch(workload.log.items[half:])
        assert_matches_unsharded(unsharded, sharded)


def test_worker_errors_surface_as_engine_errors(workload):
    began = time.perf_counter()
    with ShardedEngine(
        workload.database, n_shards=2, policy="naive", shard_keys={"synthetic": "grp"},
        parallel=True,
    ) as sharded:
        with pytest.raises(EngineError, match="shard worker"):
            # Wrong arity: the worker's executor rejects it during apply
            # and the failure crosses the pipe as a structured error.
            sharded.apply(Insert("synthetic", (1, 2), "p"))
            sharded.support_count()  # force the drain if buffered
    # Closing a failed pool hangs up on every worker: each sees EOF and
    # exits on its own (exit code 0), none is left to the terminate fallback.
    assert [process.exitcode for process in sharded._backend._processes] == [0, 0]
    assert time.perf_counter() - began < 5.0


def test_closed_pool_refuses_further_work(workload):
    sharded = ShardedEngine(
        workload.database, n_shards=2, policy="naive", shard_keys={"synthetic": "grp"},
        parallel=True,
    )
    sharded.close()
    with pytest.raises(EngineError, match="closed"):
        sharded.apply(workload.log.items[0])
        sharded.support_count()
