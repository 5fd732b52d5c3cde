"""The ISSUE 1-5, 8 and 10 acceptance measurements, at test-suite scale.

These are correctness-plus-floor checks on the comparison primitives in
:mod:`repro.bench.measure`: the memoized rewrite path must be at least 2x
faster than cold-cache rewriting on a repeated-normalization workload,
the store's maintained column indexes must beat forced linear scans
on a selective-pattern synthetic scenario while returning bit-identical
results, recovery from checkpoint + journal tail must be at least 2x
faster than full replay while being bit-identical to it, and the
pattern-routed sharded engine must be at least 1.5x faster than the
unsharded engine on a routable workload while staying bit-identical, and
the provenance server's admission batching must be at least 1.5x faster
than per-call dispatch on a pipelined multi-client stream.  Generous
margins (observed locally: ~12x, ~10-30x, ~2.7x, ~6x and ~2-3x against
the asserted 2x / 1.5x / 2x / 1.5x / 1.5x floors) keep them robust on
noisy CI machines.
"""

from __future__ import annotations

import pytest

from repro.bench.measure import (
    batch_comparison,
    index_comparison,
    recovery_comparison,
    repeated_normalization_workload,
    replication_comparison,
    rewrite_cache_comparison,
    server_comparison,
    shard_comparison,
    view_comparison,
)
from repro.workloads.synthetic import SyntheticConfig, synthetic_database, synthetic_log


def retrying(measure, floor):
    """Run a timing measurement again if the first falls below its floor.

    The floors sit 2.5-6x under the locally observed ratios, which are
    algorithmic (cache hits vs. full rewrites; one scan vs. N scans) — a
    miss means a scheduler hiccup on a noisy CI runner, and one retry is
    enough to rule that out without making the acceptance check advisory.
    """
    comparison = measure()
    if comparison.speedup < floor:
        comparison = measure()
    return comparison


def test_rewrite_cache_comparison_speedup():
    exprs = repeated_normalization_workload(n_tuples=300, n_queries=150)
    comparison = retrying(lambda: rewrite_cache_comparison(exprs, repeats=5), 2.0)
    assert comparison.consistent
    assert comparison.expressions == len(exprs)
    assert comparison.hits > 0
    # Acceptance floor: memoized >= 2x faster on repeated normalization.
    assert comparison.speedup >= 2.0, comparison.as_dict()


@pytest.mark.parametrize("policy", ["normal_form", "naive", "none"])
def test_indexed_beats_linear_on_selective_scenario(policy):
    """ISSUE 2 acceptance: maintained indexes >= 1.5x over linear matching.

    A fig8-style selective workload — a few thousand rows, every pattern
    an equality on the hot ``grp`` column — where matching through the
    maintained column indexes touches only the selected group instead of
    scanning the relation per query (observed locally: 10-30x).
    """
    config = SyntheticConfig(n_tuples=4_000, n_queries=150, n_groups=10, group_size=4, seed=5)
    database = synthetic_database(config)
    log = synthetic_log(config).as_single_transaction()
    comparison = retrying(lambda: index_comparison(database, log, policy=policy), 1.5)
    assert comparison.consistent  # bit-identical rows and annotations
    assert comparison.index_hits > 0
    assert comparison.speedup >= 1.5, comparison.as_dict()


@pytest.mark.parametrize("policy", ["normal_form", "normal_form_batch"])
def test_batched_pipeline_stays_consistent_and_competitive(policy):
    """The batched pipeline replays sequential semantics without regressing.

    Before the indexed store (ISSUE 2), fused runs were the only indexed
    path and this test asserted a >1.2x win; now every single query goes
    through the maintained indexes, so the batched pipeline's remaining
    job is correctness plus deferred flushing — asserted here as equal
    results and wall time within scheduler noise of sequential (observed
    ratio ~1.0; the 0.8 floor flags any real batched-path regression).
    """
    config = SyntheticConfig(n_tuples=4_000, n_queries=200, n_groups=10, group_size=4, seed=5)
    database = synthetic_database(config)
    log = synthetic_log(config).as_single_transaction()
    comparison = retrying(lambda: batch_comparison(database, log, policy=policy), 0.8)
    assert comparison.consistent
    assert comparison.batches >= 1
    assert comparison.speedup > 0.8, comparison.as_dict()


def test_recovery_beats_full_replay_on_fig8_scenario(tmp_path):
    """ISSUE 3 acceptance: checkpoint + tail recovery >= 2x over full replay.

    The fig8-style default scenario of ``recovery_comparison``: a
    selective transaction stream journaled with periodic checkpoints,
    crashed after the last transaction, recovered from the newest
    checkpoint plus a genuine record tail (observed locally: ~2.7x).
    The recovered state must be bit-identical — rows, liveness, and the
    identical interned annotation object per row — to replaying the
    whole log from scratch.
    """
    attempts = iter(("first", "second"))
    comparison = retrying(
        lambda: recovery_comparison(tmp_path / next(attempts)), 2.0
    )
    assert comparison.consistent  # bit-identical recovered state
    assert comparison.checkpoints >= 2
    assert comparison.tail_records > 0  # a genuine tail was replayed
    assert comparison.speedup >= 2.0, comparison.as_dict()


def test_sharded_beats_unsharded_on_routable_scenario():
    """ISSUE 4 acceptance: pattern-routed shards >= 1.5x over one engine.

    The routable default scenario of ``shard_comparison``: every
    selection a ``grp``-equality, one query per transaction under the
    ``normal_form_batch`` policy — the flush-heavy regime where routed
    transaction ends confine each boundary's normalization sweep to the
    touched shard (observed locally: ~6x with the sequential backend on
    a single core; the process pool adds multi-core overlap on top, so
    the floor does not depend on CI core counts).  The merged sharded
    state must be bit-identical — rows, liveness, and the identical
    interned annotation object per row — to the unsharded engine.
    """
    comparison = retrying(lambda: shard_comparison(), 1.5)
    assert comparison.consistent  # bit-identical merged state
    assert comparison.routed_queries == comparison.queries
    assert comparison.broadcast_queries == 0
    assert comparison.speedup >= 1.5, comparison.as_dict()


def test_server_admission_batching_beats_percall_dispatch():
    """ISSUE 5 acceptance: admission batching >= 1.5x over per-call dispatch.

    Six concurrent clients pipeline single-insert apply requests at one
    provenance server; in batched mode the single writer fuses the queued
    backlog into one ``apply_batch`` call per cycle, in per-call mode
    (``admission_max=1``) every request pays its own writer wake-up and
    executor handoff (observed locally: ~2-3x; protocol, engine and
    client code are byte-for-byte identical between the two runs).  Both
    final server states must be bit-identical — rows, liveness, and the
    identical re-interned annotation object per row — to a direct
    in-process engine applying the same per-client streams.
    """
    comparison = retrying(lambda: server_comparison(), 1.5)
    assert comparison.consistent  # bit-identical to the in-process engine
    assert comparison.batched_max_admitted > 1  # fusion actually happened
    assert comparison.batched_cycles < comparison.percall_cycles
    assert comparison.speedup >= 1.5, comparison.as_dict()


def test_delta_push_beats_reread_per_update():
    """ISSUE 8 acceptance: delta-push subscriptions >= 2x over re-reading.

    The fig9-style affected-tuples scenario of ``view_comparison``: forty
    update rounds each touching one bucket of the watched slice.  The
    re-read consumer fetches and decodes the **full** state capture per
    round; the subscriber consumes O(affected) delta batches (observed
    locally: ~5-6x).  The delta-maintained view must be bit-identical —
    rows, liveness, and the identical re-interned annotation object per
    row — to a fresh capture of its slice at the same version.
    """
    comparison = retrying(lambda: view_comparison(), 2.0)
    assert comparison.consistent  # bit-identical maintained slice
    assert comparison.push_batches == comparison.updates  # one batch per round
    assert comparison.affected < comparison.watched < comparison.rows
    assert comparison.speedup >= 2.0, comparison.as_dict()


def test_follower_routed_reads_capture_less_than_primary_only(tmp_path):
    """ISSUE 10 acceptance, as counted work: followers capture >= 2x less per read.

    The replication scenario of ``replication_comparison``: a primary
    under a continuous single-apply write stream (every ack invalidates
    its published snapshot, so a primary read that follows a write pays a
    fresh capture of a large state) serves four readers directly, then
    the same readers route through the read/write splitter to three
    follower processes whose coalesced shipment batches leave their
    snapshots cacheable between applies.  The read-scaling lever is that
    per-read capture cost, so it is gated on the ``stats`` op's
    ``captures`` per read served on each side (observed locally: ~15x
    fewer on the followers) — scheduling-proof, where the wall-clock
    read-rate ratio it used to gate flaked on a loaded core; absolute
    latency and throughput are ``benchmarks/e2e``'s job.  At the final
    journal sequence every follower's state must be bit-identical to the
    primary's — rows, liveness, and the identical re-interned annotation
    object per row.
    """
    comparison = replication_comparison(tmp_path, rows=4000, writes=200)
    assert comparison.consistent  # bit-identical followers at equal seq
    assert comparison.follower_reads > 0  # reads actually scaled out
    assert comparison.followers == 3
    assert comparison.primary_captures > 0
    assert (
        2 * comparison.follower_captures_per_read
        <= comparison.primary_captures_per_read
    ), comparison.as_dict()


def test_batch_comparison_none_policy_is_consistent():
    """No fused path for the vanilla executor — but still correct."""
    config = SyntheticConfig(n_tuples=500, n_queries=60, n_groups=6, group_size=4, seed=9)
    database = synthetic_database(config)
    log = synthetic_log(config).as_single_transaction()
    comparison = batch_comparison(database, log, policy="none")
    assert comparison.consistent
    assert comparison.queries == 60
