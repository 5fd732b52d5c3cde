"""Measurement primitives behind the Section 6 figures.

The paper reports, per policy and as a function of the number of applied
updates: runtime, memory overhead, and "usage time" (assigning values to
provenance annotations vs. re-running).  :func:`series_run` replays one
log once, snapshotting measurements at query-count checkpoints, so a whole
curve costs a single execution; :func:`usage_measurement` times the
deletion-propagation valuation against its re-run baseline at the current
state of an engine.

Size metrics (see DESIGN.md §5):

* ``expanded`` — formula length counting shared sub-expressions with
  multiplicity (the Proposition 5.1 quantity; exponential for the naive
  policy on adversarial/hot workloads);
* ``stored`` — distinct expression nodes held in memory (what a Python
  implementation keeps; the Section 6 memory-overhead curves).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from ..core.expr import Expr, clear_intern_table, intern_table_size
from ..core.memo import clear_memos, memo_stats
from ..core.normalize import normalize_expr
from ..db.database import Database
from ..engine.engine import Engine
from ..engine.oracle import bit_identical
from ..queries.updates import Transaction
from ..semantics.boolean import BooleanStructure
from ..workloads.logs import UpdateLog

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BatchComparison",
    "CacheComparison",
    "Checkpoint",
    "IndexComparison",
    "MemoryComparison",
    "RecoveryComparison",
    "ReplicationComparison",
    "SeriesRun",
    "ServerComparison",
    "ShardComparison",
    "UsageMeasurement",
    "ViewComparison",
    "batch_comparison",
    "index_comparison",
    "memory_comparison",
    "recovery_comparison",
    "repeated_normalization_workload",
    "replication_comparison",
    "rewrite_cache_comparison",
    "series_run",
    "server_comparison",
    "shard_comparison",
    "usage_measurement",
    "view_comparison",
    "checkpoints_for",
    "git_revision",
    "write_bench_json",
]


# ---------------------------------------------------------------------------
# BENCH_*.json trajectory files (shared result-writing)
# ---------------------------------------------------------------------------

#: Version of the envelope every ``BENCH_*.json`` file carries.  The body
#: under ``"payload"`` is owned by the producing subsystem (which may
#: version it separately, e.g. ``repro.loadgen.report.SCHEMA_VERSION``).
BENCH_SCHEMA_VERSION = 1


def git_revision() -> str:
    """The working tree's commit hash, or ``"unknown"`` outside a checkout.

    Stamped into every trajectory file so a ``BENCH_*.json`` regression
    can be attributed to the exact code that produced it.
    """
    import subprocess

    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    revision = completed.stdout.strip()
    return revision if completed.returncode == 0 and revision else "unknown"


def write_bench_json(
    kind: str, name: str, payload: Mapping[str, object], directory: str | Path = "."
) -> Path:
    """Write one ``BENCH_<kind>_<name>.json`` trajectory file.

    The envelope (schema version, kind/name, git revision, wall-clock
    timestamp) is uniform across producers so downstream tooling can
    index every trajectory the same way; ``payload`` is the producer's
    body.  Returns the written path.
    """
    safe = "".join(c if c.isalnum() or c in "-_." else "-" for c in name) or "run"
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{kind}_{safe}.json"
    from ..memory import current_rss_bytes, peak_rss_bytes

    document = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": kind,
        "name": name,
        "git_rev": git_revision(),
        "written_at": time.time(),
        # Memory footprint of the producing process at write time — an
        # additive envelope field (schema version unchanged) so every
        # trajectory carries the memory axis alongside its latency axis.
        "memory": {
            "rss_bytes": current_rss_bytes(),
            "peak_rss_bytes": peak_rss_bytes(),
            "intern_table_size": intern_table_size(),
        },
        "payload": dict(payload),
    }
    path.write_text(json.dumps(document, indent=2, default=str) + "\n")
    return path


@dataclass
class Checkpoint:
    """Measurements after ``queries`` updates under one policy."""

    queries: int
    elapsed: float
    expanded_size: int
    stored_size: int
    support_rows: int
    live_rows: int

    def as_dict(self) -> dict[str, object]:
        return {
            "queries": self.queries,
            "elapsed": self.elapsed,
            "expanded_size": self.expanded_size,
            "stored_size": self.stored_size,
            "support_rows": self.support_rows,
            "live_rows": self.live_rows,
        }


@dataclass
class SeriesRun:
    """One policy's full checkpoint series over a log."""

    policy: str
    checkpoints: list[Checkpoint] = field(default_factory=list)
    engine: Engine | None = field(default=None, repr=False)

    def final(self) -> Checkpoint:
        return self.checkpoints[-1]


def checkpoints_for(total_queries: int, points: int = 4) -> list[int]:
    """Evenly spaced checkpoint query counts ending at ``total_queries``."""
    points = max(1, min(points, total_queries))
    return [round(total_queries * (i + 1) / points) for i in range(points)]


def series_run(
    database: Database,
    log: UpdateLog,
    policy: str,
    checkpoints: Sequence[int],
    measure_sizes: bool = True,
    annotate: Callable[[str, tuple, int], str] | None = None,
    on_checkpoint: Callable[[Engine, int], None] | None = None,
) -> SeriesRun:
    """Replay ``log`` under ``policy``, measuring at each checkpoint.

    Checkpoints are taken between log items (transaction boundaries), at
    the first boundary where the cumulative query count reaches the
    requested value — measuring mid-transaction would observe states no
    semantics defines.  ``elapsed`` is the engine's accumulated per-query
    wall time (size snapshots and ``on_checkpoint`` work are excluded from
    it by construction).  A transaction is applied query-by-query here so
    that checkpoints land exactly on the requested counts even under the
    single-annotation execution model.
    """
    # A previous policy's run (the naive one especially) can leave millions
    # of live interned nodes behind, and their weight would be billed to
    # this run's allocations and GC.  Clearing drops the identity-equality
    # guarantee for expressions created *before* the clear, so only do it
    # when the table got genuinely heavy (never in unit-test sessions).
    if intern_table_size() > 500_000:
        clear_intern_table()
    engine = Engine(database, policy=policy, annotate=annotate)
    run = SeriesRun(policy, engine=engine)
    targets = sorted(set(checkpoints))
    target_index = 0
    applied = 0

    def snapshot() -> None:
        expanded = engine.provenance_size() if measure_sizes else 0
        stored = engine.provenance_dag_size() if measure_sizes else 0
        run.checkpoints.append(
            Checkpoint(
                queries=applied,
                elapsed=engine.stats.wall_time,
                expanded_size=expanded,
                stored_size=stored,
                support_rows=engine.support_count(),
                live_rows=engine.live_count(),
            )
        )
        if on_checkpoint is not None:
            on_checkpoint(engine, applied)

    def at_boundary() -> None:
        nonlocal target_index
        while target_index < len(targets) and applied >= targets[target_index]:
            snapshot()
            target_index += 1

    for query in log.queries():
        if target_index >= len(targets):
            break
        engine.apply(query)
        applied += 1
        at_boundary()
    if target_index < len(targets) and (
        not run.checkpoints or run.checkpoints[-1].queries != applied
    ):
        # Log shorter than the last requested checkpoint: snapshot the end.
        snapshot()
    return run


# ---------------------------------------------------------------------------
# Memoized-rewrite and batched-pipeline comparisons
# ---------------------------------------------------------------------------


@dataclass
class CacheComparison:
    """Memoized vs. cold-cache rewriting of one expression workload.

    ``uncached_time`` re-runs the rewrite with per-call tables (the
    pre-memoization behavior); ``cached_time`` runs the same sequence
    against the persistent :class:`repro.core.memo.ExprMemo`, where every
    repetition and every shared sub-expression is a table hit.
    """

    expressions: int
    repeats: int
    uncached_time: float
    cached_time: float
    hits: int
    misses: int
    consistent: bool

    @property
    def speedup(self) -> float:
        return self.uncached_time / self.cached_time if self.cached_time else float("inf")

    def as_dict(self) -> dict[str, object]:
        return {
            "expressions": self.expressions,
            "repeats": self.repeats,
            "uncached_time": self.uncached_time,
            "cached_time": self.cached_time,
            "speedup": self.speedup,
            "hits": self.hits,
            "misses": self.misses,
            "consistent": self.consistent,
        }


def repeated_normalization_workload(
    n_tuples: int = 300,
    n_queries: int = 150,
    n_groups: int = 10,
    group_size: int = 5,
    seed: int = 11,
) -> list[Expr]:
    """Naive-policy provenance of a small synthetic run.

    The expressions share sub-structure heavily (every update layers on
    yesterday's annotations), which is exactly the workload the rewrite
    memo is built for: normalizing the whole set repeatedly models the
    "re-normalize after every batch of updates" access pattern.
    """
    from ..workloads.synthetic import SyntheticConfig, synthetic_database, synthetic_log

    config = SyntheticConfig(
        n_tuples=n_tuples,
        n_queries=n_queries,
        n_groups=n_groups,
        group_size=group_size,
        seed=seed,
    )
    database = synthetic_database(config)
    log = synthetic_log(config)
    engine = Engine(database, policy="naive").apply(log.as_single_transaction())
    return [
        expr
        for relation in database.schema.names
        for _row, expr, _live in engine.provenance(relation)
    ]


def rewrite_cache_comparison(
    exprs: Sequence[Expr] | None = None, repeats: int = 3
) -> CacheComparison:
    """Time ``repeats`` normalization sweeps, cold-cache vs. memoized.

    The cached pass starts from empty memo tables (:func:`clear_memos`), so
    its first sweep pays the same work as an uncached sweep and the
    remaining ``repeats - 1`` sweeps measure pure cache hits; the reported
    hit/miss counters are the cached pass's deltas.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    expressions = list(exprs) if exprs is not None else repeated_normalization_workload()
    start = time.perf_counter()
    for _ in range(repeats):
        uncached_results = [normalize_expr(e, memo=False) for e in expressions]
    uncached_time = time.perf_counter() - start

    clear_memos()
    before = memo_stats()["normalize"]
    start = time.perf_counter()
    for _ in range(repeats):
        cached_results = [normalize_expr(e, memo=True) for e in expressions]
    cached_time = time.perf_counter() - start
    after = memo_stats()["normalize"]

    consistent = len(uncached_results) == len(cached_results) and all(
        u is c for u, c in zip(uncached_results, cached_results)
    )
    return CacheComparison(
        expressions=len(expressions),
        repeats=repeats,
        uncached_time=uncached_time,
        cached_time=cached_time,
        hits=after.hits - before.hits,
        misses=after.misses - before.misses,
        consistent=consistent,
    )


@dataclass
class BatchComparison:
    """One log, applied query-at-a-time vs. through the batched pipeline.

    Times are the engines' accumulated executor wall time, so both sides
    measure update application, not workload generation.  ``consistent``
    verifies the two engines agree on the live rows of every relation.
    """

    policy: str
    queries: int
    sequential_time: float
    batched_time: float
    batches: int
    consistent: bool

    @property
    def speedup(self) -> float:
        return self.sequential_time / self.batched_time if self.batched_time else float("inf")

    def as_dict(self) -> dict[str, object]:
        return {
            "policy": self.policy,
            "queries": self.queries,
            "sequential_time": self.sequential_time,
            "batched_time": self.batched_time,
            "speedup": self.speedup,
            "batches": self.batches,
            "consistent": self.consistent,
        }


def batch_comparison(
    database: Database,
    log: UpdateLog | Transaction,
    policy: str = "normal_form",
    verify: bool = True,
) -> BatchComparison:
    """Apply ``log`` sequentially and batched under ``policy`` and compare."""
    sequential = Engine(database, policy=policy)
    sequential.apply(log)
    batched = Engine(database, policy=policy)
    batched.apply_batch(log)
    consistent = True
    if verify:
        consistent = all(
            sequential.live_rows(relation) == batched.live_rows(relation)
            for relation in database.schema.names
        )
    return BatchComparison(
        policy=policy,
        queries=batched.stats.queries,
        sequential_time=sequential.stats.wall_time,
        batched_time=batched.stats.wall_time,
        batches=batched.stats.batches,
        consistent=consistent,
    )


@dataclass
class IndexComparison:
    """One log, applied with maintained column indexes vs. forced linear scans.

    Both runs use the very same executor code; the linear side only flips
    the store's ``use_indexes`` switch, so every pattern matching takes
    the planner's guaranteed fallback path.  Times are the engines'
    accumulated executor wall time; the indexed run is timed first so the
    process-wide expression caches it warms benefit the *linear* side
    (the comparison is conservative for the indexes).  ``consistent``
    checks bit-identical outcomes: equal live rows per relation and, for
    provenance-tracking policies, the identical (interned) annotation
    object on every stored row.
    """

    policy: str
    queries: int
    relation_rows: int
    indexed_time: float
    linear_time: float
    index_hits: int
    fallback_scans: int
    consistent: bool

    @property
    def speedup(self) -> float:
        return self.linear_time / self.indexed_time if self.indexed_time else float("inf")

    def as_dict(self) -> dict[str, object]:
        return {
            "policy": self.policy,
            "queries": self.queries,
            "relation_rows": self.relation_rows,
            "indexed_time": self.indexed_time,
            "linear_time": self.linear_time,
            "speedup": self.speedup,
            "index_hits": self.index_hits,
            "fallback_scans": self.fallback_scans,
            "consistent": self.consistent,
        }


def index_comparison(
    database: Database | None = None,
    log: UpdateLog | Transaction | None = None,
    policy: str = "normal_form",
    verify: bool = True,
) -> IndexComparison:
    """Apply ``log`` with indexed and with linear matching and compare.

    With no workload given, builds a fig7/fig8-style synthetic scenario:
    a large relation with a small hot set selected by ``grp``-equality
    patterns, the selective regime where maintained indexes make match
    cost proportional to matched rows instead of relation size (expect
    ≥5x on large relations; the tier-1 floor asserts ≥1.5x at a much
    smaller, CI-friendly scale).
    """
    if database is None or log is None:
        from ..workloads.synthetic import SyntheticConfig, synthetic_database, synthetic_log

        config = SyntheticConfig(
            n_tuples=20_000, n_queries=300, n_groups=20, group_size=10, seed=3
        )
        database = synthetic_database(config)
        log = synthetic_log(config).as_single_transaction()

    # The indexed run goes FIRST: both runs build the same interned
    # expressions, so whichever goes second inherits a warm intern table
    # (and rewrite memos).  Timing indexed-first hands that warmth to the
    # linear side, biasing the measurement *against* the asserted speedup.
    indexed = Engine(database, policy=policy)
    indexed.apply(log)
    linear = Engine(database, policy=policy)
    linear.executor.store.use_indexes = False
    linear.apply(log)

    consistent = True
    if verify:
        consistent = bit_identical(indexed, linear)
    return IndexComparison(
        policy=policy,
        queries=indexed.stats.queries,
        relation_rows=database.total_rows(),
        indexed_time=indexed.stats.wall_time,
        linear_time=linear.stats.wall_time,
        index_hits=indexed.stats.index_hits,
        fallback_scans=indexed.stats.fallback_scans,
        consistent=consistent,
    )


# ---------------------------------------------------------------------------
# Sharding: routed partitions vs. one engine (ISSUE 4)
# ---------------------------------------------------------------------------


@dataclass
class ShardComparison:
    """One log applied on a sharded engine vs. one unsharded engine.

    Both sides run the identical executor code on the identical workload;
    the sharded side only adds routing.  Times are wall-clock around
    update application (sharded includes the drain barrier, so pending
    parallel runs are fully paid); workload generation, engine
    construction and the verification pass are outside both timed
    sections.  ``consistent`` asserts the merged sharded state is
    bit-identical to the unsharded engine — equal rows and liveness, the
    identical interned annotation object per row.

    The speedup has two independent sources: on any machine, routed
    transaction ends make per-boundary maintenance (the
    ``normal_form_batch`` flush) proportional to the touched shard's
    support instead of the whole support; on multi-core machines the
    process-pool backend additionally overlaps the shards' routed runs.
    """

    policy: str
    shards: int
    parallel: bool
    queries: int
    routed_queries: int
    broadcast_queries: int
    unsharded_time: float
    sharded_time: float
    consistent: bool

    @property
    def speedup(self) -> float:
        return self.unsharded_time / self.sharded_time if self.sharded_time else float("inf")

    def as_dict(self) -> dict[str, object]:
        return {
            "policy": self.policy,
            "shards": self.shards,
            "parallel": self.parallel,
            "queries": self.queries,
            "routed_queries": self.routed_queries,
            "broadcast_queries": self.broadcast_queries,
            "unsharded_time": self.unsharded_time,
            "sharded_time": self.sharded_time,
            "speedup": self.speedup,
            "consistent": self.consistent,
        }


def shard_comparison(
    database: Database | None = None,
    log: UpdateLog | None = None,
    policy: str = "normal_form_batch",
    shards: int = 8,
    shard_keys: dict | None = None,
    parallel: bool = False,
    verify: bool = True,
) -> ShardComparison:
    """Apply ``log`` unsharded and sharded and compare.

    With no workload given, builds a routable fig8-style scenario — every
    deletion/modification an equality on the ``grp`` shard key, one query
    per transaction — the flush-heavy regime where routed transaction
    ends pay off even on a single core (expect >=3x sequential; the
    tier-1 floor asserts >=1.5x).  The unsharded run goes first, so the
    process-wide expression caches it warms benefit the sharded side and
    vice-versa-proofing is unnecessary: both sides build the *same*
    interned expressions, and whichever runs second inherits the warmth —
    timing unsharded-first biases the measurement *against* the asserted
    speedup.
    """
    from ..shard import ShardedEngine, route_query
    from ..shard.partition import ShardMap

    if database is None or log is None:
        from ..workloads.synthetic import SyntheticConfig, synthetic_database, synthetic_log

        config = SyntheticConfig(
            n_tuples=3_000,
            n_queries=160,
            n_groups=24,
            group_size=6,
            queries_per_transaction=1,
            seed=3,
        )
        database = synthetic_database(config)
        log = synthetic_log(config)
        shard_keys = {"synthetic": "grp"}

    shard_map = ShardMap(database.schema, shards, shard_keys)
    routed = broadcast = 0
    for query in log.queries():
        if len(route_query(query, shard_map)) == 1:
            routed += 1
        else:
            broadcast += 1

    # Construction (loading the initial database into every store) stays
    # outside both timed sections; only update application is measured.
    unsharded = Engine(database, policy=policy)
    start = time.perf_counter()
    unsharded.apply(log)
    unsharded.support_count()  # observation flush, same as the sharded drain
    unsharded_time = time.perf_counter() - start

    sharded = ShardedEngine(
        database, n_shards=shards, policy=policy, shard_keys=shard_keys, parallel=parallel
    )
    try:
        start = time.perf_counter()
        sharded.apply(log)
        sharded.support_count()  # drains the backend and flushes every shard
        sharded_time = time.perf_counter() - start

        consistent = True
        if verify:
            consistent = bit_identical(unsharded, sharded)
    finally:
        sharded.close()
    return ShardComparison(
        policy=policy,
        shards=shards,
        parallel=parallel,
        queries=unsharded.stats.queries,
        routed_queries=routed,
        broadcast_queries=broadcast,
        unsharded_time=unsharded_time,
        sharded_time=sharded_time,
        consistent=consistent,
    )


# ---------------------------------------------------------------------------
# Serving: admission batching vs. per-call dispatch (ISSUE 5)
# ---------------------------------------------------------------------------


@dataclass
class ServerComparison:
    """One multi-client workload served with and without admission batching.

    Both runs are the identical server, engine, protocol and client code;
    the only difference is ``admission_max`` — how many queued apply
    requests the single writer may fuse into one
    :meth:`~repro.engine.engine.Engine.apply_batch` call per cycle.
    ``admission_max=1`` is per-call dispatch: every request pays its own
    writer wake-up, executor handoff and engine bookkeeping.  Clients
    pipeline their requests, so the admission queue stays deep enough for
    fusion to matter (the realistic high-traffic regime the ROADMAP's
    north star describes).

    ``consistent`` asserts both final server states are bit-identical —
    equal rows and liveness, the identical re-interned annotation object
    per row — to a direct in-process engine applying each client's
    queries in order (client workloads live in disjoint relations, so
    cross-client interleaving cannot change the final state).

    The batched run goes first: both runs build the same interned
    expressions, so whichever runs second inherits a warm intern table
    and warm rewrite memos — timing batched-first hands that warmth to
    the per-call side, biasing the measurement *against* the asserted
    speedup.
    """

    policy: str
    clients: int
    requests: int
    queries: int
    percall_time: float
    batched_time: float
    batched_max_admitted: int
    batched_cycles: int
    percall_cycles: int
    consistent: bool

    @property
    def speedup(self) -> float:
        return self.percall_time / self.batched_time if self.batched_time else float("inf")

    def as_dict(self) -> dict[str, object]:
        return {
            "policy": self.policy,
            "clients": self.clients,
            "requests": self.requests,
            "queries": self.queries,
            "percall_time": self.percall_time,
            "batched_time": self.batched_time,
            "speedup": self.speedup,
            "batched_max_admitted": self.batched_max_admitted,
            "batched_cycles": self.batched_cycles,
            "percall_cycles": self.percall_cycles,
            "consistent": self.consistent,
        }


def server_comparison(
    clients: int = 6,
    requests_per_client: int = 100,
    policy: str = "normal_form_batch",
    verify: bool = True,
) -> ServerComparison:
    """Serve a multi-client insert stream batched and per-call and compare.

    Each of ``clients`` concurrent connections pipelines
    ``requests_per_client`` single-insert apply requests into its own
    relation.  Elapsed time covers every client finishing its workload
    (server start/stop and verification sit outside both timed sections).
    """
    import threading

    from ..db.schema import Relation, Schema
    from ..queries.updates import Insert
    from ..server import ServerClient, ServerConfig, serve_in_thread

    schema = Schema(
        [Relation(f"client_{i}", ["id", "value"]) for i in range(clients)]
    )

    def client_queries(i: int) -> list[Insert]:
        return [
            Insert(f"client_{i}", (j, f"v{i}_{j}"), annotation=f"c{i}q{j}")
            for j in range(requests_per_client)
        ]

    def run(admission_max: int) -> tuple[float, dict, dict]:
        config = ServerConfig(port=0, policy=policy, admission_max=admission_max)
        handle = serve_in_thread(Database(schema), config)
        try:
            barrier = threading.Barrier(clients + 1)
            failures: list[BaseException] = []

            def worker(i: int) -> None:
                try:
                    with ServerClient(handle.host, handle.port) as connection:
                        barrier.wait()
                        # One frame per request, pipelined: the admission
                        # queue sees the whole backlog, not lockstep pairs.
                        connection.apply_pipelined(client_queries(i))
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    failures.append(exc)
                    barrier.abort()

            threads = [
                threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(clients)
            ]
            for thread in threads:
                thread.start()
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                # A worker failed before the barrier and aborted it; its
                # exception (in `failures`) is the one worth reporting.
                pass
            start = time.perf_counter()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            if failures:
                raise failures[0]
            with ServerClient(handle.host, handle.port) as connection:
                # The writer is quiescent here (every apply answered), so
                # decoding — which interns — does not race it.
                state = connection.state()
                counters = connection.stats()["server"]
        finally:
            handle.stop()
        return elapsed, state, counters

    batched_time, batched_state, batched_counters = run(256)
    percall_time, percall_state, percall_counters = run(1)

    consistent = True
    if verify:
        direct = Engine(Database(schema), policy=policy)
        for i in range(clients):
            direct.apply(client_queries(i))
        direct_state = direct.capture()
        consistent = bit_identical(batched_state, direct_state) and bit_identical(
            percall_state, direct_state
        )

    return ServerComparison(
        policy=policy,
        clients=clients,
        requests=clients * requests_per_client,
        queries=clients * requests_per_client,
        percall_time=percall_time,
        batched_time=batched_time,
        batched_max_admitted=int(batched_counters["max_admitted"]),
        batched_cycles=int(batched_counters["writer_cycles"]),
        percall_cycles=int(percall_counters["writer_cycles"]),
        consistent=consistent,
    )


# ---------------------------------------------------------------------------
# Live views: delta push vs. re-read-per-update (ISSUE 8)
# ---------------------------------------------------------------------------


@dataclass
class ViewComparison:
    """One affected-tuples update stream consumed two ways.

    A fig9-style workload: a relation of ``rows`` rows partitioned into
    groups, a standing pattern watching one group (``watched`` rows), and
    ``updates`` rounds each modifying one bucket of the watched slice
    (``affected`` rows per round) — runtime as a function of affected
    tuples, not of relation size.

    *Re-read* is the pre-subscription consumer: after every round it
    fetches the **full** ``state`` capture over the wire, decodes it
    (re-interning every annotation in the relation) and filters down to
    its slice — paying O(relation) per update for an O(affected) change.
    *Push* subscribes once and consumes the server's delta batches,
    paying O(affected) wire, decode and apply per round.

    Both sides run the identical server, policy, protocol and update
    stream on fresh servers; the push run goes first, so the expression
    caches it warms benefit the re-read baseline — the measured speedup
    is conservative.  ``consistent`` asserts the delta-maintained view is
    bit-identical to a fresh same-version capture of its slice: equal
    rows and liveness, the *identical* interned annotation object per row.
    """

    policy: str
    rows: int
    watched: int
    affected: int
    updates: int
    reread_time: float
    push_time: float
    push_batches: int
    consistent: bool

    @property
    def speedup(self) -> float:
        return self.reread_time / self.push_time if self.push_time else float("inf")

    def as_dict(self) -> dict[str, object]:
        return {
            "policy": self.policy,
            "rows": self.rows,
            "watched": self.watched,
            "affected": self.affected,
            "updates": self.updates,
            "reread_time": self.reread_time,
            "push_time": self.push_time,
            "speedup": self.speedup,
            "push_batches": self.push_batches,
            "consistent": self.consistent,
        }


def view_comparison(
    rows: int = 600,
    groups: int = 3,
    buckets: int = 10,
    updates: int = 40,
    policy: str = "naive",
) -> ViewComparison:
    """Measure delta-push subscriptions against re-read-per-update.

    The schema is ``R(grp, bucket, idx, val)``; the watched slice is
    ``grp = 0`` and round ``r`` modifies bucket ``r % buckets`` of it
    inside a transaction (every round therefore changes annotations in
    the watched slice, so each one produces exactly one pushed batch).
    """
    from ..db.schema import Relation, Schema
    from ..queries.pattern import Pattern
    from ..queries.updates import Insert, Modify
    from ..queries.updates import Transaction as Txn
    from ..server import ServerClient, ServerConfig, serve_in_thread

    schema = Schema([Relation("R", ["grp", "bucket", "idx", "val"])])
    relation = schema.relation("R")
    watched = len(range(0, rows, groups))
    affected = len(range(0, rows, groups * buckets))

    def seed() -> list[Insert]:
        return [
            Insert("R", (i % groups, (i // groups) % buckets, i, 0), annotation=f"s{i}")
            for i in range(rows)
        ]

    def round_txn(r: int) -> Txn:
        return Txn(
            f"u{r}",
            [
                Modify(
                    "R",
                    Pattern.build(relation, where={"grp": 0, "bucket": r % buckets}),
                    {3: r},
                )
            ],
        )

    watched_pattern = Pattern.build(relation, where={"grp": 0})

    def fresh_server():
        config = ServerConfig(port=0, policy=policy)
        handle = serve_in_thread(Database(schema), config)
        connection = ServerClient(handle.host, handle.port)
        connection.apply_batch(seed())
        return handle, connection

    # Push side first (see the dataclass docstring for why).
    handle, connection = fresh_server()
    push_batches = 0
    try:
        subscription = connection.subscribe("R", watched_pattern)
        start = time.perf_counter()
        for r in range(updates):
            connection.apply(round_txn(r))
            target = subscription.version + 1
            while subscription.version < target:
                event = subscription.next(timeout=30.0)
                if event is None:
                    raise RuntimeError(
                        f"no delta batch for update round {r} within 30s"
                    )
                push_batches += 1
        push_time = time.perf_counter() - start
        # Bit-identity: the maintained slice vs. a fresh same-version
        # capture (the writer is quiescent — every apply was answered and
        # its deltas consumed, so versions agree and decoding is safe).
        fresh = {
            row: payload
            for row, payload in connection.state()["R"].items()
            if watched_pattern.matches(row)
        }
        consistent = set(fresh) == set(subscription.rows) and all(
            expr is subscription.rows[row][0] and live == subscription.rows[row][1]
            for row, (expr, live) in fresh.items()
        )
        subscription.unsubscribe()
        connection.close()
    finally:
        handle.stop()

    # Re-read side: same stream, full state decode + filter per round.
    handle, connection = fresh_server()
    try:
        start = time.perf_counter()
        for r in range(updates):
            connection.apply(round_txn(r))
            filtered = {
                row: payload
                for row, payload in connection.state()["R"].items()
                if watched_pattern.matches(row)
            }
        reread_time = time.perf_counter() - start
        assert filtered is not None  # the baseline really did the reads
        connection.close()
    finally:
        handle.stop()

    return ViewComparison(
        policy=policy,
        rows=rows,
        watched=watched,
        affected=affected,
        updates=updates,
        reread_time=reread_time,
        push_time=push_time,
        push_batches=push_batches,
        consistent=consistent,
    )


# ---------------------------------------------------------------------------
# Durability: logging overhead and recovery time (ISSUE 3)
# ---------------------------------------------------------------------------


@dataclass
class RecoveryComparison:
    """One log run journaled vs. plain, and recovery vs. full replay.

    Four measured sections: the *journaled* run (write-ahead log +
    checkpoints, simulated crash at the end — the journal tail is left in
    place), the *plain* run of the same log on a fresh engine (this is
    the full-replay baseline recovery competes against), the *recovery*
    (newest checkpoint + tail replay), each ending in a full state
    observation.  ``consistent`` asserts the recovered state is
    bit-identical — equal rows and liveness, the *identical* interned
    annotation object per row — to the full replay.

    The journaled run goes first, so the process-wide expression caches
    it warms benefit the full-replay side; the measured
    ``recovery_speedup`` is therefore conservative, as is
    ``logging_overhead`` (cold journaled run vs. warm plain run).
    """

    policy: str
    queries: int
    journal_records: int
    checkpoints: int
    tail_records: int
    journaled_time: float
    plain_time: float
    recovery_time: float
    consistent: bool

    @property
    def logging_overhead(self) -> float:
        """Relative cost of journaling: journaled / plain - 1."""
        return self.journaled_time / self.plain_time - 1 if self.plain_time else 0.0

    @property
    def speedup(self) -> float:
        """Recovery vs. full replay (the acceptance floor is >= 2x)."""
        return self.plain_time / self.recovery_time if self.recovery_time else float("inf")

    def as_dict(self) -> dict[str, object]:
        return {
            "policy": self.policy,
            "queries": self.queries,
            "journal_records": self.journal_records,
            "checkpoints": self.checkpoints,
            "tail_records": self.tail_records,
            "journaled_time": self.journaled_time,
            "plain_time": self.plain_time,
            "recovery_time": self.recovery_time,
            "logging_overhead": self.logging_overhead,
            "speedup": self.speedup,
            "consistent": self.consistent,
        }


def recovery_comparison(
    directory,
    database: Database | None = None,
    log: UpdateLog | None = None,
    policy: str = "normal_form_batch",
    sync: str = "flush",
    checkpoint_every: int | None = None,
    verify: bool = True,
) -> RecoveryComparison:
    """Measure journaling overhead and recovery-vs-full-replay speedup.

    ``directory`` is where the journal and checkpoints live (callers pass
    a fresh temp dir).  With no workload given, builds a fig8-style
    synthetic scenario: a selective update stream in small transactions,
    so checkpoints land at transaction boundaries and the tail stays a
    fraction of the log.  ``checkpoint_every`` defaults to ~13% of the
    journal's record count, so the last checkpoint lands near the end
    and recovery replays a genuine tail — the regime where recovery
    touches the checkpoint plus a sliver of the log while full replay
    pays for every update again.  Reported ``logging_overhead`` is
    dominated by checkpoint frequency (full-state snapshots), not by the
    per-record journal appends; raise ``checkpoint_every`` to trade
    recovery time for throughput.
    """
    from ..wal import JournaledEngine, recover

    if database is None or log is None:
        from ..workloads.synthetic import SyntheticConfig, synthetic_database, synthetic_log

        config = SyntheticConfig(
            n_tuples=8_000,
            n_queries=600,
            n_groups=40,
            group_size=2,
            queries_per_transaction=10,
            seed=3,
        )
        database = synthetic_database(config)
        log = synthetic_log(config)
    if checkpoint_every is None:
        # ~13% of the record count: the last checkpoint lands near (but
        # not at) the end, so recovery always replays a genuine tail.
        n_transactions = sum(1 for item in log if isinstance(item, Transaction))
        checkpoint_every = max(1, (log.query_count() + n_transactions) * 2 // 15)

    start = time.perf_counter()
    journaled = JournaledEngine(
        database, directory, policy=policy, sync=sync, checkpoint_every=checkpoint_every
    )
    journaled.apply(log)
    journaled_state = journaled.capture()
    journaled_time = time.perf_counter() - start
    journal_records = journaled.journal.appended
    checkpoints = journaled.checkpoints.written
    journaled.journal.close()  # simulated crash: no final checkpoint

    start = time.perf_counter()
    plain = Engine(database, policy=policy)
    plain.apply(log)
    plain_state = plain.capture()
    plain_time = time.perf_counter() - start

    start = time.perf_counter()
    recovered = recover(directory, sync=sync, checkpoint_every=checkpoint_every)
    recovered_state = recovered.capture()
    recovery_time = time.perf_counter() - start
    tail_records = recovered.recovery.tail_records
    recovered.journal.close()

    consistent = True
    if verify:
        consistent = bit_identical(recovered_state, plain_state) and bit_identical(
            journaled_state, plain_state
        )
    return RecoveryComparison(
        policy=policy,
        queries=plain.stats.queries,
        journal_records=journal_records,
        checkpoints=checkpoints,
        tail_records=tail_records,
        journaled_time=journaled_time,
        plain_time=plain_time,
        recovery_time=recovery_time,
        consistent=consistent,
    )


# ---------------------------------------------------------------------------
# Replication: follower read scaling vs. primary-only (ISSUE 10)
# ---------------------------------------------------------------------------


@dataclass
class ReplicationComparison:
    """One write stream served with reads on followers vs. primary-only.

    Both phases run the identical write load — ``writes`` single-insert
    applies, back to back through one primary connection, so every
    acknowledged write bumps the primary's version — while ``readers``
    concurrent clients issue point reads as fast as they can.  In the
    *primary* phase reads go to the writing server: the version churn
    invalidates its published snapshot on every write, so each read pays
    a full capture admission on the shared writer.  In the *replicated*
    phase reads route through
    :class:`~repro.replication.client.ReplicatedClient` to ``followers``
    journal-shipped replicas, whose pumps **coalesce** shipped frames
    (see :mod:`repro.replication.follower`): a follower publishes one
    snapshot version per applied batch, so between batches every read is
    a cached-snapshot hit.  The speedup is a per-read-cost win — captures
    amortized over whole shipped batches instead of paid per write — not
    a core-count win: it holds on a single-core runner.  The counted form
    of the same claim is ``captures_per_read`` on each side (the ``stats``
    op's ``captures`` over the reads that side served): a scheduling-proof
    gate, where the wall-clock ``speedup`` is only reported.

    The topology is identical in both phases — the primary ships to all
    ``followers`` throughout, so both sides bear the same replication
    apply cost and the measurement isolates the read *routing* alone.

    ``consistent`` is the correctness keel: after both phases quiesce,
    every follower must sit at the primary's exact journal sequence and
    its full state capture must be bit-identical — equal rows and
    liveness, the identical re-interned annotation object per row — to
    the primary's at that same sequence.

    The primary-only phase runs first, against the *smaller* state (the
    replicated phase's writes land on top), so state-size growth biases
    the measurement *against* the asserted speedup.
    """

    policy: str
    followers: int
    readers: int
    rows: int
    writes: int
    seq: int
    primary_reads: int
    primary_elapsed: float
    replicated_reads: int
    replicated_elapsed: float
    follower_reads: int
    #: snapshots the primary captured during the primary-only phase, and
    #: the followers (summed) during the replicated phase.
    primary_captures: int
    follower_captures: int
    consistent: bool

    @property
    def primary_captures_per_read(self) -> float:
        return self.primary_captures / max(1, self.primary_reads)

    @property
    def follower_captures_per_read(self) -> float:
        return self.follower_captures / max(1, self.follower_reads)

    @property
    def primary_read_rate(self) -> float:
        return self.primary_reads / self.primary_elapsed if self.primary_elapsed else 0.0

    @property
    def replicated_read_rate(self) -> float:
        return (
            self.replicated_reads / self.replicated_elapsed
            if self.replicated_elapsed
            else 0.0
        )

    @property
    def speedup(self) -> float:
        """Aggregate read throughput: replicated / primary-only (floor 1.8x)."""
        if not self.primary_read_rate:
            return float("inf")
        return self.replicated_read_rate / self.primary_read_rate

    def as_dict(self) -> dict[str, object]:
        return {
            "policy": self.policy,
            "followers": self.followers,
            "readers": self.readers,
            "rows": self.rows,
            "writes": self.writes,
            "seq": self.seq,
            "primary_reads": self.primary_reads,
            "primary_elapsed": self.primary_elapsed,
            "primary_read_rate": self.primary_read_rate,
            "replicated_reads": self.replicated_reads,
            "replicated_elapsed": self.replicated_elapsed,
            "replicated_read_rate": self.replicated_read_rate,
            "follower_reads": self.follower_reads,
            "primary_captures_per_read": self.primary_captures_per_read,
            "follower_captures_per_read": self.follower_captures_per_read,
            "speedup": self.speedup,
            "consistent": self.consistent,
        }


def _await_followers(clients, seq: int, timeout: float = 60.0) -> None:
    """Block until every follower's applied sequence reaches ``seq``."""
    from ..errors import ReplicationError

    deadline = time.monotonic() + timeout
    for client in clients:
        while True:
            info = client.stats()["server"]
            if int(info.get("version", -1)) >= seq:
                break
            if time.monotonic() > deadline:
                raise ReplicationError(
                    f"follower stuck at seq {info.get('version')} < {seq}"
                )
            time.sleep(0.05)


def replication_comparison(
    directory,
    followers: int = 3,
    readers: int = 4,
    rows: int = 8000,
    writes: int = 300,
    policy: str = "normal_form_batch",
    verify: bool = True,
) -> ReplicationComparison:
    """Measure follower read scaling against primary-only reads.

    Spawns one ``repro replicate primary`` and ``followers`` follower
    child processes under ``directory`` (real process isolation: separate
    interpreters, intern tables, TCP between them).  The timed read op is
    ``annotation_of`` over rotating preloaded rows — a point read whose
    response is tiny, so throughput measures snapshot currency (capture
    admissions vs. cached-snapshot hits), not response encoding.
    """
    import threading

    from ..replication.client import ReplicatedClient
    from ..replication.process import spawn_follower, spawn_primary
    from ..server.client import ServerClient
    from ..queries.updates import Insert

    directory = Path(directory)
    relation = "events"

    def insert(i: int) -> Insert:
        return Insert(relation, (i, f"v{i}"), annotation=f"e{i}")

    def measured_phase(writer: ServerClient, make_reader, first_id: int):
        """Run the saturated write stream while readers hammer point reads."""
        stop = threading.Event()
        counts = [0] * readers
        routed = [0] * readers  # reads a follower (not the primary) served
        failures: list[BaseException] = []
        barrier = threading.Barrier(readers + 1)

        def read_loop(index: int) -> None:
            try:
                with make_reader() as client:
                    barrier.wait()
                    row_id = index
                    while not stop.is_set():
                        row_id = (row_id + 7) % rows
                        client.annotation_of(relation, (row_id, f"v{row_id}"))
                        counts[index] += 1
                    routed[index] = getattr(client, "follower_reads", 0)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failures.append(exc)
                stop.set()
                barrier.abort()

        threads = [
            threading.Thread(target=read_loop, args=(i,), daemon=True)
            for i in range(readers)
        ]
        for thread in threads:
            thread.start()
        try:
            barrier.wait()
            start = time.perf_counter()
            # Back-to-back single applies: continuous version churn, the
            # write regime the read-scaling claim is about.
            for j in range(writes):
                writer.apply(insert(first_id + j))
            elapsed = time.perf_counter() - start
        finally:
            stop.set()
        for thread in threads:
            thread.join(timeout=30)
        if failures:
            raise failures[0]
        return sum(counts), elapsed, sum(routed)

    def captures(clients) -> int:
        return sum(int(c.stats()["server"]["captures"]) for c in clients)

    with spawn_primary(
        directory / "primary", schema=[f"{relation}:id,value"], policy=policy
    ) as primary:
        with ServerClient(*primary.address, connect_retry=10.0) as writer:
            # Preload outside both timed sections: the shared baseline state
            # every point read resolves against.
            writer.apply_pipelined([insert(i) for i in range(rows)])

            nodes = [
                spawn_follower(
                    directory / f"follower-{i}", primary.replication_address
                )
                for i in range(followers)
            ]
            try:
                follower_clients = [
                    ServerClient(*node.address, connect_retry=10.0) for node in nodes
                ]
                # Followers start from the checkpoint fetch; let them reach
                # the preload watermark before timing anything.
                _await_followers(follower_clients, writer.last_seq or 0)

                captures_before = captures([writer])
                primary_reads, primary_elapsed, _ = measured_phase(
                    writer,
                    lambda: ServerClient(*primary.address, connect_retry=10.0),
                    first_id=rows,
                )
                primary_captures = captures([writer]) - captures_before

                captures_before = captures(follower_clients)
                replicated_reads, replicated_elapsed, follower_served = measured_phase(
                    writer,
                    lambda: ReplicatedClient(
                        primary.address,
                        [node.address for node in nodes],
                        # A reading-only client has observed no write seq, so
                        # any generous bound keeps every read on a follower.
                        max_lag=1_000_000,
                        connect_retry=10.0,
                    ),
                    first_id=rows + writes,
                )
                follower_captures = captures(follower_clients) - captures_before

                # Quiesce and hold the keel: every follower at the primary's
                # exact journal seq, bit-identical full state captures.
                seq = writer.last_seq or 0
                _await_followers(follower_clients, seq)
                consistent = True
                if verify:
                    primary_state = writer.state()
                    for client in follower_clients:
                        follower_state = client.state()
                        if client.last_version != seq or not bit_identical(
                            primary_state, follower_state
                        ):
                            consistent = False
                for client in follower_clients:
                    client.close()
            finally:
                for node in nodes:
                    node.stop()

    return ReplicationComparison(
        policy=policy,
        followers=followers,
        readers=readers,
        rows=rows,
        writes=writes,
        seq=seq,
        primary_reads=primary_reads,
        primary_elapsed=primary_elapsed,
        replicated_reads=replicated_reads,
        replicated_elapsed=replicated_elapsed,
        follower_reads=follower_served,
        primary_captures=primary_captures,
        follower_captures=follower_captures,
        consistent=consistent,
    )


# ---------------------------------------------------------------------------
# Memory comparison (reclaimable interning + arena encoding)
# ---------------------------------------------------------------------------


@dataclass
class MemoryComparison:
    """Peak-RSS / node-count comparison across interning+encoding modes.

    One subprocess per mode (peak RSS is monotone per process), all modes
    running the identical epoch-churn workload of
    :mod:`repro.bench.memchild`.  ``consistent`` is the bit-identity
    check: every mode must fingerprint the same final annotated states —
    the sweep and the arena are representation changes, never semantic
    ones.
    """

    config: dict
    results: dict[str, dict]

    def _peak(self, mode: str) -> int:
        return int(self.results.get(mode, {}).get("peak_rss_bytes", 0))

    def _nodes(self, mode: str) -> int:
        return int(self.results.get(mode, {}).get("intern_table_size", 0))

    @property
    def rss_ratio(self) -> float:
        """Peak RSS, grow-only objects over GC'd arena (higher is better)."""
        denominator = self._peak("arena_gc")
        return self._peak("objects_grow") / denominator if denominator else 0.0

    @property
    def node_ratio(self) -> float:
        """Final intern-table size, grow-only over GC'd (higher is better)."""
        denominator = self._nodes("arena_gc")
        return self._nodes("objects_grow") / denominator if denominator else 0.0

    @property
    def consistent(self) -> bool:
        prints = {r.get("fingerprint") for r in self.results.values()}
        return len(prints) == 1 and None not in prints

    @property
    def swept_total(self) -> int:
        return int(self.results.get("arena_gc", {}).get("sweep", {}).get("swept_total", 0))

    def as_dict(self) -> dict[str, object]:
        return {
            "config": dict(self.config),
            "results": {mode: dict(r) for mode, r in self.results.items()},
            "rss_ratio": self.rss_ratio,
            "node_ratio": self.node_ratio,
            "swept_total": self.swept_total,
            "consistent": self.consistent,
        }


def _memchild_run(config: dict, timeout: float) -> dict:
    """Launch one ``repro.bench.memchild`` subprocess and parse its report."""
    import os
    import subprocess
    import sys

    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-m", "repro.bench.memchild"],
        input=json.dumps(config),
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"memchild {config.get('mode')} failed "
            f"(rc={completed.returncode}): {completed.stderr.strip()[-2000:]}"
        )
    return json.loads(completed.stdout)


def memory_comparison(
    epochs: int = 16,
    transactions: int = 24,
    queries_per_transaction: int = 6,
    rows: int = 300,
    groups: int = 15,
    seed: int = 23,
    modes: Sequence[str] | None = None,
    timeout: float = 600.0,
) -> MemoryComparison:
    """Measure sustained-churn memory across the four interning/arena modes.

    At the default scale the grow-only/object configuration peaks well
    over 2x the RSS of the GC'd/arena one while both fingerprint the same
    states — the memory axis of the reclaimable-interning refactor.  Pass
    a ``modes`` subset (e.g. the two extremes) for a faster smoke run.
    """
    from .memchild import MODES, child_config

    chosen = tuple(modes) if modes is not None else tuple(MODES)
    results: dict[str, dict] = {}
    for mode in chosen:
        config = child_config(
            mode,
            epochs=epochs,
            transactions=transactions,
            queries_per_transaction=queries_per_transaction,
            rows=rows,
            groups=groups,
            seed=seed,
        )
        results[mode] = _memchild_run(config, timeout)
    return MemoryComparison(
        config={
            "epochs": epochs,
            "transactions": transactions,
            "queries_per_transaction": queries_per_transaction,
            "rows": rows,
            "groups": groups,
            "seed": seed,
            "modes": list(chosen),
        },
        results=results,
    )


def _evaluate_boolean(expr, deleted_vars: set[str], memo: dict[int, bool]) -> bool:
    """Boolean evaluation with a memo shared across rows.

    Semantically identical to ``evaluate(expr, BooleanStructure(), env)``
    with ``env = name not in deleted_vars``; the persistent memo makes the
    whole-database valuation a single pass over the provenance DAG.
    """
    from ..core.expr import MINUS, PLUS_I, PLUS_M, SUM, TIMES_M, VAR

    if id(expr) in memo:
        return memo[id(expr)]
    stack: list[tuple[object, bool]] = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in memo:
            continue
        kind = node.kind
        if kind == VAR:
            memo[key] = node.name not in deleted_vars
            continue
        if not node.children:  # zero
            memo[key] = False
            continue
        if not expanded:
            stack.append((node, True))
            stack.extend((c, False) for c in node.children if id(c) not in memo)
            continue
        if kind == SUM:
            memo[key] = any(memo[id(c)] for c in node.children)
        elif kind in (PLUS_I, PLUS_M):
            memo[key] = memo[id(node.children[0])] or memo[id(node.children[1])]
        elif kind == TIMES_M:
            memo[key] = memo[id(node.children[0])] and memo[id(node.children[1])]
        else:  # MINUS
            assert kind == MINUS
            memo[key] = memo[id(node.children[0])] and not memo[id(node.children[1])]
    return memo[id(expr)]


@dataclass
class UsageMeasurement:
    """Deletion-propagation usage vs. the re-run baseline (Figures 7c/8c)."""

    policy: str
    queries: int
    deletions: int
    usage_time: float
    rerun_time: float
    consistent: bool

    @property
    def speedup(self) -> float:
        return self.rerun_time / self.usage_time if self.usage_time else float("inf")

    def as_dict(self) -> dict[str, object]:
        return {
            "policy": self.policy,
            "queries": self.queries,
            "deletions": self.deletions,
            "usage_time": self.usage_time,
            "rerun_time": self.rerun_time,
            "speedup": self.speedup,
            "consistent": self.consistent,
        }


def usage_measurement(
    engine: Engine,
    database: Database,
    applied_log: UpdateLog,
    n_deletions: int = 20,
    rng: random.Random | None = None,
    verify: bool = True,
) -> UsageMeasurement:
    """Time a deletion-propagation what-if on an already-tracked engine.

    Picks ``n_deletions`` random initial tuples, assigns ``False`` to their
    annotations and ``True`` everywhere else, and evaluates every stored
    annotation (the paper's "usage"); then deletes the same tuples from a
    copy of the input and re-runs the log with no provenance (the paper's
    baseline).  With ``verify`` the two results are compared — Proposition
    4.2 says they must agree.
    """
    rng = rng or random.Random(17)
    structure = BooleanStructure()
    deleted_vars: set[str] = set()
    deleted_rows: list[tuple[str, tuple]] = []
    candidates = [
        (relation, row)
        for relation in database.schema.names
        for row in sorted(database.rows(relation), key=repr)
    ]
    for relation, row in rng.sample(candidates, min(n_deletions, len(candidates))):
        name = engine.tuple_var(relation, row)
        if name is not None:
            deleted_vars.add(name)
            deleted_rows.append((relation, row))

    start = time.perf_counter()
    survivors: dict[str, set[tuple]] = {}
    # One assignment pass over the whole annotated database: shared
    # sub-expressions are evaluated once (memo persists across rows).
    memo: dict[int, bool] = {}
    for relation in engine.executor.schema.names:
        bucket: set[tuple] = set()
        for row, expr, _live in engine.provenance(relation):
            if _evaluate_boolean(expr, deleted_vars, memo):
                bucket.add(row)
        survivors[relation] = bucket
    usage_time = time.perf_counter() - start

    modified = database.copy()
    for relation, row in deleted_rows:
        modified.discard(relation, row)
    start = time.perf_counter()
    baseline = Engine(modified, policy="none").apply(applied_log).result()
    rerun_time = time.perf_counter() - start

    consistent = True
    if verify:
        consistent = all(
            survivors[relation] == set(baseline.rows(relation))
            for relation in baseline.schema.names
        )
    return UsageMeasurement(
        policy=engine.policy,
        queries=engine.stats.queries,
        deletions=len(deleted_rows),
        usage_time=usage_time,
        rerun_time=rerun_time,
        consistent=consistent,
    )
