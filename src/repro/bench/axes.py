"""The measured axes: one layer, two configurations, gated on counted work.

Each layer built on top of the paper's engine makes the same kind of
claim the paper's Section 6 makes — configuration B does less work than
configuration A and ends in the same state — so each is one entry of the
figure registry (:data:`repro.bench.figures.ALL_FIGURES`): ``repro figure
NAME --scale S --save DIR`` runs it at the :class:`~repro.bench.scales.BenchScale`
preset's sizes (the one table beside each axis) and prints a
:class:`~repro.bench.reporting.FigureResult` whose rows end in the shared
columns of :func:`_row`.

**The gate is counted, the clock is reported.**  Every axis names a
counter both sides already maintain (memo misses, rows examined, writer
cycles, journal records, snapshot captures, interned nodes) and passes
when ``FLOOR x claimed work <= baseline work`` and the two final states
are bit-identical (:func:`repro.engine.oracle.bit_identical`).  The
wall-clock ratio is printed beside it and gates nothing: it moves with
the scheduler, the count does not.

**Order.**  Both sides of an in-process comparison build the same
interned expressions, so whichever runs second inherits a warm intern
table and warm rewrite memos.  The claimed-cheaper side therefore runs
*first*: the warmth goes to the baseline and the reported wall-clock
ratio is biased against the claim.  An axis that orders differently says
why in its docstring.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable

from ..core.expr import dag_size
from ..core.memo import clear_memos, memo_stats
from ..core.normalize import normalize_expr
from ..db.database import Database
from ..db.schema import Relation, Schema
from ..engine.engine import Engine
from ..engine.oracle import bit_identical
from ..queries.pattern import Pattern
from ..queries.updates import Insert, Modify, Transaction
from ..workloads.synthetic import SyntheticConfig, synthetic_database, synthetic_log
from .reporting import FigureResult
from .scales import SCALES, BenchScale, active_scale

__all__ = ["AXES", "FLOOR"]

#: Every gated row asserts ``FLOOR * claimed work <= baseline work``.
FLOOR = 2

#: name -> driver ``(scale) -> [FigureResult]``, in presentation order.
AXES: dict[str, Callable[[BenchScale | None], list[FigureResult]]] = {}


def axis(name: str, title: str, counted: str, sizes: dict[str, object]):
    """Register ``run(sizes, workdir) -> rows`` as the figure driver ``name``."""

    def register(run):
        def driver(scale: BenchScale | None = None) -> list[FigureResult]:
            scale = scale or active_scale()
            with tempfile.TemporaryDirectory(prefix=f"repro-{name}-") as workdir:
                rows = run(sizes[scale.name], Path(workdir))
            result = FigureResult(figure=name, title=title, columns=list(rows[0]), rows=rows)
            result.note(
                f"gate = consistent and {FLOOR} x claimed work <= baseline work, "
                f"counted in {counted}; wall ratio is reported, not gated"
            )
            return [result]

        driver.__doc__ = run.__doc__
        AXES[name] = driver
        return driver

    return register


def _timed(section: Callable[[], object]) -> tuple[float, object]:
    start = time.perf_counter()
    result = section()
    return time.perf_counter() - start, result


def _ratio(baseline: float, claimed: float) -> float:
    return baseline / claimed if claimed else float("inf")


def _row(details: dict, *, work, seconds, consistent: bool) -> dict:
    """One comparison row: the axis's own ``details``, then the shared columns.

    ``work`` and ``seconds`` are ``(baseline, claimed)`` pairs.  A row
    measured where the counter is out of reach passes ``work=None`` and
    gates on ``consistent`` alone.
    """
    baseline_work, claimed_work = work or (None, None)
    return {
        **details,
        "baseline work": baseline_work,
        "claimed work": claimed_work,
        "work ratio": _ratio(baseline_work, claimed_work) if work else None,
        "baseline [s]": seconds[0],
        "claimed [s]": seconds[1],
        "wall ratio": _ratio(*seconds),
        "consistent": consistent,
        "gate": consistent and (work is None or FLOOR * claimed_work <= baseline_work),
    }


def _by_scale(*sizes: object) -> dict[str, object]:
    """One axis's size table: an entry per preset, in ``SCALES`` order."""
    return dict(zip(SCALES, sizes, strict=True))


# ---------------------------------------------------------------------------
# cache: memoized vs. cold-cache rewriting
# ---------------------------------------------------------------------------


@axis(
    "cache",
    "Rewrite memo: cold-cache vs memoized normalization sweeps",
    "nodes rewritten",
    # (scenario whose naive provenance is normalized, sweeps over it)
    _by_scale(
        (SyntheticConfig(n_tuples=150, n_queries=80, n_groups=8, group_size=5, seed=11), 3),
        (SyntheticConfig(n_tuples=300, n_queries=150, n_groups=10, group_size=5, seed=11), 3),
        (SyntheticConfig(n_tuples=1_000, n_queries=400, n_groups=20, group_size=5, seed=11), 3),
        (SyntheticConfig(n_tuples=3_000, n_queries=1_000, n_groups=40, group_size=5, seed=11), 3),
    ),
)
def cache_axis(sizes, _workdir: Path) -> list[dict]:
    """Normalize one expression set ``repeats`` times, per-call tables vs. the memo.

    The expressions are the naive-policy provenance of a small synthetic
    run: they share sub-structure heavily (every update layers on
    yesterday's annotations), which is the workload the rewrite memo is
    built for — normalizing the whole set repeatedly models the
    "re-normalize after every batch of updates" access pattern.

    The memoized pass starts from empty memo tables, so its first sweep
    pays what a shared-table cold sweep pays and the remaining sweeps are
    pure hits; its counted work is the ``normalize`` table's misses.  The
    baseline's per-call table rewrites every distinct node of every
    expression on every call, i.e. ``repeats x sum(dag_size(e))`` nodes.
    """
    config, repeats = sizes
    engine = Engine(synthetic_database(config), policy="naive")
    engine.apply(synthetic_log(config).as_single_transaction())
    exprs = [
        expr
        for relation in engine.schema.names
        for _tuple, expr, _live in engine.provenance(relation)
    ]

    def sweeps(memo: bool) -> list:
        for _ in range(repeats):
            results = [normalize_expr(e, memo=memo) for e in exprs]
        return results

    clear_memos()
    before = memo_stats()["normalize"]
    claimed_s, memoized = _timed(lambda: sweeps(True))
    after = memo_stats()["normalize"]
    baseline_s, cold = _timed(lambda: sweeps(False))
    return [
        _row(
            {
                "expressions": len(exprs),
                "repeats": repeats,
                "hits": after.hits - before.hits,
            },
            work=(repeats * sum(dag_size([e]) for e in exprs), after.misses - before.misses),
            seconds=(baseline_s, claimed_s),
            consistent=len(cold) == len(memoized)
            and all(u is c for u, c in zip(cold, memoized)),
        )
    ]


# ---------------------------------------------------------------------------
# index: maintained column indexes vs. forced linear scans
# ---------------------------------------------------------------------------


@axis(
    "index",
    "Annotation store: linear scans vs maintained column indexes",
    "rows examined",
    # A large relation with a small hot set selected by grp-equality
    # patterns: the selective regime where maintained indexes make match
    # cost proportional to matched rows instead of relation size.
    _by_scale(
        SyntheticConfig(n_tuples=4_000, n_queries=150, n_groups=10, group_size=4, seed=5),
        SyntheticConfig(n_tuples=20_000, n_queries=300, n_groups=20, group_size=10, seed=3),
        SyntheticConfig(n_tuples=100_000, n_queries=600, n_groups=20, group_size=10, seed=3),
        SyntheticConfig(n_tuples=1_000_000, n_queries=2_000, n_groups=20, group_size=10, seed=3),
    ),
)
def index_axis(config: SyntheticConfig, _workdir: Path) -> list[dict]:
    """Apply one log with indexed and with linear matching, per policy.

    Both runs use the very same executor code; the linear side only flips
    the store's ``use_indexes`` switch, so every pattern matching takes
    the planner's guaranteed fallback path.  Times are the engines'
    accumulated executor wall time.  The indexed side's work is the
    candidate rows its indexes handed to the predicate (plus a full
    relation for any scan it fell back to); a linear match visits the
    whole support, which stays within the hot set's size of the initial
    row count — two orders of magnitude inside the gate's margin.
    """
    database = synthetic_database(config)
    log = synthetic_log(config).as_single_transaction()
    relation_rows = database.total_rows()
    rows = []
    for policy in ("normal_form", "naive", "none"):
        indexed = Engine(database, policy=policy)
        indexed.apply(log)
        linear = Engine(database, policy=policy)
        linear.executor.store.use_indexes = False
        linear.apply(log)
        rows.append(
            _row(
                {
                    "policy": policy,
                    "queries": indexed.stats.queries,
                    "relation rows": relation_rows,
                    "index hits": indexed.stats.index_hits,
                },
                work=(
                    linear.stats.fallback_scans * relation_rows,
                    indexed.stats.index_rows_examined
                    + indexed.stats.fallback_scans * relation_rows,
                ),
                seconds=(linear.stats.wall_time, indexed.stats.wall_time),
                consistent=bit_identical(indexed, linear),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# server: admission batching vs. per-call dispatch
# ---------------------------------------------------------------------------


@axis(
    "server",
    "Serving: per-call dispatch vs admission batching (pipelined clients)",
    "writer cycles",
    # (concurrent clients, pipelined single-insert requests per client)
    _by_scale((4, 50), (6, 100), (8, 400), (16, 1_000)),
)
def server_axis(sizes, _workdir: Path) -> list[dict]:
    """Serve one multi-client insert stream with and without admission batching.

    Both runs are the identical server, engine, protocol and client code;
    the only difference is ``admission_max`` — how many queued apply
    requests the single writer may fuse into one
    :meth:`~repro.engine.engine.Engine.apply_batch` call per cycle.
    ``admission_max=1`` is per-call dispatch: every request pays its own
    writer wake-up, executor handoff and engine bookkeeping, which is
    what ``writer_cycles`` counts.  Clients pipeline their requests, one
    frame each, so the admission queue sees the whole backlog rather than
    lockstep pairs.  Elapsed time covers every client finishing its
    stream; server start/stop and verification sit outside it.

    Both final server states must be bit-identical to a direct in-process
    engine applying each client's queries in order (client workloads live
    in disjoint relations, so cross-client interleaving cannot change the
    final state).
    """
    from ..server import ServerClient, ServerConfig, serve_in_thread

    clients, requests = sizes
    policy = "normal_form_batch"
    schema = Schema([Relation(f"client_{i}", ["id", "value"]) for i in range(clients)])

    def client_queries(i: int) -> list[Insert]:
        return [
            Insert(f"client_{i}", (j, f"v{i}_{j}"), annotation=f"c{i}q{j}")
            for j in range(requests)
        ]

    def served(admission_max: int) -> tuple[float, dict, dict]:
        config = ServerConfig(port=0, policy=policy, admission_max=admission_max)
        handle = serve_in_thread(Database(schema), config)
        try:
            barrier = threading.Barrier(clients + 1)
            failures: list[BaseException] = []

            def worker(i: int) -> None:
                try:
                    with ServerClient(handle.host, handle.port) as connection:
                        barrier.wait()
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
                return elapsed, connection.state(), connection.stats()["server"]
        finally:
            handle.stop()

    claimed_s, batched_state, batched = served(256)
    baseline_s, percall_state, percall = served(1)
    direct = Engine(Database(schema), policy=policy)
    for i in range(clients):
        direct.apply(client_queries(i))
    direct_state = direct.capture()
    return [
        _row(
            {
                "policy": policy,
                "clients": clients,
                "requests": clients * requests,
                "max admitted": int(batched["max_admitted"]),
            },
            work=(int(percall["writer_cycles"]), int(batched["writer_cycles"])),
            seconds=(baseline_s, claimed_s),
            consistent=bit_identical(batched_state, direct_state)
            and bit_identical(percall_state, direct_state),
        )
    ]


# ---------------------------------------------------------------------------
# view: delta push vs. re-read-per-update
# ---------------------------------------------------------------------------


@axis(
    "view",
    "Live views: re-read per update vs pushed row deltas",
    "rows decoded by the consumer",
    # (relation rows, groups, buckets per group, update rounds)
    _by_scale((300, 3, 10, 20), (600, 3, 10, 40), (3_000, 3, 10, 80), (30_000, 3, 10, 200)),
)
def view_axis(sizes, _workdir: Path) -> list[dict]:
    """Consume one affected-tuples update stream by re-reading and by subscription.

    A fig9-style workload — runtime as a function of affected tuples, not
    of relation size.  The schema is ``R(grp, bucket, idx, val)``; the
    standing pattern watches ``grp = 0`` and round ``r`` modifies bucket
    ``r % buckets`` of it inside a transaction, so every round changes
    annotations in the watched slice and produces exactly one pushed
    batch.

    *Re-read* is the pre-subscription consumer: after every round it
    fetches the **full** ``state`` capture over the wire, decodes it
    (re-interning every annotation in the relation) and filters down to
    its slice — O(relation) rows decoded per round for an O(affected)
    change.  *Push* subscribes once and decodes only the rows of each
    delta batch.  Both sides run the identical server, policy, protocol
    and update stream on fresh servers.  ``consistent`` compares the
    delta-maintained slice with a fresh same-version capture of it.
    """
    from ..server import ServerClient, ServerConfig, serve_in_thread

    n_rows, groups, buckets, updates = sizes
    policy = "naive"
    schema = Schema([Relation("R", ["grp", "bucket", "idx", "val"])])
    relation = schema.relation("R")
    watched = Pattern.build(relation, where={"grp": 0})

    def round_txn(r: int) -> Transaction:
        bucket = Pattern.build(relation, where={"grp": 0, "bucket": r % buckets})
        return Transaction(f"u{r}", [Modify("R", bucket, {3: r})])

    def fresh_server():
        handle = serve_in_thread(Database(schema), ServerConfig(port=0, policy=policy))
        connection = ServerClient(handle.host, handle.port)
        connection.apply_batch(
            [
                Insert("R", (i % groups, (i // groups) % buckets, i, 0), annotation=f"s{i}")
                for i in range(n_rows)
            ]
        )
        return handle, connection

    def watched_slice(connection) -> tuple[dict, int]:
        state = connection.state()["R"]
        return {row: p for row, p in state.items() if watched.matches(row)}, len(state)

    handle, connection = fresh_server()
    try:
        subscription = connection.subscribe("R", watched)
        push_batches = pushed_rows = 0
        start = time.perf_counter()
        for r in range(updates):
            connection.apply(round_txn(r))
            target = subscription.version + 1
            while subscription.version < target:
                event = subscription.next(timeout=30.0)
                if event is None:
                    raise RuntimeError(f"no delta batch for update round {r} within 30s")
                push_batches += 1
                pushed_rows += len(event.batch)
        claimed_s = time.perf_counter() - start
        # The writer is quiescent — every apply was answered and its
        # deltas consumed, so versions agree and decoding is safe.
        fresh, _ = watched_slice(connection)
        consistent = bit_identical({"R": fresh}, {"R": subscription.rows})
        subscription.unsubscribe()
        connection.close()
    finally:
        handle.stop()

    handle, connection = fresh_server()
    try:
        reread_rows = 0
        start = time.perf_counter()
        for r in range(updates):
            connection.apply(round_txn(r))
            reread_rows += watched_slice(connection)[1]
        baseline_s = time.perf_counter() - start
        connection.close()
    finally:
        handle.stop()

    return [
        _row(
            {
                "policy": policy,
                "rows": n_rows,
                "watched": len(range(0, n_rows, groups)),
                "affected": len(range(0, n_rows, groups * buckets)),
                "updates": updates,
                "push batches": push_batches,
            },
            work=(reread_rows, pushed_rows),
            seconds=(baseline_s, claimed_s),
            consistent=consistent,
        )
    ]


# ---------------------------------------------------------------------------
# recovery: checkpoint + journal tail vs. full replay
# ---------------------------------------------------------------------------


@axis(
    "recovery",
    "Durability: full replay vs recovery from checkpoint + journal tail",
    "journal records replayed",
    # A fig8-style selective update stream in small transactions, so
    # checkpoints land at transaction boundaries and the tail stays a
    # fraction of the log.
    _by_scale(
        SyntheticConfig(
            n_tuples=2_000, n_queries=200, n_groups=20, group_size=2,
            queries_per_transaction=10, seed=3,
        ),
        SyntheticConfig(
            n_tuples=8_000, n_queries=600, n_groups=40, group_size=2,
            queries_per_transaction=10, seed=3,
        ),
        SyntheticConfig(
            n_tuples=40_000, n_queries=1_200, n_groups=40, group_size=2,
            queries_per_transaction=10, seed=3,
        ),
        SyntheticConfig(
            n_tuples=200_000, n_queries=2_000, n_groups=40, group_size=2,
            queries_per_transaction=10, seed=3,
        ),
    ),
)
def recovery_axis(config: SyntheticConfig, workdir: Path) -> list[dict]:
    """Run one log journaled, crash, and recover; compare with replaying it all.

    Three measured sections, each ending in a full state observation: the
    *journaled* run (write-ahead log + checkpoints, simulated crash at
    the end — the journal tail is left in place), the *plain* run of the
    same log on a fresh engine (the full-replay baseline, which re-pays
    every journal record) and the *recovery* (newest checkpoint + tail
    replay).  The journaled run necessarily goes first, so both compared
    sections run warm and ``logging overhead`` (cold journaled run vs.
    warm plain run) is conservative.

    ``checkpoint_every`` is ~13% of the journal's record count, so the
    last checkpoint lands near (but not at) the end and recovery replays
    a genuine tail.  ``logging overhead`` is dominated by that checkpoint
    frequency (full-state snapshots), not by the per-record appends.
    """
    from ..wal import JournaledEngine, recover

    policy, sync = "normal_form_batch", "flush"
    database = synthetic_database(config)
    log = synthetic_log(config)
    n_transactions = sum(1 for item in log if isinstance(item, Transaction))
    checkpoint_every = max(1, (log.query_count() + n_transactions) * 2 // 15)

    def journaled_run():
        engine = JournaledEngine(
            database, workdir, policy=policy, sync=sync, checkpoint_every=checkpoint_every
        )
        engine.apply(log)
        return engine, engine.capture()

    def plain_run():
        engine = Engine(database, policy=policy)
        engine.apply(log)
        return engine, engine.capture()

    def recovery_run():
        engine = recover(workdir, sync=sync, checkpoint_every=checkpoint_every)
        return engine, engine.capture()

    journaled_s, (journaled, journaled_state) = _timed(journaled_run)
    journaled.journal.close()  # simulated crash: no final checkpoint
    baseline_s, (plain, plain_state) = _timed(plain_run)
    claimed_s, (recovered, recovered_state) = _timed(recovery_run)
    recovered.journal.close()
    return [
        _row(
            {
                "policy": policy,
                "queries": plain.stats.queries,
                "checkpoints": journaled.checkpoints.written,
                "journaled [s]": journaled_s,
                "logging overhead": journaled_s / baseline_s - 1 if baseline_s else 0.0,
            },
            work=(journaled.journal.appended, recovered.recovery.tail_records),
            seconds=(baseline_s, claimed_s),
            consistent=recovered.recovery.tail_records > 0
            and bit_identical(recovered_state, plain_state)
            and bit_identical(journaled_state, plain_state),
        )
    ]


# ---------------------------------------------------------------------------
# replication: follower-routed reads vs. primary-only reads
# ---------------------------------------------------------------------------


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


@axis(
    "replication",
    "Replication: primary-only reads vs follower-routed reads under a write stream "
    "([s] = seconds per read)",
    "snapshot captures under one write stream",
    # (followers, readers, preloaded rows, writes per phase)
    _by_scale((3, 4, 4_000, 200), (3, 4, 8_000, 300), (3, 4, 20_000, 600), (3, 8, 80_000, 1_000)),
)
def replication_axis(sizes, workdir: Path) -> list[dict]:
    """Serve one write stream with reads on the primary, then on followers.

    Spawns one ``repro replicate primary`` and the follower child
    processes under ``workdir`` (real process isolation: separate
    interpreters, intern tables, TCP between them).  Both phases run the
    identical write load — single-insert applies back to back through one
    primary connection, so every acknowledged write bumps the primary's
    version — while the readers issue point reads as fast as they can.
    The read op is ``annotation_of`` over rotating preloaded rows: its
    response is tiny, so a read's cost is snapshot currency, not encoding.

    In the *primary* phase the version churn invalidates the published
    snapshot on every write, so each read pays a full capture admission
    on the shared writer.  In the *replicated* phase reads route through
    :class:`~repro.replication.client.ReplicatedClient` to followers
    whose pumps **coalesce** shipped frames (see
    :mod:`repro.replication.follower`): one snapshot version per applied
    batch, so between batches every read is a cached-snapshot hit.  The
    win is capture work — amortized over whole shipped batches instead of
    paid per write — not core count, so it is counted as the ``stats``
    op's ``captures``: the primary's during its phase against the whole
    follower fleet's during theirs, under the same number of writes.
    (Captures *per read* would divide by how many reads the scheduler let
    each side serve, which is a wall-clock quantity in disguise.)  The
    topology is identical in both phases (the primary ships to every
    follower throughout), so the measurement isolates read *routing* alone.

    Order: the primary-only phase runs first, against the *smaller* state
    (the replicated phase's writes land on top), so state growth biases
    against the claim.  ``consistent``: after both phases quiesce, every
    follower sits at the primary's exact journal sequence with a
    bit-identical full state capture, and followers did serve reads.
    """
    from ..replication.client import ReplicatedClient
    from ..replication.process import spawn_follower, spawn_primary
    from ..server.client import ServerClient

    followers, readers, n_rows, writes = sizes
    policy = "normal_form_batch"
    relation = "events"

    def insert(i: int) -> Insert:
        return Insert(relation, (i, f"v{i}"), annotation=f"e{i}")

    def measured_phase(writer, make_reader, first_id: int):
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
                        row_id = (row_id + 7) % n_rows
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
        workdir / "primary", schema=[f"{relation}:id,value"], policy=policy
    ) as primary:
        with ServerClient(*primary.address, connect_retry=10.0) as writer:
            # Preload outside both timed sections: the shared baseline state
            # every point read resolves against.
            writer.apply_pipelined([insert(i) for i in range(n_rows)])
            nodes = [
                spawn_follower(workdir / f"follower-{i}", primary.replication_address)
                for i in range(followers)
            ]
            try:
                follower_clients = [
                    ServerClient(*node.address, connect_retry=10.0) for node in nodes
                ]
                # Followers start from the checkpoint fetch; let them reach
                # the preload watermark before timing anything.
                _await_followers(follower_clients, writer.last_seq or 0)

                before = captures([writer])
                primary_reads, primary_s, _ = measured_phase(
                    writer,
                    lambda: ServerClient(*primary.address, connect_retry=10.0),
                    first_id=n_rows,
                )
                primary_captures = captures([writer]) - before

                before = captures(follower_clients)
                replicated_reads, replicated_s, follower_reads = measured_phase(
                    writer,
                    lambda: ReplicatedClient(
                        primary.address,
                        [node.address for node in nodes],
                        # A reading-only client has observed no write seq, so
                        # any generous bound keeps every read on a follower.
                        max_lag=1_000_000,
                        connect_retry=10.0,
                    ),
                    first_id=n_rows + writes,
                )
                follower_captures = captures(follower_clients) - before

                seq = writer.last_seq or 0
                _await_followers(follower_clients, seq)
                primary_state = writer.state()
                consistent = follower_reads > 0
                for client in follower_clients:
                    follower_state = client.state()
                    if client.last_version != seq or not bit_identical(
                        primary_state, follower_state
                    ):
                        consistent = False
                    client.close()
            finally:
                for node in nodes:
                    node.stop()

    return [
        _row(
            {
                "policy": policy,
                "followers": followers,
                "readers": readers,
                "rows": n_rows,
                "writes": writes,
                "seq": seq,
                "primary reads": primary_reads,
                "replicated reads": replicated_reads,
                "follower reads": follower_reads,
            },
            work=(primary_captures, follower_captures),
            seconds=(
                primary_s / max(1, primary_reads),
                replicated_s / max(1, replicated_reads),
            ),
            consistent=consistent,
        )
    ]


# ---------------------------------------------------------------------------
# memory: interning follows live provenance
# ---------------------------------------------------------------------------


def _memchild_run(config: dict) -> dict:
    """Launch one ``repro.bench.memchild`` subprocess and parse its report."""
    src_dir = str(Path(__file__).resolve().parents[2])  # the directory holding `repro`
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-m", "repro.bench.memchild"],
        input=json.dumps(config),
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"memchild failed (rc={completed.returncode}): {completed.stderr.strip()[-2000:]}"
        )
    return json.loads(completed.stdout)


@axis(
    "memory",
    "Memory: interning follows live provenance",
    "intern table nodes at rest",
    # memchild workload.  Multi-query transactions matter: normal_form_batch
    # flushes at transaction ends, so they also exercise the second garbage
    # source — naive within-transaction chains that the flush rewrites away.
    _by_scale(
        dict(epochs=5, transactions=8, queries_per_transaction=4, rows=120, groups=10),
        dict(epochs=16, transactions=24, queries_per_transaction=6, rows=300, groups=15),
        dict(epochs=32, transactions=48, queries_per_transaction=6, rows=600, groups=30),
        dict(epochs=64, transactions=96, queries_per_transaction=6, rows=1_200, groups=60),
    ),
)
def memory_axis(workload, _workdir: Path) -> list[dict]:
    """Run the epoch-churn workload of :mod:`repro.bench.memchild` once.

    One subprocess, because peak RSS is monotone over a process lifetime
    and the reported peak must be this workload's own.  ``consistent``
    requires that, once the epochs are over, the intern table holds
    exactly the nodes reachable from the resident engine plus ``ZERO``:
    nothing a discarded engine built may outlive it.  The counted claim is
    the intern table at rest; the baseline adds the nodes each dropped
    epoch engine released, a lower bound on what a grow-only table would
    still hold.  There is one run, so both time columns are its time and
    the wall ratio is 1.  Peak RSS is reported beside it.
    """
    report = _memchild_run({"seed": 23, **workload})
    at_rest = report["intern_table_size"]
    return [
        _row(
            {
                "epochs": workload["epochs"],
                "reachable nodes": report["reachable_nodes"],
                "freed nodes": report["freed_nodes"],
                "peak rss": report["peak_rss_bytes"],
            },
            work=(at_rest + report["freed_nodes"], at_rest),
            seconds=(report["elapsed_s"], report["elapsed_s"]),
            consistent=report["live_nodes"] == report["reachable_nodes"],
        )
    ]
