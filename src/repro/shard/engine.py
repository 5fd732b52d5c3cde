"""The sharded engine: N independent shard engines behind one surface.

:class:`ShardedEngine` hash-partitions every relation across ``n_shards``
independent shard :class:`~repro.engine.engine.Engine`\\ s — each with its
own :class:`~repro.store.annotation_store.AnnotationStore`, and its own
write-ahead directory when the deployment is durable — and routes every
update through :func:`repro.shard.router.route_query`: an indexable
equality on the shard-key position visits exactly one shard, anything
else broadcasts.  Because shards hold disjoint row sets and receive
their queries in global order, the merged final state and provenance are
bit-identical to the unsharded engine (asserted across policies in
``tests/shard``).

Transaction ends are routed too: only the shards a transaction's queries
touched flush (``normal_form_batch``) and journal the boundary.  That is
semantically lossless — an untouched shard's annotations are exactly as
normalized as they were at its previous boundary, and normalization is a
pure, idempotent function of the stored expression, so the next
observation flush lands on identical normal forms — and it is where
sequential sharding pays even on one core: the unsharded flush walks the
*whole* support at every transaction end, the sharded flush only the
touched shard's fraction.

Two executor backends sit behind the coordinator:

* the **same-process sequential backend** (``parallel=False``, the
  reference): shard engines are ordinary in-process objects, applied in
  shard order; supports every value type the unsharded engine does;
* the **process-pool backend** (``parallel=True``): one worker process
  per shard (:mod:`repro.shard.worker`), updates shipped as the journal's
  replay vocabulary and state returned as re-interned ``exprjson``
  captures (:mod:`repro.shard.codec`).  Routed runs accumulate in
  per-shard buffers and drain to all touched workers at once, so shards
  chew their runs concurrently; the codec restricts constants to the
  JSON scalars update logs serialize anyway.

Merged statistics: the coordinator owns the *logical* stream counters
(``queries``, per-kind counts, ``transactions``, ``wall_time``,
``per_query_time``) — a broadcast counts once — while additive work
counters (``rows_matched``, ``rows_created``, planner counters, batch
counters, ``checkpoint_time``) are summed over the shards' own stats, so
a broadcast honestly reports the matching work of every shard it
visited.  Per-shard planner counters are summed, never copied.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from ..core.expr import Expr, ZERO, dag_size
from ..db.database import Database
from ..engine.engine import Engine
from ..engine.stats import EngineStats
from ..errors import EngineError
from ..queries.updates import Transaction, UpdateQuery
from ..wal.checkpoint import DEFAULT_EVERY_RECORDS
from ..wal.engine import JournaledEngine
from .codec import Capture, capture_engine, exprs_of
from .partition import ShardMap, partition_database
from .router import route_query

__all__ = ["ShardedEngine", "SHARDABLE_POLICIES", "MANIFEST_FILE", "shard_directory"]

#: Policies a ShardedEngine accepts: everything sitting on the shared
#: annotation store.  The MV baselines keep executor-private version
#: state with no defined cross-process capture, so they stay unsharded.
SHARDABLE_POLICIES = (
    "none",
    "no_provenance",
    "naive",
    "no_axioms",
    "normal_form",
    "normal_form_batch",
)

MANIFEST_FILE = "shards.json"


def shard_directory(base: str | Path, shard: int) -> Path:
    """The per-shard durable directory inside a sharded deployment."""
    return Path(base) / f"shard-{shard:02d}"


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class _LocalShards:
    """Same-process sequential backend: the reference implementation."""

    parallel = False

    def __init__(self, engines: list[Engine]):
        self.engines = engines

    def apply_item(self, shard: int, item, batch: bool = False) -> None:
        engine = self.engines[shard]
        if batch:
            engine.apply_batch(item)
        else:
            engine.apply(item)

    def drain(self) -> None:
        """No buffering: every apply already ran."""

    def captures(self) -> list[Capture]:
        return [capture_engine(engine) for engine in self.engines]

    def stats_snapshots(self) -> list[dict]:
        return [engine.stats.snapshot() for engine in self.engines]

    def annotation_of(self, shard: int, relation: str, row: tuple) -> Expr:
        return self.engines[shard].annotation_of(relation, row)

    def checkpoint(self) -> int:
        return sum(engine.checkpoint() for engine in self.engines)

    def close(self, checkpoint: bool = True) -> None:
        for engine in self.engines:
            engine.close(checkpoint=checkpoint)


class _ProcessShards:
    """Process-pool backend: one worker per shard, driven over pipes.

    Updates buffer per shard and drain to every touched worker in one
    round — all sends first, then all receives — so the workers apply
    their runs concurrently while the coordinator waits once.
    """

    parallel = True

    #: Buffered events across all shards that force a drain.  Large enough
    #: to amortize a pipe round-trip over many queries, small enough to
    #: keep workers busy during long ingest phases.
    FLUSH_EVENTS = 1024

    def __init__(self, payloads: list[dict]):
        import multiprocessing

        from .worker import shard_worker_main

        method = (
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        context = multiprocessing.get_context(method)
        self._connections = []
        self._processes = []
        self._closed = False
        self._broken = False
        for payload in payloads:
            parent, child = context.Pipe()
            # A forked worker inherits every coordinator end opened so far,
            # its own included; it closes them so that closing the
            # coordinator's end is an EOF the worker actually sees.
            inherited = [*self._connections, parent] if method == "fork" else []
            process = context.Process(
                target=shard_worker_main, args=(child, payload, inherited), daemon=True
            )
            process.start()
            child.close()
            self._connections.append(parent)
            self._processes.append(process)
        self._pending: list[list] = [[] for _ in payloads]
        self._batch = False
        self._stats: list[dict] = [{} for _ in payloads]
        self.recoveries: list[dict | None] = []
        self.tuple_vars: list[list] = []
        try:
            for shard in range(len(payloads)):
                body = self._receive(shard)
                self._stats[shard] = body["stats"]
                self.recoveries.append(body.get("recovery"))
                self.tuple_vars.append(body.get("tuple_vars", []))
        except Exception:
            self._abort()
            raise

    # -- protocol plumbing ----------------------------------------------------

    def _receive(self, shard: int) -> dict:
        try:
            status, body = self._connections[shard].recv()
        except (EOFError, OSError) as exc:
            self._broken = True
            raise EngineError(f"shard worker {shard} died: {exc}") from exc
        if status != "ok":
            self._broken = True
            detail = body.get("traceback") or body.get("message")
            raise EngineError(f"shard worker {shard} failed: {detail}")
        return body

    def _round(self, shards: list[int], command: str, body) -> list[dict]:
        """Send one command to ``shards``, then collect every response."""
        if self._broken or self._closed:
            raise EngineError("shard worker pool is closed or failed")
        for shard in shards:
            self._connections[shard].send((command, body))
        return [self._receive(shard) for shard in shards]

    # -- backend interface ----------------------------------------------------

    def apply_item(self, shard: int, item, batch: bool = False) -> None:
        from .codec import items_to_events

        if batch is not self._batch and any(self._pending):
            self.drain()
        self._batch = batch
        items = item if isinstance(item, list) else [item]
        self._pending[shard].extend(items_to_events(items))
        if sum(len(events) for events in self._pending) >= self.FLUSH_EVENTS:
            self.drain()

    def drain(self) -> None:
        targets = [shard for shard, events in enumerate(self._pending) if events]
        if not targets:
            return
        if self._broken or self._closed:
            raise EngineError("shard worker pool is closed or failed")
        for shard in targets:
            self._connections[shard].send(
                ("apply", {"events": self._pending[shard], "batch": self._batch})
            )
            self._pending[shard] = []
        for shard in targets:
            self._stats[shard] = self._receive(shard)["stats"]

    def captures(self) -> list[Capture]:
        from .codec import decode_capture

        self.drain()
        out = []
        for shard, body in enumerate(
            self._round(list(range(len(self._connections))), "capture", None)
        ):
            self._stats[shard] = body["stats"]
            out.append(decode_capture(body["state"]))
        return out

    def stats_snapshots(self) -> list[dict]:
        self.drain()
        return [dict(snapshot) for snapshot in self._stats]

    def checkpoint(self) -> int:
        self.drain()
        written = 0
        for shard, body in enumerate(
            self._round(list(range(len(self._connections))), "checkpoint", None)
        ):
            self._stats[shard] = body["stats"]
            written += int(body["written"])
        return written

    def close(self, checkpoint: bool = True) -> None:
        if self._closed:
            return
        try:
            if not self._broken:
                self.drain()
                for shard, body in enumerate(
                    self._round(
                        list(range(len(self._connections))),
                        "close",
                        {"checkpoint": checkpoint},
                    )
                ):
                    self._stats[shard] = body["stats"]
        finally:
            self._closed = True
            self._abort()

    def _abort(self) -> None:
        for connection in self._connections:
            connection.close()
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------


class ShardedEngine:
    """Applies hyperplane updates across hash-partitioned shard engines.

    Presents the :class:`~repro.engine.engine.Engine` surface — apply /
    apply_batch, result / provenance / specialization, measurements,
    merged ``stats`` — over ``n_shards`` independent shard engines.  See
    the module docstring for routing, backends and the merged-statistics
    contract, and :func:`repro.shard.recovery.recover_sharded` for
    resuming a durable deployment.
    """

    def __init__(
        self,
        database: Database,
        n_shards: int = 4,
        policy: str = "normal_form",
        annotate: Callable[[str, tuple, int], str] | None = None,
        shard_keys: Mapping[str, int | str] | None = None,
        parallel: bool = False,
        journal_dir: str | Path | None = None,
        sync: str = "flush",
        checkpoint_every: int = DEFAULT_EVERY_RECORDS,
        clock: Callable[[], float] = time.perf_counter,
        _resume=None,
    ):
        if policy not in SHARDABLE_POLICIES:
            raise EngineError(
                f"policy {policy!r} cannot be sharded "
                f"(shardable: {', '.join(SHARDABLE_POLICIES)})"
            )
        self.policy = policy
        self._clock = clock
        # Logical coordinator counters restart on recovery; the additive
        # per-shard counters (matching work, planner decisions) continue
        # from their restored baselines and are what ``stats`` sums.
        self._stats = EngineStats()
        self._capture_cache: Capture | None = None
        if _resume is not None:
            # Already-recovered shards (see shard.recovery.recover_sharded).
            self.shard_map, self._backend, self._tuple_vars, self.recovery = _resume
            self.schema = self.shard_map.schema
            self.journaled = True
        else:
            self.schema = database.schema
            self.shard_map = ShardMap(database.schema, n_shards, shard_keys)
            self.journaled = journal_dir is not None
            self.recovery = None
            self._tuple_vars = self._assign_tuple_vars(database, annotate)
            parts = partition_database(database, self.shard_map)
            if journal_dir is not None:
                Path(journal_dir).mkdir(parents=True, exist_ok=True)
            self._backend = self._build_backend(
                parts, journal_dir, sync, checkpoint_every, parallel
            )
            if journal_dir is not None:
                # Written only after every shard directory initialized cleanly.
                write_manifest(
                    journal_dir,
                    self.shard_map,
                    policy=policy,
                    sync=sync,
                    checkpoint_every=checkpoint_every,
                )
        self.parallel = self._backend.parallel

    # -- construction helpers -------------------------------------------------

    def _assign_tuple_vars(
        self, database: Database, annotate
    ) -> dict[str, dict[tuple, str]]:
        """Pre-assign initial-tuple annotation names, coordinator-side.

        Mirrors :class:`~repro.engine.executors.AnnotatedExecutor` exactly
        — one global counter over relations in schema order, rows sorted
        by ``repr`` — so shard engines, each seeing only its partition,
        still assign the very names the unsharded engine would.
        """
        if not self.tracks_provenance:
            return {}
        namer = annotate or (lambda relation, row, i: f"x{i}")
        names: dict[str, dict[tuple, str]] = {}
        counter = 0
        for name in database.relations():
            per_relation: dict[tuple, str] = {}
            for row in sorted(database.rows(name), key=repr):
                counter += 1
                per_relation[row] = namer(name, row, counter)
            names[name] = per_relation
        return names

    def _build_backend(self, parts, journal_dir, sync, checkpoint_every, parallel):
        names = self._tuple_vars
        if not parallel:
            shard_annotate = (
                (lambda relation, row, _i: names[relation][row]) if names else None
            )
            engines: list[Engine] = []
            for shard, part in enumerate(parts):
                if journal_dir is not None:
                    engines.append(
                        JournaledEngine(
                            part,
                            shard_directory(journal_dir, shard),
                            policy=self.policy,
                            annotate=shard_annotate,
                            sync=sync,
                            checkpoint_every=checkpoint_every,
                            clock=self._clock,
                        )
                    )
                else:
                    engines.append(
                        Engine(
                            part,
                            policy=self.policy,
                            annotate=shard_annotate,
                            clock=self._clock,
                        )
                    )
            return _LocalShards(engines)
        payloads = []
        for shard, part in enumerate(parts):
            payload: dict[str, object] = {
                "policy": self.policy,
                "schema": {r.name: list(r.attributes) for r in self.schema},
                "rows": {name: sorted(part.rows(name), key=repr) for name in part.relations()},
                "names": [
                    [relation, row, names[relation][row]]
                    for relation in names
                    for row in part.rows(relation)
                ],
            }
            if journal_dir is not None:
                payload["journal"] = {
                    "directory": str(shard_directory(journal_dir, shard)),
                    "sync": sync,
                    "checkpoint_every": checkpoint_every,
                }
            payloads.append(payload)
        return _ProcessShards(payloads)

    # -- applying updates -----------------------------------------------------

    def apply(self, item: UpdateQuery | Transaction | Iterable) -> "ShardedEngine":
        """Route and apply a query, a transaction, or any iterable of those."""
        if isinstance(item, UpdateQuery):
            self._apply_query(item, batch=False)
        elif isinstance(item, Transaction):
            self._apply_transaction(item, batch=False)
        elif isinstance(item, Iterable) and not isinstance(item, (str, bytes)):
            for element in item:
                self.apply(element)
        else:
            raise EngineError(f"cannot apply {type(item).__name__}")
        return self

    def apply_batch(self, item: UpdateQuery | Transaction | Iterable) -> "ShardedEngine":
        """Route through the shards' batched pipelines.

        Maximal segments of top-level queries accumulate into per-shard
        runs shipped through each shard engine's
        :meth:`~repro.engine.engine.Engine.apply_batch` (which fuses
        same-relation runs internally); transactions flush the pending
        segment first, exactly as runs never straddle transaction
        boundaries in the unsharded pipeline.
        """
        buckets: dict[int, list[UpdateQuery]] = {}
        kinds: list[str] = []

        def flush_segment() -> None:
            if not buckets:
                return
            start = self._clock()
            for shard in sorted(buckets):
                self._backend.apply_item(shard, buckets[shard], batch=True)
            self._record(kinds, self._clock() - start)
            buckets.clear()
            kinds.clear()

        def feed(item) -> None:
            if isinstance(item, UpdateQuery):
                for shard in route_query(item, self.shard_map):
                    buckets.setdefault(shard, []).append(item)
                kinds.append(item.kind)
            elif isinstance(item, Transaction):
                flush_segment()
                self._apply_transaction(item, batch=True)
            elif isinstance(item, Iterable) and not isinstance(item, (str, bytes)):
                for element in item:
                    feed(element)
            else:
                raise EngineError(f"cannot apply {type(item).__name__}")

        feed(item)
        flush_segment()
        self._capture_cache = None
        return self

    def _apply_query(self, query: UpdateQuery, batch: bool) -> None:
        shards = route_query(query, self.shard_map)
        start = self._clock()
        for shard in shards:
            self._backend.apply_item(shard, query, batch=batch)
        self._record([query.kind], self._clock() - start)
        self._capture_cache = None

    def _apply_transaction(self, txn: Transaction, batch: bool) -> None:
        buckets: dict[int, list[UpdateQuery]] = {}
        for query in txn:
            for shard in route_query(query, self.shard_map):
                buckets.setdefault(shard, []).append(query)
        start = self._clock()
        # Transaction ends route with their queries: only touched shards
        # flush and journal the boundary (see module docstring).
        for shard in sorted(buckets):
            self._backend.apply_item(
                shard, Transaction(txn.name, buckets[shard]), batch=batch
            )
        self._record([query.kind for query in txn], self._clock() - start)
        self._stats.transactions += 1
        self._capture_cache = None

    def _record(self, kinds: list[str], elapsed: float) -> None:
        """Logical per-query accounting; row counts live in shard stats."""
        if not kinds:
            return
        share = elapsed / len(kinds)
        for kind in kinds:
            self._stats.record(kind, 0, 0, share)

    # -- merged observation ---------------------------------------------------

    def _merged(self) -> Capture:
        """The row-keyed union of every shard's captured state (cached)."""
        if self._capture_cache is None:
            self._backend.drain()
            merged: Capture = {name: {} for name in self.schema.names}
            for capture in self._backend.captures():
                for name, rows in capture.items():
                    merged[name].update(rows)
            self._capture_cache = merged
        return self._capture_cache

    def _relation_state(self, relation: str) -> dict[tuple, tuple[Expr | None, bool]]:
        merged = self._merged()
        if relation not in merged:
            raise EngineError(f"unknown relation {relation!r}")
        return merged[relation]

    def capture(self) -> Capture:
        """A detached ``{relation: {row: (expression, live)}}`` capture.

        The merged analogue of :meth:`Engine.capture` — always
        expression-valued (``None`` for the vanilla policy),
        whatever the shard executors store internally.
        """
        return {name: dict(rows) for name, rows in self._merged().items()}

    def result(self) -> Database:
        """The live contents under standard set semantics."""
        db = Database(self.schema)
        for name, rows in self._merged().items():
            db.extend(name, (row for row, (_expr, live) in rows.items() if live))
        return db

    def live_rows(self, relation: str) -> set[tuple[object, ...]]:
        return {
            row
            for row, (_expr, live) in self._relation_state(relation).items()
            if live
        }

    def provenance(self, relation: str) -> Iterator[tuple[tuple, Expr, bool]]:
        """``(row, provenance expression, live)`` for every stored row.

        Rows come shard by shard (ascending shard, insertion order within
        each); the unsharded engine's global insertion order is not
        preserved across shards.
        """
        for row, (expr, live) in self._relation_state(relation).items():
            yield row, (ZERO if expr is None else expr), live

    def annotation_of(self, relation: str, row: Iterable[object]) -> Expr:
        """The provenance expression of one row (0 if never stored).

        On the sequential backend this is the home shard's O(1) row-keyed
        probe.  On the process pool a probe costs a capture round-trip,
        so it goes through the merged capture instead — one full capture,
        cached until the next update, so per-row probe loops pay O(total)
        once rather than O(shard) per probe.
        """
        target = tuple(row)
        shard = self.shard_map.shard_of_row(relation, target)
        if self._backend.parallel:
            entry = self._relation_state(relation).get(target)
            return ZERO if entry is None or entry[0] is None else entry[0]
        return self._backend.annotation_of(shard, relation, target)

    # -- measurements ---------------------------------------------------------

    def support_count(self) -> int:
        return sum(len(rows) for rows in self._merged().values())

    def live_count(self) -> int:
        return sum(
            1
            for rows in self._merged().values()
            for (_expr, live) in rows.values()
            if live
        )

    def provenance_size(self) -> int:
        return sum(expr.size() for expr in exprs_of(self._merged().values()))

    def provenance_dag_size(self) -> int:
        """Distinct expression nodes across the *merged* provenance.

        One shared visited set across every shard's rows, so a node two
        shards both reference (they are identical objects, re-interned at
        the coordinator) counts once — exactly the unsharded metric, not
        a sum of per-shard DAG sizes.
        """
        return dag_size(exprs_of(self._merged().values()))

    @property
    def stats(self) -> EngineStats:
        """Merged statistics (see the module docstring for the contract)."""
        merged = EngineStats()
        local = self._stats
        for key in ("queries", "inserts", "deletes", "modifies", "transactions"):
            setattr(merged, key, getattr(local, key))
        merged.wall_time = local.wall_time
        merged.per_query_time = list(local.per_query_time)
        snapshots = self._backend.stats_snapshots()
        for key in (
            "rows_matched",
            "rows_created",
            "batches",
            "batched_queries",
            "index_hits",
            "fallback_scans",
            "index_rows_examined",
        ):
            setattr(merged, key, sum(int(s.get(key, 0)) for s in snapshots))
        merged.batch_time = sum(float(s.get("batch_time", 0.0)) for s in snapshots)
        merged.checkpoint_time = sum(
            float(s.get("checkpoint_time", 0.0)) for s in snapshots
        )
        return merged

    def shard_stats(self) -> list[dict]:
        """Each shard engine's own counter snapshot, in shard order."""
        return self._backend.stats_snapshots()

    @property
    def tracks_provenance(self) -> bool:
        return self.policy not in ("none", "no_provenance")

    #: SHARDABLE_POLICIES leaves the MV baselines out.
    stores_expressions = True

    # One definition over the contract serves every backend.
    tuple_var = Engine.tuple_var
    tuple_var_names = Engine.tuple_var_names
    overhead_report = Engine.overhead_report
    specialize = Engine.specialize
    specialized_database = Engine.specialized_database

    # -- the quiescent-point contract (see Engine) -----------------------------

    #: Shards journal independently: there is no single durable sequence.
    last_seq = None

    def tuple_vars(self) -> dict[str, dict[tuple, str]]:
        return self._tuple_vars

    def _shard_engines(self) -> list[Engine]:
        """The in-process shard engines live views hang off.  The process
        pool keeps its executors in worker processes, out of a sink's (and
        the store planner's) reach: the one place that says so."""
        if self.parallel:
            raise EngineError(
                "delta maintenance is not supported on the process-pool shard "
                "backend (executors live in worker processes); use parallel=False"
            )
        return self._backend.engines

    def flush_pending(self) -> None:
        if not self.parallel:  # workers flush before their own captures
            for engine in self._backend.engines:
                engine.flush_pending()

    def attach_deltas(self, sink) -> None:
        """One shared sink: shards hold disjoint rows, so it sees a
        consistent merged stream."""
        for engine in self._shard_engines():
            engine.attach_deltas(sink)

    def match_rows(self, relation: str, pattern) -> dict[tuple, tuple]:
        """Shard stores hold disjoint rows, so their planner matches simply
        union."""
        rows: dict[tuple, tuple] = {}
        for engine in self._shard_engines():
            rows.update(engine.match_rows(relation, pattern))
        return rows

    def checkpoint(self) -> int:
        """Coordinated checkpoint: every journaled shard snapshots now.

        Returns the number of shards that wrote one.  Each shard also
        checkpoints on its own thresholds as records accumulate, exactly
        like a standalone :class:`~repro.wal.engine.JournaledEngine`.
        """
        if not self.journaled:
            raise EngineError("engine is not journaled; pass journal_dir=")
        self._backend.drain()
        return self._backend.checkpoint()

    def close(self, checkpoint: bool = True) -> None:
        """Flush pending work, checkpoint journaled shards, stop workers."""
        self._backend.close(checkpoint=checkpoint and self.journaled)

    __enter__ = Engine.__enter__
    __exit__ = Engine.__exit__


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


def write_manifest(
    directory: str | Path,
    shard_map: ShardMap,
    policy: str,
    sync: str,
    checkpoint_every: int,
) -> Path:
    """Persist the deployment topology next to the shard directories.

    Atomic (temp file + ``os.replace``), like every other durable write:
    a crash mid-write must not leave a torn manifest blocking recovery of
    otherwise-intact shard directories.
    """
    path = Path(directory) / MANIFEST_FILE
    payload = {
        "version": 1,
        "policy": policy,
        "sync": sync,
        "checkpoint_every": checkpoint_every,
        **shard_map.as_dict(),
    }
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return path
