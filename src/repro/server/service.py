"""The concurrent provenance service: one writer, snapshot-isolated readers.

A :class:`ProvenanceService` wraps exactly one backend engine — a plain
:class:`~repro.engine.engine.Engine` or a durable
:class:`~repro.wal.engine.JournaledEngine` — behind an **admission
queue**.  All engine access is confined to a single writer running on a
dedicated one-thread executor:

* ``apply`` requests are admitted in arrival order; each writer cycle
  pops every pending request (up to ``admission_max``) and **fuses
  contiguous apply admissions into one** :meth:`Engine.apply_batch` call.
  ``apply_batch`` is semantically identical to sequential application by
  construction, so fusion changes throughput, never results.  With
  ``admission_max=1`` the service degrades to per-call dispatch — the
  baseline ``repro figure server`` measures against.
* provenance reads never touch the engine.  They are answered from
  **versioned immutable snapshots**
  (:class:`~repro.storage.snapshot.Snapshot`: an engine capture stamped
  with its version and journal sequence) published by the writer at
  quiescent points (between admitted groups, never inside one).  A
  reader that finds the published snapshot stale enqueues one coalesced
  ``capture`` admission and awaits it; any number of readers then share
  the same immutable capture, so readers never block the writer and
  never observe a half-applied batch.

The engine, the expression intern table and the rewrite memos are only
ever *written* by the writer thread; snapshots cross to reader tasks as
frozen objects.  (Client-side decoding may intern concurrently — interning
is atomic, see ``repro.core.expr._intern``.)
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

from ..core.expr import intern_table_size
from ..db.database import Database
from ..engine.engine import Engine
from ..errors import EngineError, ServerError
from ..queries.pattern import Pattern
from ..queries.updates import Transaction, UpdateQuery
from ..shard.codec import capture_engine
from ..storage.snapshot import Snapshot
from ..views import StandingView, ViewRegistry
from ..wal.checkpoint import DEFAULT_EVERY_RECORDS, CheckpointManager
from ..wal.engine import JournaledEngine

__all__ = ["ProvenanceService", "ServerConfig", "build_engine"]


@dataclass
class ServerConfig:
    """Deployment shape of one provenance service."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral (the bound port is reported back)
    #: ``plain`` (in-memory Engine) or ``journaled`` (WAL + checkpoints
    #: in ``directory``).
    backend: str = "plain"
    policy: str = "normal_form_batch"
    directory: str | None = None
    sync: str = "flush"
    checkpoint_every: int = DEFAULT_EVERY_RECORDS
    #: Most apply admissions fused into one writer cycle; 1 = per-call
    #: dispatch (each request pays its own executor handoff).
    admission_max: int = 256
    #: Most frames a subscribed connection may have queued for it before
    #: the server drops its subscriptions (slow-consumer policy: the
    #: client is told it lagged and must re-subscribe; see
    #: ``docs/OPERATIONS.md``).
    push_backlog: int = 1024


@dataclass
class ServiceCounters:
    """Admission accounting (server-side half of the ``stats`` op)."""

    admitted: int = 0  #: apply requests admitted and applied
    writer_cycles: int = 0  #: executor handoffs the writer paid
    fused_runs: int = 0  #: cycles that fused >= 2 apply admissions
    max_admitted: int = 0  #: largest fusion achieved by one cycle
    captures: int = 0  #: snapshots captured and published
    apply_errors: int = 0


def build_engine(database: Database | None, config: ServerConfig):
    """Construct (or recover) the backend engine a config describes.

    An existing durable directory wins over ``database``: ``journaled``
    resumes via :func:`repro.wal.recovery.recover` when ``directory``
    already holds a checkpoint — so restarting ``repro serve DIR`` after
    a crash is itself the recovery procedure.  ``plain`` keeps nothing on
    disk, so a ``directory`` given with it is refused rather than ignored.
    """
    if config.backend == "plain":
        if config.directory is not None:
            raise ServerError(
                f"backend 'plain' keeps no durable directory (got "
                f"{config.directory}); use backend 'journaled' to serve it"
            )
        if database is None:
            raise ServerError("backend 'plain' needs an initial database")
        return Engine(database, policy=config.policy)
    if config.backend == "journaled":
        if config.directory is None:
            raise ServerError("backend 'journaled' needs a durable directory")
        if CheckpointManager(config.directory).has_checkpoint():
            from ..wal.recovery import recover

            return recover(
                config.directory,
                sync=config.sync,
                checkpoint_every=config.checkpoint_every,
            )
        if database is None:
            raise ServerError(
                f"{config.directory} holds no checkpoint; a fresh journaled "
                "server needs an initial database"
            )
        return JournaledEngine(
            database,
            config.directory,
            policy=config.policy,
            sync=config.sync,
            checkpoint_every=config.checkpoint_every,
        )
    raise ServerError(
        f"unknown backend {config.backend!r} (known: plain, journaled)"
    )


@dataclass
class _Admission:
    """One queue entry awaiting the writer.

    Every entry is a callable the writer runs at a quiescent point, bar
    the two kinds the writer itself must recognise: ``apply``, the only
    fusable entry (contiguous ones become one engine call), and
    ``close``, the barrier that stops the writer.
    """

    kind: str  #: run | apply | close
    future: asyncio.Future
    operation: Callable[[], object] | None = None
    items: list = field(default_factory=list)
    batch: bool = False
    n_queries: int = 0
    checkpoint: bool = True


class ProvenanceService:
    """The single-writer service core (transport-free; see ``server.py``)."""

    def __init__(self, engine, config: ServerConfig | None = None):
        self.engine = engine
        self.config = config or ServerConfig()
        if self.config.admission_max < 1:
            raise ServerError("admission_max must be >= 1")
        self.counters = ServiceCounters()
        #: ``primary`` serves writes; ``follower`` rejects them — its
        #: replication node folds shipped journal frames in through
        #: :meth:`fold_shipped` admissions instead (see :meth:`follow`).
        self.role = "primary"
        #: Follower-only hooks installed by the node: ``promoter()`` runs
        #: the whole promotion (stop the stream, then flip the role on the
        #: writer); ``replication()`` reports stream health for stats.
        self.promoter = None
        self.replication = None
        self.schema = engine.schema
        self._queue: asyncio.Queue[_Admission] = asyncio.Queue()
        self._version = 0
        self._snapshot: Snapshot | None = None
        #: Standing views, maintained by the writer from drained deltas.
        self.views = ViewRegistry()
        #: rows left in the engine's change sets after the last drain.
        self._pending_changes = 0
        #: Server push hook: called on the *writer thread* after every
        #: delta flush with ``(batch, {view_id: [matched deltas]})``.  The
        #: transport bridges this to its event loop (see ``server.py``).
        self.on_deltas = None
        self._pending_capture: asyncio.Future | None = None
        self._closing = False
        self._closed = False
        # ONE worker thread: every engine/intern-table write happens here.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-writer"
        )
        self._writer_task: asyncio.Task | None = None

    # -- lifecycle -------------------------------------------------------------

    def follow(self) -> None:
        """Serve as a read-only follower (call before :meth:`start`).

        A follower's version *is* the journal sequence its follower-mode
        engine has applied; :meth:`fold_shipped` advances it and
        :meth:`leave_follower` ends the mode.
        """
        self.role = "follower"
        self._version = self.engine.last_seq

    def start(self) -> None:
        """Start the writer task on the running event loop."""
        if self._writer_task is None:
            self._writer_task = asyncio.get_running_loop().create_task(self._writer())

    async def close(self, checkpoint: bool = True) -> None:
        """Drain the queue, flush/checkpoint the backend, stop the writer.

        Every admission enqueued before the close barrier is still served;
        later ones are rejected with :class:`ServerError`.  ``checkpoint``
        is the engine contract's ``close(checkpoint=...)`` — pass ``False``
        to leave journal tails for recovery (a simulated crash).
        """
        if self._closed:
            return
        if self._closing:
            if self._writer_task is not None:
                await asyncio.shield(self._writer_task)
            return
        self._closing = True
        loop = asyncio.get_running_loop()
        try:
            if self._writer_task is not None and self._writer_task.done():
                # The writer died on an internal error; a queued close
                # barrier would never be served, so close the engine
                # directly (still on the dedicated worker thread).
                await loop.run_in_executor(
                    self._executor, self.engine.close, checkpoint
                )
                return
            future = loop.create_future()
            self._queue.put_nowait(_Admission("close", future, checkpoint=checkpoint))
            try:
                await future
            finally:
                if self._writer_task is not None:
                    await self._writer_task
        finally:
            self._closed = True
            self._executor.shutdown(wait=True)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def version(self) -> int:
        """Apply admissions folded into the engine so far."""
        return self._version

    # -- admission (reader/connection side) ------------------------------------

    def _check_open(self) -> None:
        if self._closing or self._closed:
            raise ServerError("provenance service is shut down")
        if self._writer_task is None:
            raise ServerError("provenance service is not started")
        if self._writer_task.done():
            raise ServerError("provenance service writer failed; restart the server")

    def _admit(self, operation=None, kind: str = "run", **fields) -> asyncio.Future:
        """Enqueue one admission; the future resolves to its outcome.

        ``operation`` runs on the writer thread between admitted groups —
        the quiescent point every engine-contract call requires.
        """
        self._check_open()
        future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait(_Admission(kind, future, operation, **fields))
        return future

    async def apply(self, items: Iterable[UpdateQuery | Transaction], batch: bool = False) -> dict:
        """Admit a decoded item sequence; resolves once applied."""
        self._check_open()
        if self.role == "follower":
            raise ServerError(
                "this server is a read-only follower; route writes to the "
                "primary (or promote this follower first)"
            )
        items = list(items)
        n_queries = sum(
            len(item) if isinstance(item, Transaction) else 1 for item in items
        )
        return await self._admit(
            kind="apply", items=items, batch=batch, n_queries=n_queries
        )

    async def snapshot(self) -> Snapshot:
        """The newest published snapshot, capturing one if stale.

        Concurrent stale readers coalesce onto a single capture
        admission; the writer serves it at the next quiescent point.
        """
        snap = self._snapshot
        if snap is not None and snap.version == self._version:
            return snap
        pending = self._pending_capture
        if pending is None or pending.done():
            pending = self._pending_capture = self._admit(self._capture)
        # shield: one cancelled reader must not cancel the shared capture.
        return await asyncio.shield(pending)

    def memory_stats(self) -> dict:
        """The ``memory`` block of the ``stats`` op."""
        from ..memory import current_rss_bytes, peak_rss_bytes

        return {
            "rss_bytes": current_rss_bytes(),
            "peak_rss_bytes": peak_rss_bytes(),
            "intern_table_size": intern_table_size(),
            "pending_changes": self._pending_changes,
        }

    async def stats(self) -> dict:
        """Engine counters observed at a quiescent point, plus admission counters."""
        engine_stats = await self._admit(lambda: self.engine.stats.snapshot())
        return {
            "engine": engine_stats,
            "server": {
                **asdict(self.counters),
                "version": self._version,
                "backend": self.config.backend,
                "policy": self.engine.policy,
                "admission_max": self.config.admission_max,
                "role": self.role,
            },
            "memory": self.memory_stats(),
            **(
                {"replication": self.replication()}
                if self.replication is not None
                else {}
            ),
        }

    async def checkpoint(self) -> int:
        """Force a durability checkpoint; returns checkpoints written."""
        return await self._admit(self.engine.checkpoint)

    async def fold_shipped(self, fold) -> int:
        """Follower: run ``fold()`` — it hands one shipped batch to the
        engine and returns the frames applied — at a quiescent point, then
        stand at the sequence reached.  Readers see whole shipped batches.
        """

        def operation() -> int:
            applied = fold()
            self._version = self.engine.last_seq
            self.counters.admitted += applied
            return applied

        return await self._admit(operation)

    async def leave_follower(self, promote) -> dict:
        """Run ``promote()`` (the engine returns to writing) and flip the
        role in one admission, so the change is atomic with respect to every
        other: applies admitted before it were rejected as read-only,
        applies after it journal normally, continuing the shipped sequence.
        """

        def operation() -> dict:
            promote()
            self.role = "primary"
            return {"role": "primary", "seq": self.engine.last_seq}

        return await self._admit(operation)

    async def subscribe(
        self, relation: str, pattern: Pattern
    ) -> tuple[StandingView, dict, int]:
        """Register a standing view; resolves to ``(view, seed, version)``.

        Served by the writer at a quiescent point: registration happens
        between admitted groups, so the seed is a consistent slice at a
        definite version and no delta is ever missed or double-counted.
        ``seed`` is a *detached copy* of the seeded answer set — the live
        ``view.rows`` belongs to the writer thread and keeps advancing, so
        transports must encode the copy, never the view.
        """
        relation = str(relation)
        return await self._admit(lambda: self._register_view(relation, pattern))

    async def unsubscribe(self, view_id: int) -> bool:
        """Drop a standing view; resolves to whether it existed."""
        view_id = int(view_id)
        return await self._admit(lambda: self.views.unregister(view_id))

    # -- the writer ------------------------------------------------------------

    async def _writer(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            entry = await self._queue.get()
            batch = [entry]
            while len(batch) < self.config.admission_max:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                outcomes, stop = await loop.run_in_executor(
                    self._executor, self._process, batch
                )
            except BaseException as exc:  # noqa: BLE001 - writer must not die silently
                for item in batch:
                    if not item.future.done():
                        item.future.set_exception(
                            ServerError(f"writer failed: {exc}")
                        )
                raise
            for future, outcome in outcomes:
                if future.done():
                    continue
                if isinstance(outcome, BaseException):
                    future.set_exception(outcome)
                else:
                    future.set_result(outcome)
            if stop:
                return

    def _process(self, batch: list[_Admission]) -> tuple[list, bool]:
        """Run one writer cycle on the worker thread.  Single engine toucher."""
        outcomes: list[tuple[asyncio.Future, object]] = []
        self.counters.writer_cycles += 1
        index = 0
        while index < len(batch):
            entry = batch[index]
            if entry.kind == "apply":
                group = [entry]
                while (
                    index + len(group) < len(batch)
                    and batch[index + len(group)].kind == "apply"
                ):
                    group.append(batch[index + len(group)])
                index += len(group)
                self._apply_group(group, outcomes)
            elif entry.kind == "close":
                # Anything admitted after the close barrier is rejected.
                for late in batch[index + 1 :]:
                    outcomes.append(
                        (late.future, ServerError("provenance service is shut down"))
                    )
                try:
                    self.engine.close(checkpoint=entry.checkpoint)
                except Exception as exc:  # noqa: BLE001 - shipped to the closer
                    outcomes.append((entry.future, ServerError(f"close failed: {exc}")))
                else:
                    outcomes.append((entry.future, True))
                return outcomes, True
            else:
                index += 1
                try:
                    outcome = entry.operation()
                except Exception as exc:  # noqa: BLE001 - shipped to the one requester
                    # An exception escaping here would kill the writer and
                    # deadlock every later admission (including close).
                    outcome = exc
                outcomes.append((entry.future, outcome))
        # End of cycle on the writer thread — the same quiescent point that
        # publishes snapshots: drain the engine's change sets, advance the
        # standing views, and hand matched deltas to the push transport.
        self._drain_changes()
        return outcomes, False

    def _apply_group(self, group: list[_Admission], outcomes: list) -> None:
        """Apply one fused run of contiguous apply admissions."""
        items = [item for entry in group for item in entry.items]
        try:
            if len(group) > 1 or group[0].batch:
                # Fusion is always legal: apply_batch is semantically
                # identical to sequential apply, whatever each request asked.
                self.engine.apply_batch(items)
            else:
                self.engine.apply(items)
        except Exception as exc:  # noqa: BLE001 - shipped to every admitted client
            # The engine holds the applied prefix of the fused run (exactly
            # the in-process apply_batch contract); the whole group shares
            # the failure because per-request attribution does not exist
            # inside one fused call.
            self._version += len(group)
            self.counters.apply_errors += len(group)
            error = ServerError(
                f"apply failed mid-group ({len(group)} fused requests; the "
                f"applied prefix persists): {exc}"
            )
            for entry in group:
                outcomes.append((entry.future, error))
            return
        self._version += len(group)
        self.counters.admitted += len(group)
        if len(group) > 1:
            self.counters.fused_runs += 1
        self.counters.max_admitted = max(self.counters.max_admitted, len(group))
        outcome = {"applied": 0, "version": self._version}
        seq = self.engine.last_seq
        if seq is not None:
            # The durable sequence this group reached: what a replication
            # client compares follower versions against (staleness bound).
            outcome["seq"] = seq
        for entry in group:
            outcomes.append(
                (entry.future, {**outcome, "applied": entry.n_queries})
            )

    # -- live views (writer thread only) ---------------------------------------

    def _register_view(
        self, relation: str, pattern: Pattern
    ) -> tuple[StandingView, dict, int]:
        """Attach the engine's deltas, then register + seed a view."""
        if relation not in self.schema.names:
            raise ServerError(f"unknown relation {relation!r}")
        try:
            self.engine.attach_deltas()
        except EngineError as exc:
            raise ServerError(f"this backend cannot maintain live views: {exc}") from exc
        view = self.views.register(relation, pattern)
        # Planner-backed and flushed first: exactly what a capture at this
        # version would show for the slice, in O(matched).
        view.rows = self.engine.match_rows(relation, pattern)
        view.version = self._version
        return view, view.state(), view.version

    def _drain_changes(self) -> None:
        """Drain the change sets into a version-stamped batch and fan out."""
        batch = self.engine.drain_deltas(self._version)
        self._pending_changes = self.engine.pending_changes()
        if not batch:
            return
        per_view = self.views.apply(batch)
        callback = self.on_deltas
        if callback is not None:
            callback(batch, per_view)

    def _capture(self) -> Snapshot:
        """Capture and publish a snapshot (writer thread, quiescent point)."""
        snapshot = Snapshot(
            version=self._version,
            seq=self.engine.last_seq,
            relations=capture_engine(self.engine),
        )
        self._snapshot = snapshot
        self.counters.captures += 1
        return snapshot
