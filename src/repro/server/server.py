"""The asyncio TCP transport of the provenance service.

:class:`ProvenanceServer` accepts connections, reads request frames, and
dispatches them against a :class:`~repro.server.service.ProvenanceService`.
Each connection is served by one task and answered strictly in order;
concurrency comes from many connections, whose ``apply`` admissions the
service's writer fuses and whose reads share published snapshots.

The event loop never touches the engine and never interns expressions:
request decoding stops at queries/patterns (plain data), and responses
encode expressions *from* immutable snapshots into the one shared node
table of :mod:`repro.storage.exprjson` (encoding creates no nodes).
``provenance`` and ``state`` replies are encoded once per published
version: the frame is cached on the snapshot
(:attr:`~repro.storage.snapshot.Snapshot.frames`) and later reads of the
same version write the cached bytes.  Every engine mutation stays on the
service's writer thread.

Live-view pushes ride the same per-connection ordered queue the
responses do: the writer's delta flush hands matched deltas to
:meth:`ProvenanceServer._bridge_deltas` (the service's ``on_deltas``
hook), which hops onto the event loop and enqueues pre-encoded
``"frame": "delta"`` payloads into each subscribed connection's pending
queue.  The single responder therefore interleaves pushed frames
*between* pipelined responses without reordering either stream.  A
subscriber whose queue exceeds ``ServerConfig.push_backlog`` is dropped
(slow-consumer policy): its subscriptions are torn down and one final
``lagged`` notice tells it to re-subscribe for a fresh seed.

:func:`serve_in_thread` runs a whole server on a background thread —
what the benchmarks, the stress tests and the example use to host a
server and its clients in one process.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Callable, Iterable

from .._version import __version__
from ..core.expr import evaluate
from ..db.database import Database
from ..errors import ReproError, ServerError
from ..queries.pattern import Pattern
from ..queries.updates import Insert, Transaction, UpdateQuery
from ..semantics.boolean import BooleanStructure
from ..shard.codec import decode_events, encode_capture, encode_tuple_vars
from ..storage.exprjson import expr_to_dict
from ..storage.snapshot import Snapshot
from ..views import DeltaBatch, encode_delta_batch
from ..workloads.logs import log_from_events, pattern_from_dict, pattern_to_dict
from .protocol import (
    FRAME_DELTA,
    PROTOCOL_REVISION,
    encode_frame,
    error_payload,
    read_frame,
)
from .service import ProvenanceService, ServerConfig, build_engine

__all__ = ["ProvenanceServer", "ServerHandle", "serve_in_thread"]


async def _const(payload: dict, closing: bool) -> tuple[dict, bool]:
    """A pre-computed dispatch result (framing errors)."""
    return payload, closing


def _cached_frame(snapshot: Snapshot, key, build: Callable[[], dict]) -> bytes:
    """The reply frame ``key`` of ``snapshot``, encoded on its first read.

    Runs on the event loop with no await inside, so two readers of one
    version cannot both miss.  A payload that cannot be framed raises
    before anything is stored, and the handler answers the error instead.
    """
    frame = snapshot.frames.get(key)
    if frame is None:
        frame = snapshot.frames[key] = encode_frame(build())
    return frame


class _Connection:
    """Per-connection transport state.

    Shared by the frame reader, the dispatch tasks and the push fanout —
    all of which run on the event loop, so no locking.  ``pending`` holds
    dispatch tasks (responses, drained in arrival order) and plain dicts
    (server-pushed frames, already encodable); ``subscriptions`` is this
    connection's live view ids.
    """

    __slots__ = ("pending", "subscriptions")

    def __init__(self, pending: "asyncio.Queue") -> None:
        self.pending = pending
        self.subscriptions: set[int] = set()


class ProvenanceServer:
    """One TCP endpoint over one :class:`ProvenanceService`."""

    def __init__(self, service: ProvenanceService, host: str | None = None, port: int | None = None):
        self.service = service
        self.host = host if host is not None else service.config.host
        self.port = port if port is not None else service.config.port
        self._server: asyncio.AbstractServer | None = None
        #: Open connections and the task serving each.
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._stopped = asyncio.Event()
        self._stopping = False
        self._stop_task: asyncio.Task | None = None
        self._shutdown_checkpoint = True
        self._loop: asyncio.AbstractEventLoop | None = None
        #: view id -> subscribed connection (event-loop state only).
        self._subscriptions: dict[int, _Connection] = {}
        #: Pushes that arrived for a view whose subscribe dispatch has not
        #: registered its connection yet (the writer resolves the subscribe
        #: admission and flushes deltas in the same cycle, and the flush
        #: callback can reach the loop before the awaiting task resumes).
        #: Drained into the connection right after its seed response.
        self._early_pushes: dict[int, list[dict]] = {}
        #: Strong refs to background unsubscribe tasks (the loop keeps
        #: only weak ones, and a GC'd task would leak registry views).
        self._cleanup_tasks: set[asyncio.Task] = set()

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind, start the writer, begin accepting connections."""
        self._loop = asyncio.get_running_loop()
        self.service.on_deltas = self._bridge_deltas
        self.service.start()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def stop(self, checkpoint: bool = True) -> None:
        """Graceful shutdown: stop accepting, drain admissions, close backend."""
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        # Quiet the push path first: the final writer drain may still
        # flush deltas, but there is no one left to deliver them to.
        self.service.on_deltas = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.service.close(checkpoint=checkpoint)
        handlers = list(self._connections.values())
        for writer in list(self._connections):
            writer.close()
        # Each handler sees its hang-up and returns; one still pending when
        # the loop ends would be cancelled mid-await and logged as an error.
        if handlers:
            await asyncio.wait(handlers)
        self._stopped.set()

    # -- connection handling ---------------------------------------------------

    #: In-flight pipelined requests one connection may hold.  Bounds the
    #: dispatch tasks (and decoded payloads) a single peer can pin in
    #: memory; deep enough that admission fusion saturates long before it.
    MAX_PIPELINE = 1024

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """Serve one connection: pipelined dispatch, strictly ordered replies.

        Each request is dispatched on its own task *as soon as its frame
        arrives*, so a client that pipelines N apply frames lands N
        admissions in the service queue back-to-back — the depth the
        writer's run fusion feeds on.  A single responder drains the
        dispatch tasks in arrival order, so replies stay positional.
        Admission order equals frame order because tasks are scheduled
        FIFO and admission is their first suspension point.
        """
        self._connections[writer] = asyncio.current_task()
        loop = asyncio.get_running_loop()
        pending: asyncio.Queue[asyncio.Task | dict | None] = asyncio.Queue()
        conn = _Connection(pending)
        in_flight = asyncio.Semaphore(self.MAX_PIPELINE)
        responder = loop.create_task(self._respond(writer, pending))
        try:
            while not responder.done():
                try:
                    request = await read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    break  # peer hung up (or stop() closed the transport)
                except ServerError as exc:
                    # Framing is broken: answer once, then hang up — the
                    # stream position can no longer be trusted.
                    await pending.put(loop.create_task(_const(error_payload(exc), False)))
                    break
                await in_flight.acquire()
                task = loop.create_task(self._dispatch(request, conn))
                task.add_done_callback(lambda _t: in_flight.release())
                await pending.put(task)
        finally:
            self._drop_subscriptions(conn, lagged=False)
            await pending.put(None)  # EOF marker for the responder
            try:
                await responder
            finally:
                self._connections.pop(writer, None)
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        pending: "asyncio.Queue[asyncio.Task | dict | None]",
    ) -> None:
        """Write responses in arrival order; returns on EOF/hang-up/shutdown."""
        while True:
            task = await pending.get()
            if task is None:
                return
            if isinstance(task, dict):
                # A server-pushed frame, already a complete payload: it
                # slots between responses, never inside one, because both
                # streams share this single ordered queue.
                response, closing = task, False
            else:
                response, closing = await task
            if isinstance(response, bytes):
                frame = response  # a read reply cached on its snapshot
            else:
                try:
                    frame = encode_frame(response)
                except ServerError as exc:
                    # A response that cannot serialize (non-JSON state
                    # values, a frame bigger than MAX_FRAME) must still
                    # answer its request — error_payload always encodes.
                    frame = encode_frame(error_payload(exc))
            try:
                writer.write(frame)
                # Flush only at pipeline gaps: with more responses already
                # waiting, the transport buffer coalesces them into fewer
                # writes (drain still fires on every gap and before close,
                # so no response is ever left unflushed).
                if pending.empty() or closing:
                    await writer.drain()
                write_failed = False
            except (ConnectionError, OSError):
                write_failed = True  # peer is gone; an accepted shutdown still runs
            if closing:
                # Reply is flushed first: the requester learns its shutdown
                # was accepted, then the server drains, flushes, checkpoints
                # and exits.  stop() closes every connection, which unblocks
                # this handler's reader.  The task reference is held on the
                # server — the loop only keeps a weak one, and a GC'd stop
                # task would skip the final checkpoint.
                self._stop_task = asyncio.get_running_loop().create_task(
                    self.stop(checkpoint=self._shutdown_checkpoint)
                )
                return
            if write_failed:
                return

    async def _dispatch(
        self, request: dict, conn: _Connection
    ) -> tuple[dict | bytes, bool]:
        """Route one request; returns ``(response, close-after-reply)``.

        A response is a payload dict, or a complete frame (``bytes``) that
        a read handler took from its snapshot's cache.
        """
        op = request.get("op")
        handler = _OPS.get(op)
        if handler is None:
            known = ", ".join(sorted(_OPS))
            return error_payload(ServerError(f"unknown op {op!r} (known: {known})")), False
        try:
            response = await handler(self, request, conn)
        except asyncio.CancelledError:
            raise
        except ReproError as exc:
            return error_payload(exc), False
        except Exception as exc:  # noqa: BLE001 - a bug must not kill the connection
            return error_payload(ServerError(f"internal error: {exc}")), False
        return response, op == "shutdown"

    # -- op handlers -----------------------------------------------------------

    async def _op_ping(self, _request: dict, _conn: _Connection) -> dict:
        return {
            "ok": True,
            "server": {
                "version": __version__,
                "protocol": PROTOCOL_REVISION,
                "policy": self.service.engine.policy,
                "backend": self.service.config.backend,
                "role": self.service.role,
                "snapshot_version": self.service.version,
                "schema": {
                    relation.name: list(relation.attributes)
                    for relation in self.service.schema
                },
            },
        }

    async def _op_apply(self, request: dict, _conn: _Connection) -> dict:
        items = self._decode_items(request.get("events"))
        result = await self.service.apply(items, batch=bool(request.get("batch")))
        return {"ok": True, **result}

    def _decode_items(self, events) -> list:
        if not isinstance(events, list):
            raise ServerError("apply needs an 'events' list")
        items = log_from_events(decode_events(events)).items
        schema = self.service.schema
        for item in items:
            queries: Iterable[UpdateQuery] = (
                item.queries if isinstance(item, Transaction) else (item,)
            )
            for query in queries:
                if query.relation not in schema:
                    raise ServerError(
                        f"unknown relation {query.relation!r} "
                        f"(schema: {', '.join(schema.names)})"
                    )
                arity = schema.relation(query.relation).arity
                got = len(query.row) if isinstance(query, Insert) else query.pattern.arity
                if got != arity:
                    raise ServerError(
                        f"arity mismatch on {query.relation!r}: query says {got}, "
                        f"schema says {arity}"
                    )
        return items

    async def _op_provenance(self, request: dict, _conn: _Connection) -> bytes:
        relation = self._known_relation(request)
        snapshot = await self.service.snapshot()
        return _cached_frame(
            snapshot,
            ("provenance", relation),
            lambda: {
                "ok": True,
                "version": snapshot.version,
                "rows": encode_capture({relation: snapshot.relations[relation]}),
            },
        )

    async def _op_state(self, _request: dict, _conn: _Connection) -> bytes:
        snapshot = await self.service.snapshot()
        return _cached_frame(
            snapshot,
            "state",
            lambda: {
                "ok": True,
                "version": snapshot.version,
                "relations": encode_capture(snapshot.relations),
            },
        )

    async def _op_annotation_of(self, request: dict, _conn: _Connection) -> dict:
        relation = self._known_relation(request)
        row = request.get("row")
        if not isinstance(row, list):
            raise ServerError("annotation_of needs a 'row' list")
        snapshot = await self.service.snapshot()
        entry = snapshot.relations[relation].get(tuple(row))
        expr = entry[0] if entry is not None else None
        return {
            "ok": True,
            "version": snapshot.version,
            "expr": None if expr is None else expr_to_dict(expr),
            "stored": entry is not None,
            "live": bool(entry[1]) if entry is not None else False,
        }

    async def _op_specialize(self, request: dict, _conn: _Connection) -> dict:
        structure = request.get("structure", "boolean")
        if structure != "boolean":
            raise ServerError(
                f"unsupported wire structure {structure!r}; the wire protocol "
                "ships the Boolean Update-Structure (use the library API for "
                "arbitrary structures)"
            )
        policy = self.service.engine.policy
        if policy in ("none", "no_provenance"):
            raise ServerError(f"policy {policy!r} does not track provenance")
        env = request.get("env") or {}
        if not isinstance(env, dict):
            raise ServerError("specialize needs an 'env' object of name -> bool")
        default = bool(request.get("default", True))
        assignment = {str(name): bool(value) for name, value in env.items()}
        structure_obj = BooleanStructure()
        lookup = lambda name: assignment.get(name, default)  # noqa: E731
        snapshot = await self.service.snapshot()
        values = {
            name: [
                [list(row), bool(evaluate(expr, structure_obj, lookup))]
                for row, (expr, _live) in rows.items()
                if expr is not None
            ]
            for name, rows in snapshot.relations.items()
        }
        return {"ok": True, "version": snapshot.version, "values": values}

    async def _op_tuple_vars(self, _request: dict, _conn: _Connection) -> dict:
        return {
            "ok": True,
            "tuple_vars": encode_tuple_vars(self.service.engine.tuple_vars()),
        }

    async def _op_stats(self, _request: dict, _conn: _Connection) -> dict:
        return {"ok": True, **await self.service.stats()}

    async def _op_checkpoint(self, _request: dict, _conn: _Connection) -> dict:
        return {"ok": True, "written": await self.service.checkpoint()}

    async def _op_subscribe(self, request: dict, conn: _Connection) -> dict:
        """Register a live view for this connection; the reply seeds it.

        The response carries the subscription id, the seed version, and
        the seeded rows in capture form; every later change to the view's
        slice arrives as a pushed ``"frame": "delta"`` batch.  Ordering:
        the seed response always precedes the first push, and pushes for
        one subscription arrive in version order.
        """
        relation = self._known_relation(request)
        encoded = request.get("pattern")
        arity = self.service.schema.relation(relation).arity
        if encoded is None:
            pattern = Pattern.any(arity)
        else:
            try:
                pattern = pattern_from_dict(encoded)
            except (KeyError, TypeError, ValueError) as exc:
                raise ServerError(f"malformed subscribe pattern: {exc}") from exc
            if pattern.arity != arity:
                raise ServerError(
                    f"pattern arity {pattern.arity} does not match "
                    f"{relation!r} (arity {arity})"
                )
        view, seed, version = await self.service.subscribe(relation, pattern)
        conn.subscriptions.add(view.view_id)
        self._subscriptions[view.view_id] = conn
        # Deltas flushed in the same writer cycle can beat this task's
        # resumption to the loop; they were parked and ship right after
        # the seed response (same ordered queue, so still in order).
        for frame in self._early_pushes.pop(view.view_id, ()):
            conn.pending.put_nowait(frame)
        return {
            "ok": True,
            "subscription": view.view_id,
            "version": version,
            "relation": relation,
            "pattern": pattern_to_dict(pattern),
            "rows": encode_capture({relation: seed}),
        }

    async def _op_unsubscribe(self, request: dict, conn: _Connection) -> dict:
        view_id = request.get("subscription")
        if not isinstance(view_id, int) or isinstance(view_id, bool):
            raise ServerError("unsubscribe needs an integer 'subscription'")
        if view_id not in conn.subscriptions:
            raise ServerError(
                f"subscription {view_id} does not belong to this connection"
            )
        conn.subscriptions.discard(view_id)
        self._subscriptions.pop(view_id, None)
        existed = await self.service.unsubscribe(view_id)
        self._early_pushes.pop(view_id, None)
        return {"ok": True, "unsubscribed": bool(existed)}

    async def _op_promote(self, _request: dict, _conn: _Connection) -> dict:
        """Promote this follower to a writer (see ``repro.replication.node``).

        The node's promoter stops the shipping stream (a blocking join,
        hence the executor hop) and then runs the ``promote`` admission,
        so the role flip is ordered against every other admission.
        """
        promoter = self.service.promoter
        if promoter is None:
            raise ServerError("this server is not a promotable follower")
        result = await asyncio.get_running_loop().run_in_executor(None, promoter)
        return {"ok": True, **result}

    async def _op_shutdown(self, request: dict, _conn: _Connection) -> dict:
        # The reply ships before stop() runs (see _respond): the requesting
        # client learns its shutdown was accepted, then the server drains
        # admissions, flushes, checkpoints and exits.
        self._shutdown_checkpoint = bool(request.get("checkpoint", True))
        return {"ok": True, "closing": True}

    def _known_relation(self, request: dict) -> str:
        relation = request.get("relation")
        if not isinstance(relation, str) or relation not in self.service.schema:
            raise ServerError(
                f"unknown relation {relation!r} "
                f"(schema: {', '.join(self.service.schema.names)})"
            )
        return relation

    # -- push fanout (live views) ----------------------------------------------

    def _bridge_deltas(self, batch: DeltaBatch, per_view: dict) -> None:
        """The service's ``on_deltas`` hook: writer thread -> event loop."""
        if not per_view:
            return
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(self._fanout, batch.version, per_view)
        except RuntimeError:
            pass  # loop already closed: shutdown raced the final flush

    def _fanout(self, version: int, per_view: dict) -> None:
        """Enqueue one pre-encoded push frame per touched subscription.

        Runs as a loop callback; encoding walks only immutable interned
        expressions (no interning, matching the transport's contract).
        ``pushed_at`` is a wall-clock stamp for consumer-side lag
        measurement (the loadgen's delta-lag histogram).
        """
        pushed_at = time.time()
        backlog = self.service.config.push_backlog
        for view_id, deltas in per_view.items():
            frame = {
                "ok": True,
                "frame": FRAME_DELTA,
                "subscription": view_id,
                "pushed_at": pushed_at,
                **encode_delta_batch(DeltaBatch(version, tuple(deltas))),
            }
            conn = self._subscriptions.get(view_id)
            if conn is None:
                # The subscribe dispatch has not registered yet (writer
                # resolved it this same cycle); park until it does.  Ids
                # of dropped subscriptions never reappear here: the
                # writer unregisters the view before its next flush.
                self._early_pushes.setdefault(view_id, []).append(frame)
                continue
            if conn.pending.qsize() >= backlog:
                self._drop_subscriptions(conn, lagged=True)
                continue
            conn.pending.put_nowait(frame)

    def _drop_subscriptions(self, conn: _Connection, lagged: bool) -> None:
        """Tear down a connection's subscriptions (close or slow consumer).

        Removal from the fanout map is immediate; the registry views are
        unregistered through ordinary admissions on a background task so
        this stays callable from non-async loop callbacks.  A ``lagged``
        drop queues one final notice telling the client to re-subscribe.
        """
        if not conn.subscriptions:
            return
        view_ids = sorted(conn.subscriptions)
        conn.subscriptions.clear()
        for view_id in view_ids:
            self._subscriptions.pop(view_id, None)
        if lagged:
            conn.pending.put_nowait(
                {
                    "ok": True,
                    "frame": FRAME_DELTA,
                    "lagged": True,
                    "subscriptions": view_ids,
                }
            )
        task = asyncio.get_running_loop().create_task(
            self._unsubscribe_views(view_ids)
        )
        self._cleanup_tasks.add(task)
        task.add_done_callback(self._cleanup_tasks.discard)

    async def _unsubscribe_views(self, view_ids: list[int]) -> None:
        for view_id in view_ids:
            try:
                await self.service.unsubscribe(view_id)
            except ReproError:
                pass  # service already shut down; the registry died with it
            self._early_pushes.pop(view_id, None)


_OPS = {
    "ping": ProvenanceServer._op_ping,
    "apply": ProvenanceServer._op_apply,
    "provenance": ProvenanceServer._op_provenance,
    "state": ProvenanceServer._op_state,
    "annotation_of": ProvenanceServer._op_annotation_of,
    "specialize": ProvenanceServer._op_specialize,
    "tuple_vars": ProvenanceServer._op_tuple_vars,
    "stats": ProvenanceServer._op_stats,
    "checkpoint": ProvenanceServer._op_checkpoint,
    "subscribe": ProvenanceServer._op_subscribe,
    "unsubscribe": ProvenanceServer._op_unsubscribe,
    "promote": ProvenanceServer._op_promote,
    "shutdown": ProvenanceServer._op_shutdown,
}


# ---------------------------------------------------------------------------
# Background-thread hosting (benchmarks, tests, examples)
# ---------------------------------------------------------------------------


class ServerHandle:
    """A server running on a background thread, stoppable from the caller."""

    def __init__(self, thread: threading.Thread, loop: asyncio.AbstractEventLoop, server: ProvenanceServer):
        self._thread = thread
        self._loop = loop
        self._server = server

    @property
    def host(self) -> str:
        return self._server.host

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def address(self) -> tuple[str, int]:
        return self._server.host, self._server.port

    @property
    def service(self) -> ProvenanceService:
        return self._server.service

    def stop(self, checkpoint: bool = True, timeout: float = 60.0) -> None:
        """Graceful shutdown from the hosting thread; idempotent."""
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self._server.stop(checkpoint=checkpoint), self._loop
            )
            try:
                future.result(timeout=timeout)
            except RuntimeError:
                pass  # loop already shut down concurrently
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():  # pragma: no cover - stuck shutdown
            raise ServerError("server thread did not stop in time")

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


def serve_in_thread(
    database: Database | None = None,
    config: ServerConfig | None = None,
    start_timeout: float = 30.0,
    service_factory=None,
) -> ServerHandle:
    """Start a provenance server on a daemon thread; returns its handle.

    The engine is built (or recovered) on the server thread, the bound
    address is available as ``handle.host`` / ``handle.port`` once this
    returns, and ``handle.stop()`` performs the same graceful shutdown as
    the ``shutdown`` op.  Construction failures re-raise here.

    ``service_factory`` (when given) supplies the whole service instead —
    how a replication follower serves an engine it already bootstrapped
    (the writer-thread confinement starts at ``start()``, so a prebuilt
    engine is fine as long as nothing else touches it afterwards).
    """
    config = config or ServerConfig()
    started = threading.Event()
    holder: dict[str, object] = {}

    async def _main() -> None:
        try:
            if service_factory is not None:
                service = service_factory()
            else:
                service = ProvenanceService(build_engine(database, config), config)
            server = ProvenanceServer(service)
            await server.start()
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            holder["error"] = exc
            started.set()
            return
        holder["loop"] = asyncio.get_running_loop()
        holder["server"] = server
        started.set()
        await server.wait_stopped()

    thread = threading.Thread(
        target=lambda: asyncio.run(_main()), name="repro-server", daemon=True
    )
    thread.start()
    if not started.wait(timeout=start_timeout):  # pragma: no cover - hung start
        raise ServerError("server did not start in time")
    error = holder.get("error")
    if error is not None:
        thread.join(timeout=start_timeout)
        raise error  # type: ignore[misc]
    return ServerHandle(thread, holder["loop"], holder["server"])  # type: ignore[arg-type]
