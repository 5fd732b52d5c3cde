"""A blocking client for the provenance service.

:class:`ServerClient` speaks the length-prefixed JSON protocol over one
TCP connection and presents the familiar engine surface: ``apply`` /
``apply_batch``, ``provenance`` / ``annotation_of`` / ``state``,
``specialize``, ``stats``, ``checkpoint``, ``shutdown``.  Updates are
encoded as the journal's replay vocabulary; provenance expressions come
back as one shared :mod:`repro.storage.exprjson` node table per reply
(:func:`~repro.shard.codec.decode_capture`) and are **re-interned
locally** — in the server's own process the decoded objects are
therefore the very nodes the engine holds, which is what the
bit-identity tests assert.

Requests on a connection are answered in order, so
:meth:`apply_pipelined` may ship many apply frames before reading any
response — the client-side half of admission batching: a deep queue lets
the server's writer fuse an entire backlog into one ``apply_batch`` call.

:meth:`ServerClient.subscribe` registers a live view: the reply seeds a
:class:`Subscription`, after which the server pushes ``"frame": "delta"``
batches as the view's slice changes.  Pushed frames interleave *between*
responses, so :meth:`_receive` demultiplexes: any tagged frame read while
waiting for a response is routed to its subscription's queue and the read
continues.  The client stays single-threaded — when idle, a subscription
waits for pushes with a plain ``select`` on the socket.
"""

from __future__ import annotations

import select
import socket
import time
from collections import deque
from typing import Iterable, Iterator, Mapping

from ..core.expr import Expr, ZERO
from ..errors import ServerError
from ..queries.pattern import Pattern
from ..queries.updates import Transaction, UpdateQuery
from ..shard.codec import decode_capture, decode_tuple_vars, items_to_events
from ..storage.exprjson import expr_from_dict
from ..views import DeltaBatch, apply_delta_batch, decode_delta_batch
from ..workloads.logs import pattern_to_dict
from .protocol import DEFAULT_PORT, FRAME_DELTA, recv_frame, send_frame

__all__ = ["DeltaEvent", "ServerClient", "Subscription"]

#: Anything `apply` accepts: a query, a transaction, or nested iterables.
Applyable = UpdateQuery | Transaction | Iterable


def _as_items(item: Applyable) -> list[UpdateQuery | Transaction]:
    if isinstance(item, (UpdateQuery, Transaction)):
        return [item]
    if isinstance(item, Iterable) and not isinstance(item, (str, bytes)):
        items: list[UpdateQuery | Transaction] = []
        for element in item:
            items.extend(_as_items(element))
        return items
    raise ServerError(f"cannot apply {type(item).__name__}")


class ServerClient:
    """One blocking connection to a running provenance server."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: float = 60.0,
        connect_retry: float = 0.0,
    ):
        """Connect, retrying for up to ``connect_retry`` seconds.

        The retry window makes "start the server, then connect" scriptable
        without sleeps (the CI smoke test and the CLI client use it).
        """
        deadline = time.monotonic() + connect_retry
        while True:
            try:
                self._sock = socket.create_connection((host, port), timeout=timeout)
                break
            except OSError as exc:
                if time.monotonic() >= deadline:
                    raise ServerError(
                        f"cannot connect to {host}:{port}: {exc}"
                    ) from exc
                time.sleep(0.05)
        self.host, self.port = host, port
        #: subscription id -> queued pushed frames, filled by the demux.
        self._pushed: dict[int, deque] = {}
        #: Replication bookkeeping, updated from every response: the
        #: newest journal seq this connection's writes reached (primary
        #: apply responses carry ``seq``) and the newest snapshot version
        #: observed (a follower's version *is* its applied journal seq).
        self.last_seq: int | None = None
        self.last_version: int | None = None
        #: The last decoded ``provenance`` reply per relation and the last
        #: decoded ``state``.  Interned nodes live only while held, so
        #: holding the previous read keeps its nodes alive: re-reading
        #: unchanged provenance then interns against them instead of
        #: rebuilding every node.  Bounded by one reply per relation.
        self._last_reads: dict[object, object] = {}

    # -- plumbing --------------------------------------------------------------

    def _send(self, op: str, **payload: object) -> None:
        try:
            send_frame(self._sock, {"op": op, **payload})
        except OSError as exc:
            raise ServerError(f"send to {self.host}:{self.port} failed: {exc}") from exc

    def _flush(self, buffer: bytearray) -> None:
        try:
            self._sock.sendall(buffer)
        except OSError as exc:
            raise ServerError(f"send to {self.host}:{self.port} failed: {exc}") from exc

    def _receive(self) -> dict:
        while True:
            try:
                response = recv_frame(self._sock)
            except OSError as exc:
                raise ServerError(
                    f"read from {self.host}:{self.port} failed: {exc}"
                ) from exc
            # Server-pushed frames interleave between responses; route
            # them to their subscription and keep reading for the reply.
            if response.get("frame") == FRAME_DELTA:
                self._route_push(response)
                continue
            if not response.get("ok"):
                error = response.get("error") or {}
                raise ServerError(
                    f"server error [{error.get('type', 'unknown')}]: "
                    f"{error.get('message', 'no message')}"
                )
            if isinstance(response.get("seq"), int):
                self.last_seq = response["seq"]
            if isinstance(response.get("version"), int):
                self.last_version = response["version"]
            return response

    def _route_push(self, frame: dict) -> None:
        stamped = dict(frame)
        stamped["received_at"] = time.time()
        if frame.get("lagged"):
            # The slow-consumer notice names every dropped subscription.
            for view_id in frame.get("subscriptions", ()):
                queue = self._pushed.get(int(view_id))
                if queue is not None:
                    queue.append(stamped)
            return
        queue = self._pushed.get(int(frame.get("subscription", -1)))
        if queue is not None:
            queue.append(stamped)

    def _wait_push(self, timeout: float | None) -> bool:
        """Block until at least one frame arrives; False on timeout.

        Uses ``select`` *before* the blocking read so a timeout can never
        strand the stream mid-frame (the server writes whole frames, so
        once the header is readable the rest follows immediately).
        """
        ready, _, _ = select.select([self._sock], [], [], timeout)
        if not ready:
            return False
        frame = recv_frame(self._sock)
        if frame.get("frame") == FRAME_DELTA:
            self._route_push(frame)
            return True
        raise ServerError(
            "unsolicited response frame while waiting for pushes "
            "(another request is mid-flight on this connection?)"
        )

    def _call(self, op: str, **payload: object) -> dict:
        self._send(op, **payload)
        return self._receive()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- the engine surface ----------------------------------------------------

    def ping(self) -> dict:
        """Server identity: version, policy, backend, schema."""
        return self._call("ping")["server"]

    def apply(self, item: Applyable, batch: bool = False) -> int:
        """Apply a query / transaction / iterable; returns queries applied."""
        events = items_to_events(_as_items(item))
        return int(self._call("apply", events=events, batch=batch)["applied"])

    def apply_batch(self, item: Applyable) -> int:
        """Like :meth:`apply`, requesting the batched pipeline server-side."""
        return self.apply(item, batch=True)

    def apply_pipelined(
        self,
        items: Iterable[Applyable],
        batch: bool = False,
        timings: list[tuple[float, float]] | None = None,
        flush_bytes: int = 1 << 20,
    ) -> int:
        """Ship one apply frame per element, then read every response.

        Pipelining keeps the server's admission queue deep, which is what
        lets the writer fuse a whole backlog into one ``apply_batch`` call
        — the measured win of ``repro figure server``.  Returns total
        queries applied; raises on the first failed response (later
        pipelined responses are drained so the connection stays usable).

        With ``timings`` a list, one ``(send, recv)`` ``perf_counter``
        pair is appended per request — failed ones included — in request
        order: ``send`` is stamped at the flush that put the request's
        frame on the socket (requests sharing a flush share its stamp),
        ``recv`` once its response frame has been read.  ``recv - send``
        is the request's honest per-op latency; before this hook existed,
        callers could only time the whole call and divide by the request
        count, which amortizes one slow operation across the batch.
        ``flush_bytes`` bounds how many frame bytes buffer between
        flushes (1 = one flush, and one send stamp, per frame).
        """
        from .protocol import encode_frame

        buffer = bytearray()
        shipped = 0
        unstamped = 0  # requests buffered since the last flush
        send_stamps: list[float] = []

        def flush() -> None:
            nonlocal unstamped
            self._flush(buffer)
            buffer.clear()
            if timings is not None:
                stamp = time.perf_counter()
                send_stamps.extend([stamp] * unstamped)
                unstamped = 0

        for element in items:
            buffer += encode_frame(
                {"op": "apply", "events": items_to_events(_as_items(element)), "batch": batch}
            )
            shipped += 1
            unstamped += 1
            if len(buffer) >= flush_bytes:
                flush()
        if buffer:
            flush()
        applied = 0
        failure: ServerError | None = None
        for index in range(shipped):
            try:
                applied += int(self._receive()["applied"])
            except ServerError as exc:
                failure = failure or exc
            finally:
                if timings is not None:
                    timings.append((send_stamps[index], time.perf_counter()))
        if failure is not None:
            raise failure
        return applied

    def provenance(self, relation: str) -> list[tuple[tuple, Expr, bool]]:
        """``(row, expression, live)`` per stored row, re-interned locally.

        The provenance-free policy reports ``ZERO`` expressions.
        """
        rows = decode_capture(self._call("provenance", relation=relation)["rows"])
        self._last_reads[("provenance", relation)] = rows
        return [
            (row, ZERO if expr is None else expr, live)
            for row, (expr, live) in rows[relation].items()
        ]

    def state(self) -> dict[str, dict[tuple, tuple[Expr | None, bool]]]:
        """The full ``{relation: {row: (expression, live)}}`` snapshot."""
        state = decode_capture(self._call("state")["relations"])
        self._last_reads["state"] = state
        return state

    def raw_state(self) -> tuple[int, dict]:
        """The snapshot *without* decoding expressions: ``(version, payload)``.

        For readers that must not intern while another thread in the same
        process is still writing heavily (decode later, when quiescent) —
        the concurrent-reader stress test records these.
        """
        response = self._call("state")
        return int(response["version"]), response["relations"]

    def annotation_of(self, relation: str, row: Iterable[object]) -> Expr:
        """One row's provenance expression (``ZERO`` if never stored)."""
        response = self._call("annotation_of", relation=relation, row=list(row))
        encoded = response["expr"]
        return ZERO if encoded is None else expr_from_dict(encoded)

    def specialize(
        self, env: Mapping[str, bool], default: bool = True
    ) -> dict[str, dict[tuple, bool]]:
        """Boolean-structure valuation of every stored annotation.

        ``env`` assigns truth values by annotation name; unnamed
        annotations take ``default``.  The shape matches
        :meth:`repro.engine.engine.Engine.specialize` under
        :class:`~repro.semantics.boolean.BooleanStructure`.
        """
        response = self._call(
            "specialize", structure="boolean", env=dict(env), default=default
        )
        return {
            name: {tuple(row): bool(value) for row, value in rows}
            for name, rows in response["values"].items()
        }

    def tuple_vars(self) -> dict[str, dict[tuple, str]]:
        """Initial-tuple annotation names, ``{relation: {row: name}}``."""
        return decode_tuple_vars(self._call("tuple_vars")["tuple_vars"])

    def stats(self) -> dict:
        """``{"engine": ..., "server": ..., "memory": ...}`` counter blocks.

        ``memory`` (current and peak RSS, live intern table size) is empty
        when talking to a server predating the memory axis.
        """
        response = self._call("stats")
        blocks = {
            "engine": response["engine"],
            "server": response["server"],
            "memory": response.get("memory", {}),
        }
        if "replication" in response:
            blocks["replication"] = response["replication"]
        return blocks

    def checkpoint(self) -> int:
        """Force a durability checkpoint; returns checkpoints written."""
        return int(self._call("checkpoint")["written"])

    def promote(self) -> dict:
        """Promote a replication follower into a writer; returns role + seq."""
        response = self._call("promote")
        return {"role": response["role"], "seq": int(response["seq"])}

    def subscribe(
        self, relation: str, pattern: Pattern | None = None
    ) -> "Subscription":
        """Register a live view; returns its seeded :class:`Subscription`.

        ``pattern`` scopes the view to matching rows (``None`` = the whole
        relation).  The returned subscription holds the seeded answer set
        and keeps it current as pushed delta batches are consumed; seeded
        and pushed expressions are re-interned locally, so inside the
        server's process they are identical to the engine's own nodes.
        """
        payload: dict[str, object] = {"relation": relation}
        if pattern is not None:
            payload["pattern"] = pattern_to_dict(pattern)
        response = self._call("subscribe", **payload)
        view_id = int(response["subscription"])
        self._pushed[view_id] = deque()
        rows = decode_capture(response["rows"]).get(relation, {})
        return Subscription(
            self, view_id, relation, pattern, int(response["version"]), dict(rows)
        )

    def shutdown(self, checkpoint: bool = True) -> None:
        """Ask the server to stop gracefully, then close this connection."""
        try:
            self._call("shutdown", checkpoint=checkpoint)
        finally:
            self.close()


class DeltaEvent:
    """One consumed push: a decoded delta batch (or the ``lagged`` notice).

    ``lag`` is the publish-to-receive latency — the wall-clock distance
    between the server's fanout stamp and this client reading the frame
    off the socket (what the loadgen's delta-lag histogram aggregates).
    """

    __slots__ = ("batch", "lagged", "pushed_at", "received_at")

    def __init__(
        self,
        batch: DeltaBatch | None,
        lagged: bool,
        pushed_at: float | None,
        received_at: float,
    ):
        self.batch = batch
        self.lagged = lagged
        self.pushed_at = pushed_at
        self.received_at = received_at

    @property
    def lag(self) -> float | None:
        if self.pushed_at is None:
            return None
        return self.received_at - self.pushed_at


class Subscription:
    """One live view: a seeded answer set kept current by pushed deltas.

    ``rows`` is the maintained ``{row: (expr, live)}`` slice, ``version``
    the snapshot version it reflects — both advance as events are
    consumed through :meth:`next` / :meth:`drain` / iteration.  After a
    server-side slow-consumer drop, the final event has ``lagged`` set,
    ``active`` turns false, and the answer set is stale: re-subscribe for
    a fresh seed.  One client may hold several subscriptions; frames are
    demultiplexed by subscription id.
    """

    def __init__(
        self,
        client: ServerClient,
        view_id: int,
        relation: str,
        pattern: Pattern | None,
        version: int,
        rows: dict,
    ):
        self.client = client
        self.view_id = view_id
        self.relation = relation
        self.pattern = pattern
        self.version = version
        self.rows = rows
        self.active = True
        self.lagged = False

    def state(self) -> dict:
        """A detached copy of the maintained ``{row: (expr, live)}`` slice."""
        return dict(self.rows)

    def next(self, timeout: float | None = None) -> DeltaEvent | None:
        """The next pushed event, waiting up to ``timeout`` (``None`` = forever).

        Returns ``None`` on timeout.  Must not race an in-flight request
        on the same connection (the client is single-threaded by design).
        """
        queue = self.client._pushed.get(self.view_id)
        deadline = None if timeout is None else time.monotonic() + timeout
        while queue is not None and not queue:
            if not self.active:
                return None
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            if not self.client._wait_push(remaining):
                return None
        if queue is None or not queue:
            return None
        return self._consume(queue.popleft())

    def __iter__(self) -> Iterator[DeltaEvent]:
        """Yield events until the subscription ends (lag drop / unsubscribe)."""
        while self.active:
            event = self.next()
            if event is None:
                return
            yield event
            if event.lagged:
                return

    def drain(self, timeout: float = 0.0) -> list[DeltaEvent]:
        """Consume every event available within ``timeout``.

        With the default zero timeout this still pops everything already
        queued locally plus whatever a non-blocking poll finds readable.
        """
        events: list[DeltaEvent] = []
        deadline = time.monotonic() + timeout
        while True:
            event = self.next(timeout=max(0.0, deadline - time.monotonic()))
            if event is None:
                return events
            events.append(event)
            if event.lagged:
                return events

    def _consume(self, frame: dict) -> DeltaEvent:
        received_at = frame["received_at"]
        if frame.get("lagged"):
            self.active = False
            self.lagged = True
            return DeltaEvent(None, True, None, received_at)
        batch = decode_delta_batch(frame)
        apply_delta_batch({self.relation: self.rows}, batch)
        self.version = batch.version
        return DeltaEvent(batch, False, frame.get("pushed_at"), received_at)

    def unsubscribe(self) -> None:
        """Drop the view server-side and stop consuming; idempotent."""
        was_active = self.active
        self.active = False
        if was_active and not self.lagged:
            try:
                self.client._call("unsubscribe", subscription=self.view_id)
            except ServerError:
                pass  # already dropped server-side (lag raced the request)
        self.client._pushed.pop(self.view_id, None)
