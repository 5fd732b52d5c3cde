"""The provenance service's wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian payload length followed by a UTF-8 JSON
object.  Requests carry ``{"op": ..., **arguments}``; responses carry
``{"ok": true, **results}`` or ``{"ok": false, "error": {"type", "message"}}``.
Requests on one connection are answered strictly in order, so a blocking
client may pipeline frames and read the responses back positionally.

Since protocol revision 2 a server may additionally *push* frames to a
connection that subscribed to a live view.  Pushed frames carry the
``"frame": "delta"`` tag (:data:`FRAME_DELTA`); its **absence** marks an
ordinary response, which is what every pre-revision-2 frame is — old
clients that never subscribe never receive a tagged frame and keep
working unchanged, and old servers simply answer ``subscribe`` with an
unknown-op error.  Pushed frames are interleaved *between* responses,
never inside one, so positional response reading still holds: a client
reading its Nth response skips any tagged frames it encounters (and may
queue them; see :class:`repro.server.client.Subscription`).

The payload vocabulary deliberately reuses the codecs the rest of the
system already trusts for durability and cross-process shipping:

* updates travel as the :meth:`repro.workloads.logs.UpdateLog.events`
  replay stream (``["query", query_to_dict(q)]`` / ``["txn_end", name]``)
  — the write-ahead journal's record vocabulary, regrouped server-side
  with :func:`repro.workloads.logs.log_from_events` so transaction hooks
  fire at exactly their event positions;
* provenance expressions travel in the one expression encoding,
  :mod:`repro.storage.exprjson`'s shared node table: every reply that
  carries many expressions (``provenance``, ``state``, the ``subscribe``
  seed, pushed deltas) ships one table plus an integer root per row, and
  ``annotation_of`` ships the one-root case.  The receiving process
  re-interns every node (see :mod:`repro.shard.codec`).

Constants are therefore restricted to JSON scalars — the same restriction
every durable log already satisfies.

Operations (see :mod:`repro.server.server` for the handlers):

====================  =======================================================
``ping``              server identity: version, policy, backend, schema
``apply``             ``{"events": [...], "batch": bool}`` → applied count
``provenance``        one relation, as an :func:`encode_capture` payload;
                      encoded once per snapshot version, then cached
``state``             every relation, as an :func:`encode_capture` payload;
                      encoded once per snapshot version, then cached
``annotation_of``     one row's expression as a one-root node table
                      (``null`` = never stored)
``specialize``        Boolean-structure valuation of every stored annotation
``tuple_vars``        initial-tuple annotation names (what-if valuations)
``stats``             engine counters + server admission counters
``checkpoint``        force a durability checkpoint (journaled backends)
``subscribe``         register a live view; reply seeds it, then the server
                      pushes ``"frame": "delta"`` batches as rows change
``unsubscribe``       drop one of this connection's subscriptions
``shutdown``          graceful stop: flush, checkpoint, close
====================  =======================================================
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Mapping

from ..errors import ServerError

__all__ = [
    "DEFAULT_PORT",
    "FRAME_DELTA",
    "MAX_FRAME",
    "PROTOCOL_REVISION",
    "encode_frame",
    "read_frame",
    "recv_frame",
    "send_frame",
    "error_payload",
]

#: Default TCP port of ``repro serve`` (override with ``--port``).
DEFAULT_PORT = 7464

#: Wire-protocol revision: 1 = request/response only, 2 = adds the
#: ``subscribe``/``unsubscribe`` ops and server-pushed delta frames,
#: 3 = ``provenance`` answers with the shared node table of
#: :func:`encode_capture` instead of one node table per row.  Reported by
#: ``ping`` so clients can feature-detect without probing.
PROTOCOL_REVISION = 3

#: The frame-type tag on server-pushed frames.  Absent on responses —
#: which is also what every pre-revision-2 frame looks like.
FRAME_DELTA = "delta"

#: Upper bound on one frame's JSON payload.  Full-state captures of large
#: engines are the biggest legitimate frames; 256 MiB is far above any
#: workload this reproduction ships while still bounding a corrupt or
#: hostile length prefix.
MAX_FRAME = 256 * 1024 * 1024

_HEADER = struct.Struct(">I")


def encode_frame(payload: Mapping[str, object]) -> bytes:
    """One wire frame: 4-byte big-endian length + compact JSON."""
    try:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ServerError(f"payload is not JSON-serializable: {exc}") from exc
    if len(body) > MAX_FRAME:
        raise ServerError(f"frame of {len(body)} bytes exceeds MAX_FRAME={MAX_FRAME}")
    return _HEADER.pack(len(body)) + body


def _decode_body(body: bytes) -> dict:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServerError(f"malformed frame payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServerError(f"frame payload must be a JSON object, got {type(payload).__name__}")
    return payload


async def read_frame(reader) -> dict:
    """Read one frame from an :class:`asyncio.StreamReader`.

    Raises ``asyncio.IncompleteReadError`` on a clean EOF between frames
    (the caller treats that as the peer hanging up) and
    :class:`~repro.errors.ServerError` on an oversized length prefix.
    """
    header = await reader.readexactly(_HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ServerError(f"frame of {length} bytes exceeds MAX_FRAME={MAX_FRAME}")
    return _decode_body(await reader.readexactly(length))


def send_frame(sock: socket.socket, payload: Mapping[str, object]) -> None:
    """Blocking counterpart of the stream writer (client side)."""
    sock.sendall(encode_frame(payload))


def recv_frame(sock: socket.socket) -> dict:
    """Blocking frame read; raises :class:`ServerError` on a torn stream."""
    header = _recv_exactly(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ServerError(f"frame of {length} bytes exceeds MAX_FRAME={MAX_FRAME}")
    return _decode_body(_recv_exactly(sock, length))


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ServerError(
                f"connection closed mid-frame ({n - remaining} of {n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def error_payload(exc: BaseException) -> dict:
    """The standard error response body for an exception."""
    return {
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
