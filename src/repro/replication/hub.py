"""The primary's shipping side: journal fan-out and the TCP endpoint.

:class:`ReplicationHub` hangs off the live :class:`Journal`'s
replication hooks.  Every appended record lands in a bounded in-memory
buffer of ``(seq, line)`` pairs; a follower that keeps up is served
straight from that buffer, one that reconnects after a gap is served
from the journal file via :func:`tail_journal` (complete frames only —
the torn-tail distinction is exactly why that primitive exists), and one
that has fallen behind the newest checkpoint *and* out of the buffer
gets a checkpoint transfer instead.

The buffer deliberately survives checkpoint resets: records the
checkpoint covered are gone from the file but still perfectly shippable
from memory, so a live follower never needs a re-bootstrap just because
the primary checkpointed.  Size the buffer above ``checkpoint_every``
and streaming followers stay streaming (see docs/OPERATIONS.md).

Wire protocol (over :mod:`repro.server.protocol` frames for control,
raw journal bytes for data)::

    follower -> {"op": "sync", "from_seq": N}      # N = -1: no local state
    primary  -> {"ok": true, "mode": "stream", "from_seq": N}
                <raw journal lines, verbatim, forever>
             or {"ok": true, "mode": "checkpoint", "size": B}
                <B bytes of checkpoint.json>
                # follower recovers locally, then sends a fresh sync on
                # the same connection.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from pathlib import Path

from ..errors import ReplicationError, ServerError
from ..server.protocol import recv_frame, send_frame
from ..wal.journal import tail_journal

__all__ = ["ReplicationHub", "ReplicationListener", "DEFAULT_BUFFER_RECORDS"]

#: Records retained in memory for streaming followers.  Deliberately
#: larger than the default checkpoint threshold (1024) so a checkpoint
#: reset never pushes a live follower into a checkpoint transfer.
DEFAULT_BUFFER_RECORDS = 4096

_POLL_SECONDS = 0.25


class ReplicationHub:
    """Fans the primary's journal appends out to shipping connections."""

    def __init__(self, journal, buffer_records: int = DEFAULT_BUFFER_RECORDS):
        self.journal = journal
        self.path = Path(journal.path)
        self._cond = threading.Condition()
        self._buffer: deque = deque()
        self._buffer_records = buffer_records
        #: sequence the newest checkpoint covers (file holds seq > this).
        self.base_seq = journal.last_seq - journal.records_since_reset
        self.last_seq = journal.last_seq
        self._closed = False
        journal.on_append = self._on_append
        journal.on_reset = self._on_reset

    # -- journal hooks (run on the appending thread; must not raise) ---------

    def _on_append(self, seq: int, line: bytes) -> None:
        with self._cond:
            self._buffer.append((seq, line))
            while len(self._buffer) > self._buffer_records:
                self._buffer.popleft()
            self.last_seq = seq
            self._cond.notify_all()

    def _on_reset(self, covered_seq: int) -> None:
        with self._cond:
            self.base_seq = covered_seq
            self._cond.notify_all()

    # -- serving --------------------------------------------------------------

    def records_after(self, last_seq: int, timeout: float | None = None):
        """Complete frames with ``seq > last_seq``, as ``(seq, line)`` pairs.

        Blocks up to ``timeout`` for new records (empty list on timeout).
        Raises :class:`ReplicationError` if ``last_seq`` predates both the
        buffer and the journal file — the caller needs a checkpoint.
        """
        with self._cond:
            while True:
                if self._closed:
                    raise ReplicationError("replication hub closed")
                if self.last_seq > last_seq:
                    if self._buffer and self._buffer[0][0] <= last_seq + 1:
                        return [
                            (seq, line)
                            for seq, line in self._buffer
                            if seq > last_seq
                        ]
                    if last_seq < self.base_seq:
                        raise ReplicationError(
                            f"follower at seq {last_seq} fell behind the "
                            f"newest checkpoint (seq {self.base_seq}); "
                            "checkpoint transfer required"
                        )
                    # Catch-up from the file: frames with a visible
                    # newline are durable and complete by construction.
                    tail = tail_journal(self.path, 0)
                    if tail.truncated:  # racing reset; loop re-evaluates
                        continue
                    shipments = [
                        (record["seq"], line)
                        for record, line in zip(tail.records, tail.lines)
                        if record["seq"] > last_seq
                    ]
                    if shipments:
                        return shipments
                if not self._cond.wait(timeout):
                    return []

    def needs_checkpoint(self, from_seq: int) -> bool:
        with self._cond:
            if from_seq >= self.base_seq:
                return False
            return not (self._buffer and self._buffer[0][0] <= from_seq + 1)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self.journal.on_append == self._on_append:
            self.journal.on_append = None
        if self.journal.on_reset == self._on_reset:
            self.journal.on_reset = None


class ReplicationListener:
    """The primary's TCP shipping endpoint (one feeder thread per follower)."""

    def __init__(
        self,
        hub: ReplicationHub,
        checkpoint_path: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.hub = hub
        self.checkpoint_path = Path(checkpoint_path)
        self._sock = socket.create_server((host, port))
        self.host, self.port = self._sock.getsockname()[:2]
        self._stopping = threading.Event()
        self._conns: set = set()
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repl-accept", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return
            with self._lock:
                if self._stopping.is_set():
                    conn.close()
                    return
                self._conns.add(conn)
                thread = threading.Thread(
                    target=self._feed, args=(conn,), name="repl-feed", daemon=True
                )
                self._threads.append(thread)
            thread.start()

    def _feed(self, conn: socket.socket) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while not self._stopping.is_set():
                request = recv_frame(conn)
                if request.get("op") != "sync":
                    return
                from_seq = int(request.get("from_seq", -1))
                if from_seq < 0 or self.hub.needs_checkpoint(from_seq):
                    if not self._send_checkpoint(conn):
                        return
                    continue  # follower recovers, then re-syncs
                send_frame(
                    conn, {"ok": True, "mode": "stream", "from_seq": from_seq}
                )
                self._stream(conn, from_seq)
                return
        except (OSError, ServerError, ReplicationError):
            pass  # follower went away or fell behind; it will reconnect
        finally:
            with self._lock:
                self._conns.discard(conn)
            conn.close()

    def _send_checkpoint(self, conn: socket.socket) -> bool:
        # os.replace keeps the file atomically consistent; its journal_seq
        # metadata tells the follower exactly where it stands afterwards.
        try:
            payload = self.checkpoint_path.read_bytes()
        except FileNotFoundError:
            send_frame(conn, {"ok": False, "error": "primary has no checkpoint"})
            return False
        send_frame(conn, {"ok": True, "mode": "checkpoint", "size": len(payload)})
        conn.sendall(payload)
        return True

    def _stream(self, conn: socket.socket, from_seq: int) -> None:
        last = from_seq
        while not self._stopping.is_set():
            shipments = self.hub.records_after(last, timeout=_POLL_SECONDS)
            if not shipments:
                continue
            conn.sendall(b"".join(line for _seq, line in shipments))
            last = shipments[-1][0]

    def stop(self) -> None:
        self._stopping.set()
        try:
            # Closing a listening socket from another thread does not wake
            # a blocked accept() on Linux; shutting it down first does.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        self.hub.close()
        self._accept_thread.join(timeout=5)
        for thread in self._threads:
            thread.join(timeout=5)
