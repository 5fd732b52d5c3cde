"""The follower's shipping loop: bootstrap, stream, reconnect, resume.

A follower is a journaled directory like any other — ``checkpoint.json``
plus ``journal.log`` — whose records arrive over TCP instead of from a
local engine.  Bootstrap is therefore just :func:`recover` on that
directory, fetching the primary's checkpoint first if the directory is
empty.  After a disconnect the follower reconnects and syncs from its
**last durable sequence** (the engine appends before it applies, so
durable ≥ applied at every instant and they are equal between frames);
the primary re-ships anything in flight and the applier's duplicate skip
makes the overlap harmless.

A frame cut mid-transfer needs no special handling: only complete
newline-terminated lines leave the receive buffer, so a partial frame is
simply discarded with the dead connection and re-shipped whole on the
next sync.

Shipped frames are **coalesced** before applying: the pump accumulates
complete frames until ``coalesce_records`` pile up or the oldest waits
``coalesce_delay`` seconds, then applies them as one batch.  A follower
publishes one snapshot version per applied batch, so coalescing is the
read-scaling lever — between batches every read is served from the
cached published snapshot, while a primary under write load invalidates
its snapshot every writer cycle.  The cost is bounded extra staleness
(at most ``coalesce_delay`` plus one receive poll), which the client's
``max_lag`` bound already accounts for.
"""

from __future__ import annotations

import socket
import threading
import time
from pathlib import Path

from ..errors import ReplicationError, ServerError
from ..server.protocol import recv_frame, send_frame
from ..wal.checkpoint import (
    CHECKPOINT_FILE,
    DEFAULT_EVERY_RECORDS,
    JOURNAL_FILE,
    CheckpointManager,
    write_atomic,
)
from ..wal.journal import parse_line
from ..wal.recovery import recover
from .apply import ShipmentApplier

__all__ = ["FollowerCore", "fetch_checkpoint"]

_RECV_POLL = 0.25
_RECV_CHUNK = 1 << 16

#: Coalescing defaults: apply when this many frames piled up ...
DEFAULT_COALESCE_RECORDS = 512
#: ... or when the oldest pending frame has waited this long (seconds).
DEFAULT_COALESCE_DELAY = 0.05


def fetch_checkpoint(
    primary: tuple[str, int], directory: str | Path, sync: str = "flush"
) -> Path:
    """Fetch the primary's newest checkpoint into ``directory``.

    Writes ``checkpoint.json`` and an empty ``journal.log`` (the
    checkpoint supersedes whatever tail a previous life left) through the
    checkpoint's own atomic writer, synced under the ``fsync`` policy, so
    a cut mid-transfer leaves the directory either untouched or fully
    bootstrapped — never half.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with socket.create_connection(primary) as sock:
        send_frame(sock, {"op": "sync", "from_seq": -1})
        reply = recv_frame(sock)
        if not reply.get("ok") or reply.get("mode") != "checkpoint":
            raise ReplicationError(
                f"primary at {primary[0]}:{primary[1]} refused the "
                f"checkpoint fetch: {reply!r}"
            )
        size = int(reply["size"])
        chunks: list[bytes] = []
        remaining = size
        while remaining:
            chunk = sock.recv(min(remaining, _RECV_CHUNK))
            if not chunk:
                raise ReplicationError(
                    f"checkpoint transfer cut at {size - remaining} of {size} bytes"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
    target = directory / CHECKPOINT_FILE
    fsync = sync == "fsync"
    write_atomic(target, b"".join(chunks), fsync=fsync)
    write_atomic(directory / JOURNAL_FILE, b"", fsync=fsync)
    return target


class FollowerCore:
    """Bootstraps a follower directory and keeps it fed from the primary."""

    def __init__(
        self,
        directory: str | Path,
        primary: tuple[str, int],
        sync: str = "flush",
        checkpoint_every: int = DEFAULT_EVERY_RECORDS,
        backoff: float = 0.05,
        max_backoff: float = 1.0,
        coalesce_records: int = DEFAULT_COALESCE_RECORDS,
        coalesce_delay: float = DEFAULT_COALESCE_DELAY,
    ):
        self.directory = Path(directory)
        self.primary = (primary[0], int(primary[1]))
        self.sync = sync
        self.checkpoint_every = checkpoint_every
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.coalesce_records = max(1, int(coalesce_records))
        self.coalesce_delay = coalesce_delay
        self.stop_event = threading.Event()
        self.engine = None
        self.applier: ShipmentApplier | None = None
        #: monitoring counters.
        self.connects = 0
        self.frames_received = 0
        self.last_error: str | None = None

    # -- bootstrap ------------------------------------------------------------

    def bootstrap(self):
        """Recover the local directory, fetching a checkpoint if empty.

        Returns the engine in follower mode: from here on its journal is
        fed by shipped frames only, sequenced by the :class:`ShipmentApplier`.
        """
        if not CheckpointManager(self.directory).has_checkpoint():
            fetch_checkpoint(self.primary, self.directory, sync=self.sync)
        engine = recover(
            self.directory, sync=self.sync, checkpoint_every=self.checkpoint_every
        )
        engine.follow()
        self.engine = engine
        self.applier = ShipmentApplier(engine)
        return engine

    @property
    def applied_seq(self) -> int:
        return self.applier.applied_seq if self.applier is not None else -1

    # -- streaming ------------------------------------------------------------

    def run(self, apply=None) -> None:
        """Stream until stopped, reconnecting with backoff after cuts.

        ``apply`` receives ``[(record, line), ...]`` batches; it defaults
        to the local applier, and a follower node injects its service
        admission so applies serialize with reads.  Divergence and
        sequence gaps (:class:`ReplicationError`) are fatal and propagate.
        """
        if self.applier is None:
            raise ReplicationError("bootstrap() the follower before run()")
        if apply is None:
            apply = self.applier.apply_lines
        backoff = self.backoff
        while not self.stop_event.is_set():
            try:
                self._stream_once(apply)
                backoff = self.backoff  # a successful session resets it
            except (OSError, ServerError) as exc:
                self.last_error = f"{type(exc).__name__}: {exc}"
            if self.stop_event.wait(backoff):
                return
            backoff = min(backoff * 2, self.max_backoff)

    def _stream_once(self, apply) -> None:
        with socket.create_connection(self.primary) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.connects += 1
            send_frame(sock, {"op": "sync", "from_seq": self.applier.applied_seq})
            reply = recv_frame(sock)
            if not reply.get("ok"):
                raise ReplicationError(f"primary refused sync: {reply!r}")
            if reply.get("mode") != "stream":
                # The primary checkpointed past our seq and out of its
                # shipping buffer.  A live engine cannot be swapped under
                # its readers; the operator restarts the follower, whose
                # empty-handed bootstrap then takes the checkpoint path.
                raise ReplicationError(
                    f"follower at seq {self.applier.applied_seq} fell behind "
                    "the primary's checkpoint; restart it to re-bootstrap"
                )
            self._pump(sock, apply)

    def _pump(self, sock: socket.socket, apply) -> None:
        sock.settimeout(_RECV_POLL)
        buffer = bytearray()
        pending: list[tuple[dict, bytes]] = []
        pending_since = 0.0

        def flush() -> None:
            nonlocal pending
            if pending:
                batch, pending = pending, []
                apply(batch)
                self.frames_received += len(batch)

        try:
            while not self.stop_event.is_set():
                try:
                    chunk = sock.recv(_RECV_CHUNK)
                except TimeoutError:
                    flush()  # stream gone quiet: publish what we hold
                    continue
                if not chunk:
                    return  # primary hung up cleanly
                buffer += chunk
                while True:
                    newline = buffer.find(b"\n")
                    if newline == -1:
                        break  # partial frame stays buffered, never applied
                    line = bytes(buffer[: newline + 1])
                    del buffer[: newline + 1]
                    record = parse_line(line[:-1])
                    if record is None:
                        raise ReplicationError(
                            "unreadable shipped frame (CRC or codec mismatch)"
                        )
                    if not pending:
                        pending_since = time.monotonic()
                    pending.append((record, line))
                if len(pending) >= self.coalesce_records or (
                    pending
                    and time.monotonic() - pending_since >= self.coalesce_delay
                ):
                    flush()
        finally:
            # Complete frames are applied even as the session ends — a cut
            # mid-accumulation must not discard them (they would only be
            # re-shipped and skipped as duplicates after reconnect anyway),
            # and promotion must not lose a received-but-unapplied tail.
            flush()

    def stop(self) -> None:
        self.stop_event.set()

    def close(self) -> None:
        self.stop()
        if self.engine is not None:
            self.engine.close()
