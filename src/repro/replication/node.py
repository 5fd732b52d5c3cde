"""Process-level replication wiring: primaries, follower nodes, promotion.

:func:`serve_primary` hosts an ordinary journaled provenance server and
bolts the shipping side on: a :class:`ReplicationHub` on the engine's
journal plus a :class:`ReplicationListener` followers connect to.

:class:`FollowerNode` is a whole follower: it bootstraps a
:class:`FollowerCore`, serves the full read surface from the recovered
engine through a read-only :class:`ProvenanceService`, and pumps shipped
frames in through the service's ``fold_shipped`` admission — so replication
serializes with reads on the writer thread, readers see whole shipped
batches, and the published snapshot's version is the applied journal
sequence.  Because the follower's version only advances when frames
arrive, repeated reads between shipments are served from the *cached*
published snapshot — the read-scaling lever the replication benchmark
measures.

Promotion (`repro replicate promote`, or the ``promote`` wire op) stops
the shipping stream, joins the receiver, and flips the service's role on
the writer thread; the engine leaves follower mode and continues the
shipped sequence as a writer.
"""

from __future__ import annotations

import asyncio
import threading
from pathlib import Path

from ..errors import ReplicationError, ServerError
from ..server.server import ServerHandle, serve_in_thread
from ..server.service import ProvenanceService, ServerConfig
from .follower import FollowerCore
from .hub import DEFAULT_BUFFER_RECORDS, ReplicationHub, ReplicationListener

__all__ = [
    "DEFAULT_APPLY_BATCH",
    "FollowerNode",
    "PrimaryHandle",
    "choose_promotion_candidate",
    "serve_primary",
]

#: Most shipped records one ``replicate`` admission may carry.  Bulk
#: catch-up (a reconnect after a long outage) can hand the pump tens of
#: thousands of records at once; splitting them bounds any single
#: writer-cycle — the worst-case wait for a reader's snapshot capture —
#: without adding version churn in steady state (the cap sits well above
#: the pump's coalescing threshold, so a normal coalesced batch is one
#: admission and one version bump).
DEFAULT_APPLY_BATCH = 2048


class PrimaryHandle:
    """A serving primary plus its shipping endpoint."""

    def __init__(self, server: ServerHandle, hub: ReplicationHub, listener: ReplicationListener):
        self.server = server
        self.hub = hub
        self.listener = listener

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    @property
    def replication_address(self) -> tuple[str, int]:
        return self.listener.address

    @property
    def service(self) -> ProvenanceService:
        return self.server.service

    def stop(self, checkpoint: bool = True) -> None:
        """Stop shipping first, then the server (its final checkpoint
        would otherwise race followers into a needless resync)."""
        self.listener.stop()
        self.server.stop(checkpoint=checkpoint)

    def __enter__(self) -> "PrimaryHandle":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


def serve_primary(
    database=None,
    config: ServerConfig | None = None,
    replication_host: str = "127.0.0.1",
    replication_port: int = 0,
    buffer_records: int = DEFAULT_BUFFER_RECORDS,
    start_timeout: float = 30.0,
) -> PrimaryHandle:
    """Start a journaled primary with a replication shipping endpoint."""
    config = config or ServerConfig(backend="journaled")
    if config.backend != "journaled":
        raise ServerError(
            f"replication requires backend 'journaled', not {config.backend!r} "
            "(the journal is the wire format)"
        )
    server = serve_in_thread(database, config, start_timeout=start_timeout)
    engine = server.service.engine
    hub = ReplicationHub(engine.journal, buffer_records=buffer_records)
    listener = ReplicationListener(
        hub,
        engine.checkpoints.checkpoint_path,
        host=replication_host,
        port=replication_port,
    )
    return PrimaryHandle(server, hub, listener)


class FollowerNode:
    """One follower process: bootstrap, serve reads, pump the stream."""

    def __init__(
        self,
        directory: str | Path,
        primary: tuple[str, int],
        config: ServerConfig | None = None,
        apply_batch: int = DEFAULT_APPLY_BATCH,
    ):
        self.apply_batch = max(1, int(apply_batch))
        self.directory = Path(directory)
        self.config = config or ServerConfig(backend="journaled")
        self.config.backend = "journaled"
        self.config.directory = str(self.directory)
        self.core = FollowerCore(
            self.directory,
            primary,
            sync=self.config.sync,
            checkpoint_every=self.config.checkpoint_every,
        )
        self._handle: ServerHandle | None = None
        self._receiver: threading.Thread | None = None
        #: fatal stream failure (divergence, sequence gap, fell behind).
        self.stream_error: str | None = None

    # -- lifecycle ------------------------------------------------------------

    def start(self, start_timeout: float = 30.0) -> "FollowerNode":
        engine = self.core.bootstrap()

        def factory() -> ProvenanceService:
            service = ProvenanceService(engine, self.config)
            service.follow()
            service.replication = self._replication_info
            service.promoter = self.promote
            return service

        self._handle = serve_in_thread(
            config=self.config, service_factory=factory, start_timeout=start_timeout
        )
        self._receiver = threading.Thread(
            target=self._receive_loop, name="repl-receiver", daemon=True
        )
        self._receiver.start()
        return self

    @property
    def service(self) -> ProvenanceService:
        return self._handle.service

    @property
    def address(self) -> tuple[str, int]:
        return self._handle.address

    @property
    def applied_seq(self) -> int:
        return self.core.applied_seq

    def _replication_info(self) -> dict:
        return {
            "applied_seq": self.core.applied_seq,
            "connects": self.core.connects,
            "frames_received": self.core.frames_received,
            "primary": f"{self.core.primary[0]}:{self.core.primary[1]}",
            "last_error": self.core.last_error,
            "stream_error": self.stream_error,
        }

    # -- the stream pump -------------------------------------------------------

    def _await(self, admission, timeout: float | None = None):
        """Wait (off-loop) for a service admission's result."""
        return asyncio.run_coroutine_threadsafe(
            admission, self._handle._loop
        ).result(timeout)

    def _ship(self, shipments: list) -> None:
        # Hop onto the service's writer and wait for it — the receiver
        # thread never outruns the writer, which is the natural
        # backpressure bounding memory under a fast primary, and readers
        # see whole shipped batches.  Chunked to ``apply_batch`` records
        # per admission so concurrent reads never wait out one giant
        # catch-up batch on the writer.
        for base in range(0, len(shipments), self.apply_batch):
            chunk = shipments[base : base + self.apply_batch]
            self._await(
                self.service.fold_shipped(
                    lambda chunk=chunk: self.core.applier.apply_lines(chunk)
                )
            )

    def _receive_loop(self) -> None:
        try:
            self.core.run(apply=self._ship)
        except ReplicationError as exc:
            self.stream_error = str(exc)
        except ServerError:
            pass  # service shut down under the stream; stop() is running

    # -- promotion -------------------------------------------------------------

    def promote(self) -> dict:
        """Stop the stream, join the receiver, flip the role.  Blocking —
        callable from the ``promote`` wire op's executor hop or directly."""
        self.core.stop()
        if self._receiver is not None:
            self._receiver.join(timeout=30)
            if self._receiver.is_alive():  # pragma: no cover - stuck pump
                raise ReplicationError("stream receiver did not stop in time")
        if self.stream_error is not None:
            raise ReplicationError(
                f"cannot promote a diverged follower: {self.stream_error}"
            )
        return self._await(
            self.service.leave_follower(self.core.applier.promote), timeout=30
        )

    def stop(self, checkpoint: bool = True) -> None:
        self.core.stop()
        if self._receiver is not None:
            self._receiver.join(timeout=30)
        if self._handle is not None:
            self._handle.stop(checkpoint=checkpoint)

    def __enter__(self) -> "FollowerNode":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


def choose_promotion_candidate(clients) -> tuple[object, int]:
    """The most-advanced follower among ``clients`` (ServerClient-like).

    Returns ``(client, applied_seq)``; promotion should pick this one so
    no shipped-and-applied transaction is lost.  Raises when none of the
    clients is a follower.
    """
    best, best_seq = None, -1
    for client in clients:
        try:
            info = client.stats()["server"]
        except ServerError:
            continue  # unreachable follower cannot be a candidate
        if info.get("role") != "follower":
            continue
        seq = int(info.get("version", -1))
        if seq > best_seq:
            best, best_seq = client, seq
    if best is None:
        raise ReplicationError("no reachable follower to promote")
    return best, best_seq
