"""The concurrent provenance service (PR 5).

A long-lived network surface over the update engine: an asyncio TCP
server speaking a length-prefixed JSON protocol, a single-writer
admission queue with automatic run fusion, snapshot-isolated provenance
readers, and a blocking client.  See ``docs/ARCHITECTURE.md`` (server
section) and ``docs/OPERATIONS.md`` for deployment semantics.
"""

from .client import ServerClient
from .protocol import DEFAULT_PORT, MAX_FRAME, encode_frame, read_frame, recv_frame, send_frame
from .server import ProvenanceServer, ServerHandle, serve_in_thread
from .service import ProvenanceService, ServerConfig, build_engine

__all__ = [
    "DEFAULT_PORT",
    "MAX_FRAME",
    "ProvenanceServer",
    "ProvenanceService",
    "ServerClient",
    "ServerConfig",
    "ServerHandle",
    "build_engine",
    "encode_frame",
    "read_frame",
    "recv_frame",
    "send_frame",
    "serve_in_thread",
]
