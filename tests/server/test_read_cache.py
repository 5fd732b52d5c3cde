"""Read replies are encoded once per published version.

``provenance`` and ``state`` replies are cached, as finished wire
frames, on the snapshot they were built from.  These tests count the
server's ``encode_capture`` calls across repeated reads, compare each
reply's raw bytes with an uncached encoding of the same payload, and
check that a new version, or a reply too large to frame, is never
answered from the cache.
"""

from __future__ import annotations

import json
import socket
import struct

import pytest

import repro.server.protocol as protocol
import repro.server.server as server_module
from repro.engine.engine import Engine
from repro.engine.oracle import assert_bit_identical
from repro.errors import ServerError
from repro.server import ServerClient, ServerConfig, serve_in_thread
from repro.server.protocol import encode_frame, send_frame
from repro.shard.codec import decode_capture, encode_capture
from repro.workloads.synthetic import SyntheticConfig, synthetic_database, synthetic_log

POLICY = "normal_form_batch"
RELATION = "synthetic"
READS = 5


def small_workload():
    config = SyntheticConfig(
        n_tuples=200, n_queries=24, n_groups=6, group_size=3,
        queries_per_transaction=4, seed=5,
    )
    return synthetic_database(config), list(synthetic_log(config).items)


def count_encodes(monkeypatch) -> list[int]:
    """Count the server's ``encode_capture`` calls (one per encoded reply)."""
    calls = [0]

    def counted(capture):
        calls[0] += 1
        return encode_capture(capture)

    monkeypatch.setattr(server_module, "encode_capture", counted)
    return calls


class RawConnection:
    """A bare socket that returns each reply frame as the bytes sent."""

    def __init__(self, address: tuple[str, int]):
        self.sock = socket.create_connection(address)
        self.stream = self.sock.makefile("rb")

    def request(self, **payload) -> bytes:
        send_frame(self.sock, payload)
        header = self.stream.read(4)
        (length,) = struct.unpack(">I", header)
        return header + self.stream.read(length)

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


def body(frame: bytes) -> dict:
    return json.loads(frame[4:])


def test_repeated_reads_of_one_version_encode_once(monkeypatch):
    database, items = small_workload()
    direct = Engine(database, policy=POLICY)
    calls = count_encodes(monkeypatch)
    with serve_in_thread(database, ServerConfig(policy=POLICY)) as handle:
        raw = RawConnection(handle.address)
        try:
            with ServerClient(handle.host, handle.port) as writer:
                writer.apply(items[0])
                direct.apply(items[0])
                version = writer.last_version

                frames = [raw.request(op="provenance", relation=RELATION) for _ in range(READS)]
                assert calls[0] == 1
                expected = encode_frame(
                    {
                        "ok": True,
                        "version": version,
                        "rows": encode_capture({RELATION: direct.capture()[RELATION]}),
                    }
                )
                assert all(frame == expected for frame in frames)
                decoded = decode_capture(body(frames[0])["rows"])
                assert_bit_identical(decoded, {RELATION: direct.capture()[RELATION]})

                states = [raw.request(op="state") for _ in range(READS)]
                assert calls[0] == 2
                expected = encode_frame(
                    {
                        "ok": True,
                        "version": version,
                        "relations": encode_capture(direct.capture()),
                    }
                )
                assert all(frame == expected for frame in states)
                assert_bit_identical(decode_capture(body(states[0])["relations"]), direct)

                # A write publishes a new version: the next read encodes
                # exactly once more, and every read after it is cached.
                writer.apply(items[1])
                direct.apply(items[1])
                assert writer.last_version > version
                after = [raw.request(op="provenance", relation=RELATION) for _ in range(READS)]
                assert calls[0] == 3
                assert len(set(after)) == 1
                assert body(after[0])["version"] == writer.last_version
                decoded = decode_capture(body(after[0])["rows"])
                assert_bit_identical(decoded, {RELATION: direct.capture()[RELATION]})
                assert_bit_identical(writer.state(), direct)
        finally:
            raw.close()


def test_oversized_reply_answers_the_error_and_caches_nothing(monkeypatch):
    database, _items = small_workload()
    calls = count_encodes(monkeypatch)
    with serve_in_thread(database, ServerConfig(policy=POLICY)) as handle:
        with ServerClient(handle.host, handle.port) as client:
            with monkeypatch.context() as small:
                # Large enough for requests and error replies, far too
                # small for a capture of 200 rows.
                small.setattr(protocol, "MAX_FRAME", 512)
                for _ in range(2):
                    with pytest.raises(ServerError, match="exceeds MAX_FRAME=512"):
                        client.provenance(RELATION)
                    with pytest.raises(ServerError, match="exceeds MAX_FRAME=512"):
                        client.state()
                assert client.ping()["protocol"] == protocol.PROTOCOL_REVISION
            # Every failed read encoded afresh (nothing was cached), and
            # the first read that fits encodes once and is then cached.
            assert calls[0] == 4
            rows = client.provenance(RELATION)
            client.provenance(RELATION)
            assert calls[0] == 5
            assert len(rows) == 200
