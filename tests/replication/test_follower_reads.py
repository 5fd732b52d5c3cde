"""A follower's reads follow its shipped batches, never a stale frame.

The follower serves ``provenance`` and ``state`` from its published
snapshot, and the encoded reply is cached on that snapshot.  A read
taken after the follower applies a newly shipped batch must report the
new version and the new rows, bit-identical to the primary's.
"""

from __future__ import annotations

import time

import pytest

from repro.db.database import Database
from repro.engine.oracle import assert_bit_identical
from repro.queries.updates import Insert, Transaction
from repro.replication.node import FollowerNode, serve_primary
from repro.server import ServerClient, ServerConfig

POLICY = "normal_form_batch"
RELATION = "R"


def wait_until(predicate, timeout: float = 20.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out waiting for {message}")
        time.sleep(0.01)


def version_of(client: ServerClient) -> int:
    return int(client.stats()["server"]["version"])


def txn(i: int) -> Transaction:
    return Transaction(f"t{i}", [Insert(RELATION, (100 + i, i))])


def test_follower_read_after_a_shipped_batch_is_never_a_cached_older_frame(tmp_path):
    database = Database.from_rows(RELATION, ["a", "b"], [(i, i % 3) for i in range(9)])
    config = ServerConfig(backend="journaled", directory=str(tmp_path / "primary"), policy=POLICY)
    with serve_primary(database, config) as primary:
        with ServerClient(*primary.address) as writer:
            writer.apply(txn(0))
            with FollowerNode(tmp_path / "follower", primary.replication_address).start() as node:
                with ServerClient(*node.address, connect_retry=10.0) as reader:
                    seen = set()
                    for i in range(1, 4):
                        seq = writer.last_seq
                        wait_until(
                            lambda: version_of(reader) >= seq,
                            message=f"follower to apply seq {seq}",
                        )
                        # Twice at one version: the second read is the
                        # cached frame, and both carry the same rows.
                        first = reader.provenance(RELATION)
                        assert reader.last_version == seq
                        assert reader.provenance(RELATION) == first
                        assert reader.last_version == seq
                        state = reader.state()
                        assert reader.last_version == seq
                        assert_bit_identical(state, writer.state())
                        assert (100 + i - 1, i - 1) in {row for row, _expr, _live in first}
                        assert seq not in seen
                        seen.add(seq)
                        writer.apply(txn(i))
