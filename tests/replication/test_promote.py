"""Promote-on-failure: kill the primary, promote, lose nothing acked.

Real process topology (``repro replicate`` subprocesses over TCP): a
primary takes acknowledged transactions, two followers ship them, the
primary is SIGKILLed, and :func:`choose_promotion_candidate` picks the
most-advanced follower for ``promote``.  Every acknowledged transaction
must survive the failover, writes must continue against the promoted
node on the shipped journal sequence, and the re-pointed run's final
state must be bit-identical to a direct single-engine replay of the
same transaction stream — the failover changed who holds the pen, not
what got written.
"""

from __future__ import annotations

import time

import pytest

from repro.db.database import Database
from repro.engine.engine import Engine
from repro.engine.oracle import assert_bit_identical
from repro.queries.updates import Insert, Transaction
from repro.replication.client import ReplicatedClient
from repro.replication.node import choose_promotion_candidate
from repro.replication.process import spawn_follower, spawn_primary
from repro.server.client import ServerClient

POLICY = "normal_form_batch"
RELATION = "events"

ACKED_TXNS = 25  # transactions acknowledged before the crash
POST_TXNS = 15  # transactions written against the promoted node


def txn(i: int) -> Transaction:
    return Transaction(f"t{i}", [Insert(RELATION, (i, f"v{i}"))])


def wait_until(predicate, timeout: float = 30.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out waiting for {message}")
        time.sleep(0.01)


def version_of(client: ServerClient) -> int:
    return int(client.stats()["server"]["version"])


def test_promote_most_advanced_follower_loses_no_acked_txn(tmp_path):
    primary = spawn_primary(
        tmp_path / "primary", schema=[f"{RELATION}:id,value"], policy=POLICY
    )
    nodes = []
    clients = []
    client = None
    try:
        for i in range(2):
            nodes.append(
                spawn_follower(tmp_path / f"follower-{i}", primary.replication_address)
            )
        client = ReplicatedClient(
            primary.address,
            [node.address for node in nodes],
            max_lag=10**9,
            connect_retry=10.0,
        )
        for i in range(ACKED_TXNS):
            client.apply(txn(i))
        acked_seq = client.last_write_seq
        assert acked_seq == 2 * ACKED_TXNS  # one query + one txn_end each

        # Quiesce shipping until at least one follower holds every
        # acknowledged record: asynchronous shipping can only promise
        # "no acked transaction lost" for what has actually shipped, so
        # the operator's runbook promotes the *most-advanced* follower
        # once the stream has drained.
        clients = [ServerClient(*node.address, connect_retry=10.0) for node in nodes]
        wait_until(
            lambda: max(version_of(c) for c in clients) >= acked_seq,
            message=f"a follower to reach acked seq {acked_seq}",
        )

        primary.kill()  # the crash: SIGKILL, no flush, no goodbye
        wait_until(lambda: not primary.alive(), message="primary to die")

        candidate, candidate_seq = choose_promotion_candidate(clients)
        assert candidate_seq >= acked_seq  # most-advanced holds every ack
        outcome = candidate.promote()
        assert outcome == {"role": "primary", "seq": candidate_seq}
        assert candidate.stats()["server"]["role"] == "primary"

        # No acknowledged transaction was lost across the failover.
        promoted_state = candidate.state()
        for i in range(ACKED_TXNS):
            ann, live = promoted_state[RELATION][(i, f"v{i}")]
            assert live, i

        # Re-point writes at the promoted node; the journal sequence
        # continues where the shipped stream left off.
        promoted = nodes[clients.index(candidate)]
        client.repoint(promoted.address)
        for i in range(ACKED_TXNS, ACKED_TXNS + POST_TXNS):
            client.apply(txn(i))
        assert client.last_write_seq == candidate_seq + 2 * POST_TXNS

        # The re-pointed run is bit-identical to a direct replay of the
        # same transaction stream on one engine that never failed over.
        reference = Engine(
            Database.from_rows(RELATION, ["id", "value"], []), policy=POLICY
        )
        reference.apply([txn(i) for i in range(ACKED_TXNS + POST_TXNS)])
        assert_bit_identical(candidate.state(), reference)
    finally:
        if client is not None:
            client.close()
        for c in clients:
            c.close()
        for node in nodes:
            node.stop()
        primary.kill()
