"""The live-view push path over a real server: subscribe to lag-and-drop.

Every test hosts the asyncio server on a background thread and drives it
over TCP.  Because the client re-interns pushed expressions in this very
process, the view-maintenance checks assert full bit-identity: the
delta-maintained answer set holds the *identical* interned expression
object a fresh ``state`` capture shows at the same version.
"""

from __future__ import annotations

import pytest

from repro.db.database import Database
from repro.errors import ServerError
from repro.queries.pattern import Pattern
from repro.queries.updates import Insert, Modify, Transaction
from repro.server import ServerClient, ServerConfig, serve_in_thread
from repro.server.protocol import PROTOCOL_REVISION


def serve(**overrides):
    database = Database.from_rows("R", ["a", "b"], [(0, 0), (1, 1)])
    overrides.setdefault("policy", "normal_form")
    return serve_in_thread(database, ServerConfig(port=0, **overrides))


def txn(name: str, a: int, b: int) -> Transaction:
    return Transaction(name, [Insert("R", (a, b))])


def catch_up(subscription, target: int, timeout: float = 30.0):
    events = []
    while subscription.version < target:
        event = subscription.next(timeout=timeout)
        assert event is not None, f"no push before version {target}"
        events.append(event)
    return events


def assert_matches_state(subscription, client):
    expected = {
        row: payload
        for row, payload in client.state()["R"].items()
        if subscription.pattern is None or subscription.pattern.matches(row)
    }
    assert subscription.rows.keys() == expected.keys()
    for row, (expr, live) in expected.items():
        got_expr, got_live = subscription.rows[row]
        assert got_expr is expr, row
        assert got_live == live, row


def test_subscription_tracks_writes_bit_identically():
    with serve() as handle:
        with ServerClient(handle.host, handle.port) as writer, ServerClient(
            handle.host, handle.port
        ) as reader:
            subscription = reader.subscribe("R")
            start = subscription.version
            assert subscription.rows.keys() == {(0, 0), (1, 1)}

            writer.apply(txn("t0", 2, 2))
            writer.apply(Transaction("t1", [Modify("R", Pattern(2, eq={0: 0}), {1: 9})]))
            events = catch_up(subscription, start + 2)
            assert all(event.lag is not None and event.lag >= 0 for event in events)
            assert_matches_state(subscription, reader)

            subscription.unsubscribe()
            assert not subscription.active
            writer.apply(txn("t2", 3, 3))
            assert subscription.next(timeout=0.2) is None


def test_pattern_scoped_subscription_sees_only_its_slice():
    with serve() as handle:
        with ServerClient(handle.host, handle.port) as writer, ServerClient(
            handle.host, handle.port
        ) as reader:
            subscription = reader.subscribe("R", Pattern(2, eq={0: 0}))
            start = subscription.version
            assert subscription.rows.keys() == {(0, 0)}

            # One batch touching the slice, one entirely outside it.
            writer.apply(Transaction("t0", [Insert("R", (0, 5)), Insert("R", (7, 7))]))
            catch_up(subscription, start + 1)
            assert subscription.rows.keys() == {(0, 0), (0, 5)}
            assert_matches_state(subscription, reader)

            # An untouched slice publishes no frame at all: versions only
            # advance on batches that matched, so the view stays at its
            # last-touched version while remaining correct.
            writer.apply(txn("t1", 8, 8))
            assert subscription.next(timeout=0.3) is None
            assert subscription.version == start + 1
            assert_matches_state(subscription, reader)


def test_ping_reports_protocol_revision():
    with serve() as handle:
        with ServerClient(handle.host, handle.port) as client:
            assert client.ping()["protocol"] == PROTOCOL_REVISION


def test_unsubscribe_is_per_connection():
    with serve() as handle:
        with ServerClient(handle.host, handle.port) as owner, ServerClient(
            handle.host, handle.port
        ) as intruder:
            subscription = owner.subscribe("R")
            with pytest.raises(ServerError, match="does not belong to this connection"):
                intruder._call("unsubscribe", subscription=subscription.view_id)
            # Still live for its owner.
            start = subscription.version
            intruder.apply(txn("t0", 4, 4))
            catch_up(subscription, start + 1)
            subscription.unsubscribe()


def test_subscribe_rejected_for_unknown_relation_and_bad_pattern():
    with serve() as handle:
        with ServerClient(handle.host, handle.port) as client:
            with pytest.raises(ServerError, match="unknown relation"):
                client.subscribe("missing")
            with pytest.raises(ServerError, match="arity"):
                client.subscribe("R", Pattern(3, eq={0: 1}))


def test_subscribe_rejected_on_mv_backend():
    with serve(policy="mv_tree") as handle:
        with ServerClient(handle.host, handle.port) as client:
            with pytest.raises(ServerError, match="cannot maintain live views"):
                client.subscribe("R")


def test_slow_consumer_is_dropped_with_a_lagged_notice():
    # Frames carry the transaction name into the expression node table, so a
    # long annotation makes each push large enough that an unread reader's
    # socket (and then its send queue) fills within a few hundred writes.
    with serve(push_backlog=4) as handle:
        with ServerClient(handle.host, handle.port) as writer, ServerClient(
            handle.host, handle.port
        ) as reader:
            subscription = reader.subscribe("R")
            big = "x" * 65536
            for index in range(400):
                writer.apply(Transaction(f"{big}{index}", [Insert("R", (2, index))]))
                if not subscription.active:
                    break
                # The reader never drains; pushes pile up server-side.
            events = subscription.drain(timeout=30.0)
            assert subscription.lagged, "backlog never tripped the drop"
            assert not subscription.active
            assert events[-1].lagged and events[-1].batch is None

            # The connection itself survives: plain requests still answer,
            # and a fresh subscribe starts a clean stream.
            assert reader.ping()["protocol"] == PROTOCOL_REVISION
            fresh = reader.subscribe("R")
            start = fresh.version
            writer.apply(txn("small", 3, 3))
            catch_up(fresh, start + 1)
            assert_matches_state(fresh, reader)


def test_pushes_interleave_with_pipelined_responses():
    with serve() as handle:
        with ServerClient(handle.host, handle.port) as client:
            subscription = client.subscribe("R")
            start = subscription.version
            items = [txn(f"t{i}", 10 + i, i) for i in range(20)]
            # Pushed frames land between the pipelined responses on the
            # same connection; the demux must deliver all 20 responses in
            # order and queue every push.
            assert client.apply_pipelined(items) == 20
            catch_up(subscription, start + 20)
            assert_matches_state(subscription, client)
