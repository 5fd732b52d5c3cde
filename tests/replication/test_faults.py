"""Fault-injection sweep for journal shipping (ISSUE 10 acceptance).

A byte-budget TCP proxy sits between a follower and the primary's
shipping listener and kills the first session after exactly N forwarded
bytes — swept over **every frame boundary and inside every frame** of
the shipped stream, including inside the control frame that precedes
it.  After each cut the follower must reconnect, resume from its last
durable sequence, and converge to a journal holding every sequence
exactly once — no frame applied twice, none skipped — with state
bit-identical to the primary's.

The checkpoint transfer gets the same treatment: a cut mid-transfer
must leave the follower directory either untouched or fully
bootstrapped, never half.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.db.database import Database
from repro.engine.oracle import assert_bit_identical
from repro.errors import ReplicationError, ServerError
from repro.queries.pattern import Pattern
from repro.queries.updates import Delete, Insert, Modify, Transaction
from repro.replication import follower as follower_module
from repro.replication.follower import FollowerCore, fetch_checkpoint
from repro.replication.hub import ReplicationHub, ReplicationListener
from repro.server.protocol import encode_frame
from repro.wal import JournaledEngine
from repro.wal.checkpoint import CHECKPOINT_FILE, JOURNAL_FILE
from repro.wal.journal import tail_journal

POLICY = "normal_form_batch"


def fresh_database():
    return Database.from_rows("R", ["a", "b"], [(i, i % 3) for i in range(9)])


def shipping_log():
    return [
        Transaction("p", [Delete("R", Pattern(2, eq={1: 0})), Insert("R", (100, 100))]),
        Transaction("q", [Modify("R", Pattern(2, eq={1: 1}), {1: 7})]),
        Transaction("r", [Delete("R", Pattern(2, eq={1: 7})), Insert("R", (101, 7))]),
        Transaction("s", [Modify("R", Pattern(2, eq={1: 7}), {0: 0})]),
    ]


def wait_until(predicate, timeout: float = 20.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out waiting for {message}")
        time.sleep(0.005)


class CuttingProxy:
    """A TCP proxy that cuts chosen sessions after a byte budget.

    ``budget_for(session_index)`` returns how many upstream->client bytes
    that session may forward before both sides are torn down (``None`` =
    unlimited).  Client->upstream bytes (the follower's sync requests)
    always flow — the cut models the shipping direction dying mid-frame.
    """

    def __init__(self, upstream: tuple[str, int], budget_for):
        self.upstream = upstream
        self.budget_for = budget_for
        self.sessions = 0
        self._server = socket.create_server(("127.0.0.1", 0))
        self._server.settimeout(0.1)
        self.address = self._server.getsockname()[:2]
        self._stop = threading.Event()
        self._socks: set = set()
        self._lock = threading.Lock()
        self._accepter = threading.Thread(target=self._accept_loop, daemon=True)
        self._accepter.start()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                client, _ = self._server.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            session = self.sessions
            self.sessions += 1
            try:
                server = socket.create_connection(self.upstream)
            except OSError:
                client.close()
                continue
            with self._lock:
                self._socks.update({client, server})
            budget = self.budget_for(session)
            threading.Thread(
                target=self._pump, args=(client, server, None), daemon=True
            ).start()
            threading.Thread(
                target=self._pump, args=(server, client, budget), daemon=True
            ).start()

    def _pump(self, src: socket.socket, dst: socket.socket, budget) -> None:
        remaining = budget
        try:
            while True:
                data = src.recv(4096)
                if not data:
                    break
                if remaining is not None:
                    data = data[:remaining]
                    remaining -= len(data)
                if data:
                    dst.sendall(data)
                if remaining == 0:
                    break  # budget exhausted: the cut
        except OSError:
            pass
        finally:
            for sock in (src, dst):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                sock.close()

    def close(self) -> None:
        self._stop.set()
        self._server.close()
        with self._lock:
            socks = list(self._socks)
        for sock in socks:
            sock.close()


@pytest.fixture
def primary(tmp_path):
    """A journaled primary with the whole shipping log already applied."""
    engine = JournaledEngine(fresh_database(), tmp_path / "primary", policy=POLICY)
    engine.apply(shipping_log())
    hub = ReplicationHub(engine.journal)
    listener = ReplicationListener(hub, engine.checkpoints.checkpoint_path)
    try:
        yield engine, listener
    finally:
        listener.stop()
        engine.journal.close()


def converge_follower(directory, address, expect_seq, prefetch_from=None):
    """Bootstrap a follower against ``address`` and wait for ``expect_seq``.

    ``prefetch_from`` fetches the checkpoint directly (off-proxy) first,
    so the byte budget applies to the shipping stream alone.  Returns the
    stopped :class:`FollowerCore` for inspection.
    """
    if prefetch_from is not None:
        fetch_checkpoint(prefetch_from, directory)
    core = FollowerCore(
        directory,
        address,
        backoff=0.01,
        max_backoff=0.05,
        coalesce_delay=0.0,  # apply frames as they land: prompt convergence
        checkpoint_every=10**9,  # keep every shipped record in the journal
    )
    core.bootstrap()
    runner = threading.Thread(target=core.run, daemon=True)
    runner.start()
    try:
        wait_until(
            lambda: core.applied_seq >= expect_seq,
            message=f"follower to reach seq {expect_seq} (at {core.applied_seq})",
        )
    finally:
        core.stop()
        runner.join(timeout=10)
    return core


def stream_cut_budgets(lines, reply: bytes) -> list[int]:
    """Every frame boundary and a spread of mid-frame offsets."""
    budgets = [0, 1, len(reply) // 2, len(reply) - 1]  # inside the control frame
    offset = len(reply)
    for line in lines:
        budgets.append(offset)  # boundary: previous frame complete
        budgets.append(offset + 1)  # first byte of this frame
        budgets.append(offset + len(line) // 2)  # torn mid-frame
        offset += len(line)
    budgets.append(offset)  # clean end of the whole stream
    return budgets


def test_cut_at_every_frame_boundary_and_midframe(tmp_path, primary):
    engine, listener = primary
    last_seq = engine.journal.last_seq
    tail = tail_journal(engine.checkpoints.journal_path, 0)
    assert tail.last_seq == last_seq and not tail.pending_bytes
    reply = encode_frame({"ok": True, "mode": "stream", "from_seq": 0})

    for budget in stream_cut_budgets(tail.lines, reply):
        proxy = CuttingProxy(
            listener.address, lambda s, b=budget: b if s == 0 else None
        )
        try:
            directory = tmp_path / f"budget-{budget}"
            core = converge_follower(
                directory, proxy.address, last_seq, prefetch_from=listener.address
            )
        finally:
            proxy.close()
        # The cut actually happened and the follower lived through it.
        assert proxy.sessions >= (2 if budget < len(reply) + sum(map(len, tail.lines)) else 1)
        # No frame applied twice, none skipped: the follower journal holds
        # every shipped sequence exactly once, byte-identical lines.
        follower_tail = tail_journal(core.engine.journal.path, 0)
        assert [r["seq"] for r in follower_tail.records] == list(
            range(1, last_seq + 1)
        ), f"budget {budget}"
        assert follower_tail.lines == tail.lines, f"budget {budget}"
        assert_bit_identical(core.engine, engine)
        core.close()


def test_checkpoint_transfer_cut_is_atomic(tmp_path, primary):
    engine, listener = primary
    last_seq = engine.journal.last_seq
    checkpoint_bytes = engine.checkpoints.checkpoint_path.read_bytes()
    reply = encode_frame(
        {"ok": True, "mode": "checkpoint", "size": len(checkpoint_bytes)}
    )

    cut_points = [
        1,
        len(reply) - 1,
        len(reply),  # control frame complete, zero payload bytes
        len(reply) + 1,
        len(reply) + len(checkpoint_bytes) // 2,
        len(reply) + len(checkpoint_bytes) - 1,
    ]
    for budget in cut_points:
        directory = tmp_path / f"fetch-{budget}"
        proxy = CuttingProxy(
            listener.address, lambda s, b=budget: b if s == 0 else None
        )
        try:
            with pytest.raises((ReplicationError, ServerError)):
                fetch_checkpoint(proxy.address, directory)
            # Atomicity: the cut left no checkpoint and no journal behind.
            assert not (directory / CHECKPOINT_FILE).exists(), f"budget {budget}"
            assert not (directory / JOURNAL_FILE).exists(), f"budget {budget}"
            # The empty-handed retry bootstraps fully and converges.
            core = converge_follower(directory, proxy.address, last_seq)
        finally:
            proxy.close()
        assert_bit_identical(core.engine, engine)
        core.close()


def test_repeated_kills_under_live_appends(tmp_path, primary):
    """Every session dies young while the primary keeps appending."""
    engine, listener = primary
    reply_floor = len(encode_frame({"ok": True, "mode": "stream", "from_seq": 0}))
    budget = reply_floor + 200  # a handful of frames per session, then cut

    stop_appending = threading.Event()

    def append_more() -> None:
        i = 0
        while not stop_appending.is_set():
            engine.apply(Transaction(f"live{i}", [Insert("R", (200 + i, i))]))
            i += 1
            time.sleep(0.002)

    directory = tmp_path / "chased"
    fetch_checkpoint(listener.address, directory)
    proxy = CuttingProxy(listener.address, lambda s: budget)  # EVERY session cut
    core = FollowerCore(
        directory,
        proxy.address,
        backoff=0.01,
        max_backoff=0.05,
        coalesce_delay=0.0,
        checkpoint_every=10**9,
    )
    core.bootstrap()
    runner = threading.Thread(target=core.run, daemon=True)
    appender = threading.Thread(target=append_more, daemon=True)
    appender.start()
    runner.start()
    try:
        # Chase the moving tail through the kills for a genuine stretch.
        wait_until(
            lambda: core.applied_seq >= 60,
            message=f"follower to chase past seq 60 (at {core.applied_seq})",
        )
    finally:
        stop_appending.set()
        appender.join(timeout=10)
    last_seq = engine.journal.last_seq
    try:
        wait_until(
            lambda: core.applied_seq >= last_seq,
            message=f"follower to converge at seq {last_seq} (at {core.applied_seq})",
        )
    finally:
        core.stop()
        runner.join(timeout=10)
        proxy.close()
    assert proxy.sessions > 1  # the kills kept coming; progress survived them
    follower_tail = tail_journal(core.engine.journal.path, 0)
    assert [r["seq"] for r in follower_tail.records] == list(range(1, last_seq + 1))
    assert_bit_identical(core.engine, engine)
    core.close()


def test_listener_stop_wakes_accept_and_joins_every_thread(tmp_path):
    """``stop()`` with a follower mid-stream returns promptly.

    Closing the listening socket from another thread does not wake a
    blocked ``accept()`` on Linux; before the ``shutdown()`` the stop sat
    out its 5 s join timeout and left ``repl-accept`` alive behind it.
    """
    engine = JournaledEngine(fresh_database(), tmp_path / "primary", policy=POLICY)
    engine.apply(shipping_log())
    listener = ReplicationListener(
        ReplicationHub(engine.journal), engine.checkpoints.checkpoint_path
    )
    core = FollowerCore(tmp_path / "follower", listener.address, coalesce_delay=0.0)
    core.bootstrap()
    runner = threading.Thread(target=core.run, daemon=True)
    runner.start()
    try:
        wait_until(
            lambda: core.applied_seq >= engine.last_seq, message="follower to stream"
        )
        began = time.monotonic()
        listener.stop()
        assert time.monotonic() - began < 1.0
        assert not [t.name for t in threading.enumerate() if t.name.startswith("repl-")]
    finally:
        core.stop()
        runner.join(timeout=10)
        assert not runner.is_alive()
        core.close()
        engine.close()


@pytest.mark.parametrize("sync, expected_fsyncs", [("fsync", 4), ("flush", 0)])
def test_bootstrap_fetch_follows_the_sync_policy(
    tmp_path, primary, monkeypatch, sync, expected_fsyncs
):
    """Under ``fsync`` the fetched checkpoint and the emptied journal are
    each synced, file and directory entry, before recovery reads them."""
    _engine, listener = primary
    synced: list[int] = []
    real_fsync = os.fsync

    def counting_fsync(fd: int) -> None:
        synced.append(fd)
        real_fsync(fd)

    class Fetched(Exception):
        pass

    def stop_after_fetch(*_args, **_kwargs):
        raise Fetched

    monkeypatch.setattr(os, "fsync", counting_fsync)
    monkeypatch.setattr(follower_module, "recover", stop_after_fetch)
    directory = tmp_path / "follower"
    with pytest.raises(Fetched):
        FollowerCore(directory, listener.address, sync=sync).bootstrap()
    assert len(synced) == expected_fsyncs
    assert (directory / CHECKPOINT_FILE).exists()
    assert (directory / JOURNAL_FILE).read_bytes() == b""
