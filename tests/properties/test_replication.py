"""Property-based equivalence of shipped-journal replay (ISSUE 10).

A follower fed a primary's journal lines through the
:class:`ShipmentApplier` must reconstruct, at every transaction
boundary, exactly the state a fresh engine reaches by applying the
original transaction prefix directly — same rows, same liveness, and
the very same interned annotation ``Expr`` objects — across the
journal-resumable policies (the only ones a follower can run).  The same
must hold against ``recover()``
on a copy of the primary's directory whose journal is truncated at a
random sequence: shipping and crash recovery are the *same* replay.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, strategies as st

from repro.engine.engine import Engine
from repro.engine.oracle import assert_bit_identical
from repro.replication.apply import ShipmentApplier
from repro.wal.checkpoint import JOURNAL_FILE
from repro.wal.engine import JournaledEngine
from repro.wal.journal import TXN_END, tail_journal
from repro.wal.recovery import recover

from .strategies import databases, logs

POLICIES = ("naive", "normal_form_batch")  # the journal-resumable policies

SEED = 20260808  # fixed: the sweep is reproducible run to run


def journaled_primary(db, log, policy, directory):
    """Apply ``log`` on a journaled primary (checkpoints disabled, so the
    journal keeps every record from sequence 1); return it."""
    engine = JournaledEngine(db, directory, policy=policy, checkpoint_every=10**9)
    engine.apply(log)
    return engine


def follower_of(db, policy, directory):
    """A fresh follower-mode engine at sequence 0, plus its applier."""
    follower = JournaledEngine(db, directory, policy=policy)
    follower.follow()
    return follower, ShipmentApplier(follower)


@pytest.mark.parametrize("policy", POLICIES)
@seed(SEED)
@given(databases, logs())
def test_shipped_replay_matches_direct_application(policy, db, log):
    with tempfile.TemporaryDirectory() as tmp:
        primary = journaled_primary(db, log, policy, Path(tmp) / "primary")
        try:
            tail = tail_journal(primary.journal.path, 0)
        finally:
            primary.journal.close()
        shipments = list(zip(tail.records, tail.lines))
        assert shipments, "every generated log journals at least one record"

        follower, applier = follower_of(db, policy, Path(tmp) / "follower")
        try:
            prefix = 0
            for record, line in shipments:
                applier.apply_lines([(record, line)])
                if record["kind"] == TXN_END:
                    prefix += 1
                    reference = Engine(db, policy=policy)
                    reference.apply(log[:prefix])
                    assert_bit_identical(follower, reference)
            assert prefix == len(log)
            assert applier.applied_seq == follower.last_seq == tail.last_seq
            assert_bit_identical(follower, primary)
        finally:
            follower.close()


@seed(SEED)
@given(databases, logs(), st.data())
def test_truncated_recover_matches_follower_at_seq(db, log, data):
    """Follower state at seq s == recover() of the journal truncated at s."""
    policy = "normal_form_batch"
    with tempfile.TemporaryDirectory() as tmp:
        primary_dir = Path(tmp) / "primary"
        primary = journaled_primary(db, log, policy, primary_dir)
        try:
            tail = tail_journal(primary.journal.path, 0)
        finally:
            primary.journal.close()
        shipments = list(zip(tail.records, tail.lines))

        s = data.draw(
            st.integers(min_value=0, max_value=len(shipments)), label="truncate_seq"
        )
        copy_dir = Path(tmp) / "truncated"
        shutil.copytree(primary_dir, copy_dir)
        (copy_dir / JOURNAL_FILE).write_bytes(b"".join(tail.lines[:s]))
        reference = recover(copy_dir)
        follower, applier = follower_of(db, policy, Path(tmp) / "follower")
        try:
            applier.apply_lines(shipments[:s])
            assert applier.applied_seq == s
            assert_bit_identical(follower, reference)
        finally:
            reference.journal.close()
            follower.close()
