"""Engine-contract conformance: every backend, one quiescent-point surface.

The same seeded log lands on a plain, a journaled, a crash-recovered and
a follower-mode engine.  Every ``capture()`` must be bit-identical to direct
replay (the shared oracle), and every contract method — the table in
``docs/ARCHITECTURE.md``, "Engine contract" — must either return its
documented shape or raise its documented :class:`EngineError`.
"""

from __future__ import annotations

import pytest

from repro.db.database import Database
from repro.engine.engine import Engine
from repro.engine.oracle import assert_bit_identical, bit_identical
from repro.errors import EngineError
from repro.queries.pattern import Pattern
from repro.queries.updates import Insert, Transaction
from repro.replication.apply import ShipmentApplier
from repro.wal import JournaledEngine, recover
from repro.wal.journal import tail_journal
from repro.workloads.synthetic import synthetic_workload

POLICY = "normal_form_batch"  # journal-resumable, and defers work to flushes
RELATION = "synthetic"
KINDS = ("plain", "journaled", "recovered", "follower")
#: kinds with one durable journal sequence / kinds that can checkpoint now.
SEQUENCED = {"journaled", "recovered", "follower"}
CHECKPOINTING = {"journaled", "recovered"}


@pytest.fixture(scope="module")
def workload():
    return synthetic_workload(
        n_tuples=200,
        n_queries=45,
        n_groups=6,
        group_size=3,
        queries_per_transaction=3,
        seed=13,
    )


@pytest.fixture(scope="module")
def reference(workload):
    return Engine(workload.database, policy=POLICY).apply(workload.log)


class Backend:
    """One engine under test plus the way updates reach it."""

    def __init__(self, kind, workload, tmp_path):
        database, log = workload.database, list(workload.log.items)
        self.kind = kind
        self._primary = self._shipped = None
        if kind == "plain":
            self.engine = Engine(database, policy=POLICY)
        elif kind == "journaled":
            self.engine = JournaledEngine(database, tmp_path, policy=POLICY)
        elif kind == "recovered":
            crashed = JournaledEngine(
                database, tmp_path, policy=POLICY, checkpoint_every=20
            )
            crashed.apply(log[: len(log) // 2])
            crashed.journal.close()  # the crash: no final checkpoint
            self.engine = recover(tmp_path)
            assert self.engine.recovery.tail_records > 0
            log = log[len(log) // 2 :]
        elif kind == "follower":
            self._primary = JournaledEngine(
                database, tmp_path / "primary", policy=POLICY, checkpoint_every=10**9
            )
            self._shipped = 0
            self.engine = JournaledEngine(
                # 25 does not divide the 60 shipped records: a tail remains.
                database, tmp_path / "follower", policy=POLICY, checkpoint_every=25
            )
            self.engine.follow()
            self.applier = ShipmentApplier(self.engine)
        self.apply(log)

    def apply(self, items) -> None:
        if self._primary is None:
            self.engine.apply(items)
            return
        self._primary.apply(items)
        tail = tail_journal(self._primary.journal.path, 0)
        shipments = list(zip(tail.records, tail.lines))
        self.applier.apply_lines(shipments[self._shipped :])
        self._shipped = len(shipments)

    def close(self) -> None:
        self.engine.close()
        if self._primary is not None:
            self._primary.close()


@pytest.fixture(params=KINDS)
def backend(request, workload, tmp_path):
    backend = Backend(request.param, workload, tmp_path)
    yield backend
    backend.close()


def test_capture_is_bit_identical_to_direct_replay(backend, reference):
    assert_bit_identical(backend.engine, reference)
    # ... and the oracle is not vacuous: one more insert breaks identity.
    backend.apply([Insert(RELATION, (10**6, 0, 0, 0, 0), "extra")])
    assert not bit_identical(backend.engine, reference)


def test_observation_surface_agrees_with_direct_replay(backend, reference):
    engine = backend.engine
    assert engine.schema.names == reference.schema.names
    assert engine.policy == POLICY and engine.tracks_provenance
    assert engine.tuple_vars() == reference.tuple_vars()
    assert engine.stats.snapshot()["queries"] == reference.stats.queries
    # The read API over the recovered/followed state, not only capture():
    assert engine.result().same_contents(reference.result())
    assert engine.live_rows(RELATION) == reference.live_rows(RELATION)
    assert engine.live_rows(RELATION) == engine.result().rows(RELATION)
    ours = {row: (expr, live) for row, expr, live in engine.provenance(RELATION)}
    theirs = {row: (expr, live) for row, expr, live in reference.provenance(RELATION)}
    assert ours.keys() == theirs.keys()
    for row, (expr, live) in theirs.items():
        assert ours[row][0] is expr and ours[row][1] == live, row
    if backend.kind in SEQUENCED:
        assert engine.last_seq > 0
    else:
        assert engine.last_seq is None


@pytest.mark.parametrize(
    "pattern",
    [Pattern.any(5), Pattern(5, eq={1: 2}), Pattern(5, eq={1: 2}, neq={2: {0}})],
    ids=["any", "indexed", "indexed+residual"],
)
def test_match_rows_is_the_filtered_capture(backend, pattern):
    engine = backend.engine
    expected = {
        row: payload
        for row, payload in engine.capture()[RELATION].items()
        if pattern.matches(row)
    }
    assert expected
    assert_bit_identical(
        {RELATION: engine.match_rows(RELATION, pattern)}, {RELATION: expected}
    )


def test_flush_pending_changes_no_observable_state(backend, reference):
    assert backend.engine.flush_pending() is None
    assert_bit_identical(backend.engine, reference)


def test_attach_deltas_streams_later_mutations_or_rejects(backend):
    engine = backend.engine
    engine.attach_deltas()
    row = (10**6, 1, 0, 0, 0)
    backend.apply([Transaction("later", [Insert(RELATION, row)])])
    deltas = {delta.row: delta for delta in engine.drain_deltas(1)}
    assert deltas[row].kind == "insert" and deltas[row].live
    assert deltas[row].expr is engine.capture()[RELATION][row][0]


def test_checkpoint_writes_or_raises_the_documented_error(backend):
    engine = backend.engine
    if backend.kind in CHECKPOINTING:
        written = engine.checkpoint()
        assert type(written) is int and written >= 0
        return
    message = {
        "plain": "no durable state",
        "follower": "followers checkpoint from the shipped stream",
    }[backend.kind]
    with pytest.raises(EngineError, match=message):
        engine.checkpoint()


def test_close_is_idempotent_and_leaves_the_documented_directory(
    backend, reference, tmp_path
):
    with backend.engine as engine:
        pass  # the context manager is the contract's close(checkpoint=True)
    engine.close()
    if backend.kind in ("journaled", "recovered"):
        reopened = recover(tmp_path)
        assert reopened.recovery.tail_records == 0  # clean: checkpointed
    elif backend.kind == "follower":
        reopened = recover(tmp_path / "follower")
        assert reopened.recovery.tail_records > 0  # never force-checkpointed
    else:
        return
    assert_bit_identical(reopened, reference)
    reopened.close()


def test_follower_rejects_local_writes_until_promoted(workload, reference, tmp_path):
    backend = Backend("follower", workload, tmp_path)
    engine, extra = backend.engine, Insert(RELATION, (10**6, 0, 0, 0, 0), "w")
    for write in (engine.apply, engine.apply_batch):
        with pytest.raises(EngineError, match="read-only follower"):
            write(extra)
    assert_bit_identical(engine, reference)
    shipped_seq = engine.last_seq
    backend.applier.promote()
    with pytest.raises(EngineError, match="follower mode"):
        engine.apply_shipped({"seq": shipped_seq + 1, "kind": "batch_end"}, b"")
    engine.apply(extra)  # a writer again, continuing the shipped sequence
    assert engine.last_seq == shipped_seq + 1
    assert engine.checkpoint() == 1
    backend.close()


# -- what attach_deltas accepts, per policy (plain backend) ---------------------


@pytest.mark.parametrize("policy", ["naive", "normal_form", "normal_form_batch", "none"])
def test_attached_engine_routes_deltas_through_the_sink(policy):
    engine = Engine(Database.from_rows("R", ["a", "b"], [(0, 0)]), policy=policy)
    engine.attach_deltas()
    engine.apply(Insert("R", (1, 1)).annotated("p"))
    kinds = {delta.row: delta.kind for delta in engine.drain_deltas(1)}
    assert kinds[(1, 1)] == "insert"


@pytest.mark.parametrize("policy", ["mv_tree", "mv_string"])
def test_mv_policies_are_rejected_loudly(policy):
    engine = Engine(Database.from_rows("R", ["a", "b"], [(0, 0)]), policy=policy)
    with pytest.raises(EngineError, match="does not emit row deltas"):
        engine.attach_deltas()
