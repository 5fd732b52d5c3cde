"""Unit tests of the delta vocabulary: coalescing and codec.

Coalescing is the change set's (``repro.store.row_store``), read through
the engine's drain; the engine contract (``attach_deltas`` /
``drain_deltas``) is covered per backend in
``tests/engine/test_contract.py``.
"""

from __future__ import annotations

import pytest

from repro.core.expr import plus_i, var
from repro.db.database import Database
from repro.engine.engine import Engine
from repro.queries.pattern import Pattern
from repro.queries.updates import Delete, Insert, Modify
from repro.views import (
    DeltaBatch,
    RowDelta,
    apply_delta_batch,
    decode_delta_batch,
    encode_delta_batch,
)


def attached(policy: str, rows=((1, 2),)) -> Engine:
    """An engine over ``R(a, b)`` with deltas attached and nothing pending."""
    engine = Engine(Database.from_rows("R", ["a", "b"], list(rows)), policy=policy)
    engine.attach_deltas()
    engine.drain_deltas(0)
    return engine


def pending(engine: Engine) -> dict:
    """``{(relation, row): (kind, expr, live)}`` of the next drain."""
    return {(d.relation, d.row): (d.kind, d.expr, d.live) for d in engine.drain_deltas(1)}


def where(row) -> Pattern:
    return Pattern(2, eq=dict(enumerate(row)))


# -- coalescing ---------------------------------------------------------------


def test_insert_then_free_nets_to_nothing():
    engine = attached("none")
    engine.apply([Insert("R", (3, 4)), Delete("R", where((3, 4)))])
    assert engine.pending_changes() == 0
    assert engine.drain_deltas(3) == DeltaBatch(3, ())


def test_free_of_preexisting_row_ships_as_free():
    engine = attached("none")
    engine.apply(Delete("R", where((1, 2))))
    assert pending(engine) == {("R", (1, 2)): ("free", None, False)}


def test_insert_stays_insert_through_later_changes():
    engine = attached("naive", rows=())
    engine.apply([Insert("R", (1, 2), "x1"), Delete("R", where((1, 2)), "p")])
    expr = engine.annotation_of("R", (1, 2))
    assert pending(engine) == {("R", (1, 2)): ("insert", expr, False)}


def test_free_then_insert_is_new_again():
    engine = attached("none")
    engine.apply([Delete("R", where((1, 2))), Insert("R", (1, 2))])
    assert pending(engine) == {("R", (1, 2)): ("insert", None, True)}


def test_latest_kind_and_payload_win_otherwise():
    engine = attached("naive")
    engine.apply([Insert("R", (1, 2), "p"), Delete("R", where((1, 2)), "q")])
    expr = engine.annotation_of("R", (1, 2))
    assert pending(engine) == {("R", (1, 2)): ("delete", expr, False)}


@pytest.mark.parametrize("policy", ["naive", "normal_form_batch"])
def test_a_stored_row_ending_tombstoned_is_a_delete(policy):
    """The kind of a row that was already stored follows its final
    liveness, not its last mutation: a modification target absorbing only
    dead sources, and a flush rewriting a tombstone, both end dead."""
    engine = attached(policy, rows=((1, 2), (5, 2)))
    engine.apply(
        [
            Delete("R", where((1, 2)), "p"),
            Delete("R", where((5, 2)), "p"),
            Modify.set(engine.schema.relation("R"), {"a": 5}, where={"a": 1}, annotation="q"),
        ]
    )
    kinds = {row: (kind, live) for (_r, row), (kind, _e, live) in pending(engine).items()}
    assert kinds == {(1, 2): ("delete", False), (5, 2): ("delete", False)}


def test_drain_stamps_and_clears():
    engine = attached("naive", rows=())
    engine.apply(Insert("R", (0, 0), "x1"))
    batch = engine.drain_deltas(7)
    assert batch.version == 7
    assert [d.kind for d in batch] == ["insert"]
    assert engine.pending_changes() == 0 and len(engine.drain_deltas(8)) == 0


# -- reconstruction and the wire codec ---------------------------------------


def test_apply_delta_batch_upserts_and_frees():
    state = {"R": {(0, 0): (var("x1"), True)}}
    batch = DeltaBatch(
        2,
        (
            RowDelta("delete", "R", (0, 0), var("x2"), False),
            RowDelta("insert", "R", (1, 1), var("x3"), True),
            RowDelta("free", "S", (9,), None, False),  # absent key: no-op
        ),
    )
    apply_delta_batch(state, batch)
    assert state == {
        "R": {(0, 0): (var("x2"), False), (1, 1): (var("x3"), True)},
        "S": {},
    }


def test_codec_round_trip_reinterns_identical_objects():
    shared = plus_i(var("x1"), var("p"))
    batch = DeltaBatch(
        5,
        (
            RowDelta("insert", "R", (1, 2), shared, True),
            RowDelta("annotation", "R", (3, 4), shared, False),
            RowDelta("free", "R", (5, 6), None, False),
        ),
    )
    decoded = decode_delta_batch(encode_delta_batch(batch))
    assert decoded == batch
    # The node table re-interns: both rows share the very same expression object.
    assert decoded.deltas[0].expr is decoded.deltas[1].expr is shared
