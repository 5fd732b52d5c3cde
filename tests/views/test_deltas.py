"""Unit tests of the delta vocabulary: coalescing and codec.

The engine-side hook (``attach_deltas`` / ``flush_pending``) is covered per
backend in ``tests/engine/test_contract.py``.
"""

from __future__ import annotations

from repro.core.expr import plus_i, var
from repro.views import (
    DeltaBatch,
    DeltaBuffer,
    RowDelta,
    apply_delta_batch,
    decode_delta_batch,
    encode_delta_batch,
)


def pending(buffer: DeltaBuffer) -> dict:
    """``{(relation, row): (kind, expr, live)}`` of the un-drained buffer."""
    return {key: tuple(entry) for key, entry in buffer._pending.items()}


# -- coalescing ---------------------------------------------------------------


def test_insert_then_free_nets_to_nothing():
    buffer = DeltaBuffer()
    buffer.record("insert", "R", (1, 2), var("x1"), True)
    buffer.record("free", "R", (1, 2), None, False)
    assert not buffer
    assert buffer.drain(3) == DeltaBatch(3, ())


def test_free_of_preexisting_row_ships_as_free():
    buffer = DeltaBuffer()
    buffer.record("annotation", "R", (1, 2), var("x1"), True)
    buffer.record("free", "R", (1, 2), None, False)
    assert pending(buffer) == {("R", (1, 2)): ("free", None, False)}


def test_insert_stays_insert_through_later_changes():
    buffer = DeltaBuffer()
    expr = plus_i(var("x1"), var("p"))
    buffer.record("insert", "R", (1, 2), var("x1"), True)
    buffer.record("delete", "R", (1, 2), expr, False)
    assert pending(buffer) == {("R", (1, 2)): ("insert", expr, False)}


def test_free_then_insert_is_new_again():
    buffer = DeltaBuffer()
    buffer.record("free", "R", (1, 2), None, False)
    buffer.record("annotation", "R", (1, 2), var("x1"), True)
    assert pending(buffer) == {("R", (1, 2)): ("insert", var("x1"), True)}


def test_latest_kind_and_payload_win_otherwise():
    buffer = DeltaBuffer()
    buffer.record("annotation", "R", (1, 2), var("x1"), True)
    buffer.record("delete", "R", (1, 2), var("x2"), False)
    assert pending(buffer) == {("R", (1, 2)): ("delete", var("x2"), False)}


def test_drain_stamps_and_clears():
    buffer = DeltaBuffer()
    buffer.record("insert", "R", (0, 0), var("x1"), True)
    batch = buffer.drain(7)
    assert batch.version == 7
    assert [d.kind for d in batch] == ["insert"]
    assert not buffer and len(buffer.drain(8)) == 0


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
