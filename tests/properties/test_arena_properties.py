"""Round-trip properties of the expression arena and the capture codec.

The arena is the flat at-rest form of hash-consed expressions
(``kind[]/a[]/b[]/args[]`` integer tables); captures cross the process
boundary as one shared node table.  Because decoding goes back through
the smart constructors, a round trip must hand back the *same* interned
objects — identity, not just structural equality — for any expression
shape, and for every policy the wire carries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arena import ExprArena
from repro.core.expr import dag_size
from repro.db.database import Database
from repro.engine.engine import Engine
from repro.shard.codec import capture_engine, decode_capture, encode_capture, exprs_of
from repro.storage.exprjson import exprs_from_arena, exprs_to_arena

from .strategies import arbitrary_exprs, logs

#: Policies whose captures carry expressions over the wire (the vanilla
#: pair captures ``None`` annotations, which the list round-trip covers).
WIRE_POLICIES = ("naive", "no_axioms", "normal_form", "normal_form_batch")


@given(arbitrary_exprs())
def test_arena_round_trip_is_identity(expr):
    arena = ExprArena()
    assert arena.get_expr(arena.add_expr(expr)) is expr


@given(st.lists(st.one_of(st.none(), arbitrary_exprs()), max_size=6))
def test_shared_arena_wire_round_trip(exprs):
    """Many expressions through one shared node table, ``None`` passing through."""
    payload, roots = exprs_to_arena(exprs)
    decoded = exprs_from_arena(payload, roots)
    assert len(decoded) == len(exprs)
    for original, again in zip(exprs, decoded):
        assert again is original


@settings(max_examples=25, deadline=None)
@given(logs())
def test_capture_round_trip_is_identity(items):
    """Encoded captures decode to the identical interned expression per row.

    The same update history runs under every provenance-carrying policy;
    for each, the capture round-tripped through :func:`encode_capture`
    must hold the identical interned expression and liveness per row, in
    one node table with exactly one record per distinct node.
    """
    for policy in WIRE_POLICIES:
        engine = Engine(
            Database.from_rows("R", ["a", "b"], [(0, 0), (1, 2), (3, 1)]),
            policy=policy,
        )
        for transaction in items:
            engine.apply(transaction)
        capture = capture_engine(engine)
        payload = encode_capture(capture)
        assert len(payload["exprs"]["nodes"]) == dag_size(exprs_of(capture.values()))
        decoded = decode_capture(payload)
        assert decoded.keys() == capture.keys()
        for name, rows in capture.items():
            assert decoded[name].keys() == rows.keys()
            for row, (expr, live) in rows.items():
                again, again_live = decoded[name][row]
                assert again is expr, (policy, row)
                assert again_live == live
