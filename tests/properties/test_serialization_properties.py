"""Round-trip properties of every serialization format."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expr import dag_size
from repro.db.database import Database
from repro.db.schema import Schema
from repro.engine.engine import Engine
from repro.lang.datalog import format_query, parse_query
from repro.lang.sql import format_sql, parse_sql
from repro.shard.codec import capture_engine, decode_capture, encode_capture, exprs_of
from repro.storage.exprjson import (
    expr_from_dict,
    expr_to_dict,
    exprs_from_arena,
    exprs_to_arena,
)
from repro.workloads.logs import UpdateLog, log_from_json, log_to_json, query_from_dict, query_to_dict

from .strategies import arbitrary_exprs, construction_exprs, logs, queries

SCHEMA = Schema.build({"R": ["a", "b"]})

#: Policies whose captures carry expressions over the wire (the vanilla
#: pair captures ``None`` annotations, which the node-table round trip covers).
WIRE_POLICIES = ("naive", "no_axioms", "normal_form", "normal_form_batch")


@given(arbitrary_exprs())
def test_expr_dag_json_round_trip(expr):
    assert expr_from_dict(expr_to_dict(expr)) is expr


@given(st.lists(st.one_of(st.none(), arbitrary_exprs(), construction_exprs()), max_size=8))
def test_exprs_node_table_round_trip(exprs):
    """Many roots, one table: JSON text in between, identity out, and
    exactly one record per distinct node across all the roots."""
    table, roots = exprs_to_arena(exprs)
    assert len(table["nodes"]) == dag_size(e for e in exprs if e is not None)
    decoded = exprs_from_arena(json.loads(json.dumps(table)), json.loads(json.dumps(roots)))
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


@given(queries)
def test_query_dict_round_trip(query):
    assert query_from_dict(query_to_dict(query)) == query


@given(logs())
def test_log_json_round_trip(items):
    log = UpdateLog(items, meta={"name": "prop"})
    again, schema = log_from_json(log_to_json(log, SCHEMA))
    assert again == log
    assert schema.relation("R").attributes == ("a", "b")


@given(queries)
def test_sql_round_trip(query):
    text = format_sql(query.annotated("p"), SCHEMA)
    assert parse_sql(text, SCHEMA) == query.annotated("p")


@given(queries)
def test_datalog_round_trip(query):
    annotated = query.annotated("p")
    text = format_query(annotated)
    assert parse_query(text, SCHEMA) == annotated
