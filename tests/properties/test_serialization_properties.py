"""Round-trip properties of every serialization format."""

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.core.expr import dag_size
from repro.db.schema import Schema
from repro.lang.datalog import format_query, parse_query
from repro.lang.sql import format_sql, parse_sql
from repro.storage.exprjson import (
    expr_from_dict,
    expr_to_dict,
    exprs_from_arena,
    exprs_to_arena,
)
from repro.workloads.logs import UpdateLog, log_from_json, log_to_json, query_from_dict, query_to_dict

from .strategies import arbitrary_exprs, construction_exprs, logs, queries

SCHEMA = Schema.build({"R": ["a", "b"]})


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
