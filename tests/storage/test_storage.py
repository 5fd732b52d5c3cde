"""Serialization: the expression codec and CSV I/O."""

import json

import pytest

from repro.core.expr import ZERO, dag_size, minus, plus_i, plus_m, ssum, times_m, var
from repro.db.database import Database
from repro.engine.engine import Engine
from repro.errors import StorageError
from repro.shard.codec import decode_capture, encode_capture
from repro.storage import dump_csv, expr_from_dict, expr_to_dict, load_csv
from repro.storage.exprjson import exprs_from_arena, exprs_to_arena

A, B, P = var("a"), var("b"), var("p")
SAMPLE = plus_m(minus(A, P), times_m(ssum([A, B]), P))

#: Malformed node tables, each paired with the root it is decoded at.
MALFORMED_TABLES = {
    "unknown kind": ([["wat"]], 0),
    "forward reference": ([["+I", 0, 5]], 0),
    "negative reference": ([["var", "a"], ["+I", 0, -1]], 1),
    "root out of range": ([["var", "a"]], 7),
    "binary arity": ([["var", "a"], ["-", 0]], 1),
    "var arity": ([["var"]], 0),
    "zero arity": ([["zero", 0]], 0),
}


def round_trip(exprs):
    """Through the shared table *and* JSON text, as every payload travels."""
    table, roots = exprs_to_arena(exprs)
    return exprs_from_arena(json.loads(json.dumps(table)), json.loads(json.dumps(roots)))


class TestExprJson:
    def test_dag_round_trip(self):
        assert round_trip([SAMPLE, A, None, SAMPLE]) == [SAMPLE, A, None, SAMPLE]
        assert expr_from_dict(expr_to_dict(SAMPLE)) is SAMPLE

    def test_zero_round_trip(self):
        (again,) = round_trip([ZERO])
        assert again is ZERO

    def test_sharing_preserved(self):
        shared = plus_i(A, P)
        e = plus_m(shared, times_m(shared, P))
        payload = expr_to_dict(e)
        # 4 distinct leaves/nodes + root, not the 9 of the expanded tree.
        assert len(payload["nodes"]) == 5

    def test_sharing_across_roots_is_stored_once(self):
        shared = plus_i(A, P)
        exprs = [minus(shared, B), times_m(shared, B), shared]
        table, roots = exprs_to_arena(exprs)
        assert len(table["nodes"]) == dag_size(exprs) == 6
        assert roots[2] == table["nodes"].index(["+I", 0, 1])

    def test_transient_roots_are_held_for_the_whole_call(self):
        """Under ``normal_form`` every row's expression is a fresh
        ``to_expr()`` result that dies as soon as the consumer lets go, so a
        generator of them may free a root before the next is built.  Walks
        keyed by ``id`` must hold their roots, or a new node reuses a
        visited id and the counts silently drop."""
        from repro.workloads.synthetic import (
            SyntheticConfig,
            synthetic_database,
            synthetic_log,
        )

        config = SyntheticConfig(n_tuples=200, n_queries=80, n_groups=5, group_size=4, seed=4)
        engine = Engine(synthetic_database(config), policy="normal_form")
        engine.apply(synthetic_log(config).as_single_transaction())

        def fresh():
            return (expr for _row, expr, _live in engine.provenance("synthetic"))

        streamed_size = dag_size(fresh())
        streamed_table = exprs_to_arena(fresh())
        held = list(fresh())
        assert streamed_size == dag_size(held) == engine.provenance_dag_size()
        assert streamed_table == exprs_to_arena(held)

    def test_one_root_case_is_the_shared_table(self):
        table, (root,) = exprs_to_arena([SAMPLE])
        assert expr_to_dict(SAMPLE) == {**table, "root": root}

    def test_deep_chain_round_trip(self):
        e = A
        for i in range(2500):
            e = minus(e, var(f"p{i % 3}"))
        chain = [e, e.children[0], None]
        assert round_trip(chain) == chain

    def test_malformed_payloads_rejected(self):
        for label, (nodes, root) in MALFORMED_TABLES.items():
            with pytest.raises(StorageError):
                exprs_from_arena({"nodes": nodes}, [root])
                pytest.fail(label)
            with pytest.raises(StorageError):
                expr_from_dict({"nodes": nodes, "root": root})
        for payload in ({"nodes": "x"}, {"roots": []}, ["nodes"]):
            with pytest.raises(StorageError):
                exprs_from_arena(payload, [0])

    def test_malformed_captures_rejected(self):
        for nodes, root in MALFORMED_TABLES.values():
            payload = {"exprs": {"nodes": nodes}, "relations": {"R": [[[1], root, True]]}}
            with pytest.raises(StorageError):
                decode_capture(payload)
        with pytest.raises(StorageError):
            decode_capture({"relations": {"R": [[[1], 0, True]]}})

    def test_capture_shares_one_table_across_relations(self):
        shared = plus_i(A, P)
        capture = {
            "R": {(1,): (minus(shared, B), True), (2,): (None, False)},
            "S": {(3,): (shared, True)},
        }
        payload = encode_capture(capture)
        assert len(payload["exprs"]["nodes"]) == 5
        assert decode_capture(json.loads(json.dumps(payload))) == capture

    def test_decoder_reapplies_zero_axioms(self):
        payload = {"nodes": [["zero"], ["var", "p"], ["+I", 0, 1]], "root": 2}
        assert expr_from_dict(payload) is var("p")
        assert exprs_from_arena(payload, [2, 0]) == [var("p"), ZERO]


class TestCsv:
    def test_round_trip(self, tmp_path):
        db = Database.from_rows("r", ["a", "b"], [(1, "x"), (2, "y")])
        path = tmp_path / "r.csv"
        dump_csv(db, "r", path)
        loaded = load_csv(path, "r", types={"a": int})
        assert loaded.rows("r") == db.rows("r")

    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError, match="no CSV"):
            load_csv(tmp_path / "void.csv", "r")

    def test_field_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(StorageError, match="expected 2 fields"):
            load_csv(path, "r")

    def test_conversion_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a\nnot_an_int\n")
        with pytest.raises(StorageError, match=":2"):
            load_csv(path, "r", types={"a": int})

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(StorageError, match="header"):
            load_csv(path, "r")

    def test_load_into_existing_database(self, tmp_path):
        db = Database.from_rows("r", ["a"], [(1,)])
        path = tmp_path / "s.csv"
        path.write_text("x,y\n1,2\n")
        out = load_csv(path, "s", types={"x": int, "y": int}, database=db)
        assert out is db
        assert db.rows("s") == {(1, 2)}
