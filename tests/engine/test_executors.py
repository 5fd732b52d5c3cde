"""Executor behaviour: tombstones, ghosts, liveness, source∩target cases."""

import pytest

from repro.core.equivalence import equivalent_boolean
from repro.core.expr import ZERO, minus, plus_i, times_m, var
from repro.db.database import Database
from repro.engine.engine import Engine
from repro.errors import EngineError
from repro.queries.pattern import Pattern
from repro.queries.updates import Delete, Insert, Modify, Transaction


def unary_db(*values):
    return Database.from_rows("R", ["v"], [(v,) for v in values])


def namer(_relation, row, _index):
    return f"x{row[0]}"


def engine_for(db, policy="normal_form"):
    return Engine(db, policy=policy, annotate=namer)


class TestInsertSemantics:
    def test_insert_new_tuple(self):
        e = engine_for(unary_db("a"))
        e.apply(Transaction("p", [Insert("R", ("b",))]))
        assert e.annotation_of("R", ("b",)) is var("p")  # 0 +I p = p
        assert ("b",) in e.live_rows("R")

    def test_insert_existing_tuple(self):
        e = engine_for(unary_db("a"))
        e.apply(Transaction("p", [Insert("R", ("a",))]))
        assert e.annotation_of("R", ("a",)) is plus_i(var("xa"), var("p"))

    def test_reinsert_after_delete_revives(self):
        e = engine_for(unary_db("a"))
        e.apply(Transaction("p", [Delete("R", Pattern(1, eq={0: "a"})), Insert("R", ("a",))]))
        assert ("a",) in e.live_rows("R")
        assert e.annotation_of("R", ("a",)) is plus_i(var("xa"), var("p"))


class TestDeleteSemantics:
    def test_tombstone_kept_with_minus_annotation(self):
        e = engine_for(unary_db("a", "b"))
        e.apply(Transaction("p", [Delete("R", Pattern(1, eq={0: "a"}))]))
        assert ("a",) not in e.live_rows("R")
        assert e.support_count() == 2  # tombstone stays stored
        assert e.annotation_of("R", ("a",)) is minus(var("xa"), var("p"))

    def test_delete_matches_tombstones_too(self):
        """A second deletion under a new annotation touches the tombstone."""
        e = engine_for(unary_db("a"))
        e.apply(Transaction("p", [Delete("R", Pattern(1))]))
        e.apply(Transaction("q", [Delete("R", Pattern(1))]))
        assert e.annotation_of("R", ("a",)) is minus(minus(var("xa"), var("p")), var("q"))

    def test_delete_with_disequality(self):
        e = engine_for(unary_db("a", "b", "c"))
        e.apply(Transaction("p", [Delete("R", Pattern(1, neq={0: {"b"}}))]))
        assert e.live_rows("R") == {("b",)}


class TestModifySemantics:
    def test_tombstone_source_produces_ghost_target(self):
        """Figure 4's mechanism: tombstones are modification sources."""
        e = engine_for(unary_db("a"))
        e.apply(Transaction("p", [Delete("R", Pattern(1, eq={0: "a"}))]))
        e.apply(Transaction("q", [Modify("R", Pattern(1, eq={0: "a"}), {0: "z"})]))
        ghost = e.annotation_of("R", ("z",))
        assert ghost is times_m(minus(var("xa"), var("p")), var("q"))
        assert ("z",) not in e.live_rows("R")  # dead source -> dead target

    def test_source_equals_target_self_map(self):
        """M(R(x) -> R(5)) with (5) present: (5) is source and target."""
        db = unary_db(5, 3)
        e = engine_for(db)
        e.apply(Transaction("p", [Modify("R", Pattern(1), {0: 5})]))
        assert e.live_rows("R") == {(5,)}
        merged = e.annotation_of("R", (5,))
        # Target absorbs both sources' annotations; it must evaluate live
        # and contain both x5 and x3 as alternatives.
        assert ("3",) not in e.live_rows("R")
        assert {"x5", "x3", "p"} <= set(merged.variables())

    def test_identity_modification_keeps_row_live(self):
        db = unary_db("a")
        e = engine_for(db)
        e.apply(Transaction("p", [Modify("R", Pattern(1, eq={0: "a"}), {0: "a"})]))
        assert e.live_rows("R") == {("a",)}

    def test_all_sources_dead_creates_no_target_under_same_annotation(self):
        """Rule 3 in the engine: the ghost's annotation is 0, so no row."""
        e = engine_for(unary_db("a"))
        e.apply(
            Transaction(
                "p",
                [
                    Delete("R", Pattern(1, eq={0: "a"})),
                    Modify("R", Pattern(1, eq={0: "a"}), {0: "z"}),
                ],
            )
        )
        assert e.annotation_of("R", ("z",)) is ZERO
        assert e.support_count() == 1

    def test_naive_keeps_zero_equivalent_ghost(self):
        """The naive policy stores the ghost with an expression ≡ 0."""
        e = engine_for(unary_db("a"), policy="naive")
        e.apply(
            Transaction(
                "p",
                [
                    Delete("R", Pattern(1, eq={0: "a"})),
                    Modify("R", Pattern(1, eq={0: "a"}), {0: "z"}),
                ],
            )
        )
        ghost = e.annotation_of("R", ("z",))
        assert ghost is not ZERO  # syntactically present...
        assert equivalent_boolean(ghost, ZERO)  # ...semantically absent

    def test_live_target_not_matching_pattern_stays_live(self):
        db = unary_db("a", "z")
        e = engine_for(db)
        e.apply(Transaction("p", [Modify("R", Pattern(1, eq={0: "a"}), {0: "z"})]))
        assert e.live_rows("R") == {("z",)}
        merged = e.annotation_of("R", ("z",))
        assert {"xz", "xa", "p"} <= set(merged.variables())


class TestPolicyAgreement:
    @pytest.mark.parametrize("policy", ["naive", "normal_form", "mv_tree", "mv_string"])
    def test_live_rows_match_vanilla(self, policy):
        db = unary_db(*range(6))
        log = [
            Transaction("t1", [Modify("R", Pattern(1, eq={0: 1}), {0: 2})]),
            Transaction("t2", [Delete("R", Pattern(1, eq={0: 2})), Insert("R", (9,))]),
            Transaction("t3", [Modify("R", Pattern(1, neq={0: {9}}), {0: 0})]),
        ]
        vanilla = Engine(db, policy="none").apply(log)
        other = Engine(db, policy=policy).apply(log)
        assert other.result().same_contents(vanilla.result())


class TestEngineApi:
    def test_unknown_policy(self):
        with pytest.raises(EngineError, match="unknown policy"):
            Engine(unary_db("a"), policy="magic")

    def test_unknown_relation(self):
        e = engine_for(unary_db("a"))
        with pytest.raises(EngineError, match="unknown relation"):
            e.apply(Transaction("p", [Insert("S", (1,))]))

    def test_apply_rejects_garbage(self):
        with pytest.raises(EngineError):
            Engine(unary_db("a"), policy="none").apply(42)

    def test_stats_accumulate(self):
        e = engine_for(unary_db("a", "b"))
        e.apply(
            Transaction("p", [Insert("R", ("c",)), Delete("R", Pattern(1, eq={0: "a"}))])
        )
        assert e.stats.queries == 2
        assert e.stats.inserts == 1 and e.stats.deletes == 1
        assert e.stats.transactions == 1
        assert e.stats.rows_matched == 1

    def test_annotation_of_absent_row_is_zero(self):
        e = engine_for(unary_db("a"))
        assert e.annotation_of("R", ("zzz",)) is ZERO

    def test_tuple_var_lookup(self):
        e = engine_for(unary_db("a"))
        assert e.tuple_var("R", ("a",)) == "xa"
        assert e.tuple_var("R", ("nope",)) is None
        assert e.tuple_var_names() == {"xa"}

    def test_overhead_report(self):
        db = unary_db("a", "b")
        log = [Transaction("p", [Delete("R", Pattern(1, eq={0: "a"}))])]
        base = Engine(db, policy="none").apply(log)
        e = Engine(db, policy="normal_form").apply(log)
        report = e.overhead_report(base)
        assert report["policy"] == "normal_form"
        assert report["support_rows"] == 2 and report["live_rows"] == 1
        assert report["row_overhead"] == pytest.approx(1.0)

    def test_specialize_requires_provenance(self):
        e = Engine(unary_db("a"), policy="none")
        with pytest.raises(EngineError):
            e.specialize(None, {})

    def test_specialize_rejected_for_mv(self):
        e = Engine(unary_db("a"), policy="mv_tree")
        with pytest.raises(EngineError, match="version annotations"):
            e.specialize(None, {})

    def test_specialized_database(self):
        from repro.semantics.boolean import BooleanStructure

        e = engine_for(unary_db("a", "b"))
        e.apply(Transaction("p", [Delete("R", Pattern(1, eq={0: "a"}))]))
        db = e.specialized_database(BooleanStructure(), lambda name: True)
        assert db.rows("R") == {("b",)}

    def _history_engine(self):
        db = unary_db(1, 2, 3)
        log = [
            Transaction("t1", [Modify("R", Pattern(1, eq={0: 1}), {0: 2})]),
            Transaction("t2", [Delete("R", Pattern(1, eq={0: 3})), Insert("R", (9,))]),
        ]
        return Engine(db, policy="normal_form").apply(log)

    def test_capture_holds_the_live_database(self):
        e = self._history_engine()
        capture = e.capture()
        live = Database(e.schema)
        live.extend("R", (row for row, (_expr, alive) in capture["R"].items() if alive))
        assert live.same_contents(e.result())
        assert sum(len(rows) for rows in capture.values()) == e.support_count()

    def test_specialize_offline(self):
        """Specialization answers what-ifs without re-running the log."""
        from repro.semantics.boolean import BooleanStructure

        values = self._history_engine().specialize(
            BooleanStructure(), lambda name: name != "t2"
        )
        # t2 aborted: (3,) was deleted by t2 only, so it survives.
        assert values["R"][(3,)] is True
        assert values["R"][(9,)] is False  # inserted by t2

    def test_minimized_captures_keep_their_meaning(self):
        """Proposition 5.5 minimization never grows an annotation and keeps
        its meaning (hence the live rows) under Boolean specialization."""
        from repro.core.minimize import minimize

        e = self._history_engine()
        for rows in e.capture().values():
            for expr, _live in rows.values():
                smaller = minimize(expr)
                assert smaller.size() <= expr.size()
                assert equivalent_boolean(smaller, expr)
