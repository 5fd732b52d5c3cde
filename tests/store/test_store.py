"""The indexed annotation store: row slots, column indexes, planner, executors."""

from __future__ import annotations

import pytest

from repro.db.database import Database
from repro.db.schema import Relation, Schema
from repro.engine.engine import Engine, make_executor
from repro.errors import EngineError
from repro.queries.pattern import Pattern
from repro.queries.updates import Delete, Insert, Modify, Transaction
from repro.store import (
    AnnotationStore,
    ColumnIndex,
    PlannerStats,
    RelationStore,
    RowStore,
    compile_plan,
)


class TestRowStore:
    def test_ids_are_stable_and_ascending(self):
        rows = RowStore()
        assert [rows.add((i,)) for i in range(3)] == [0, 1, 2]
        rows.free(1)
        assert rows.add((9,)) == 3  # freed slots are never reused
        assert [rid for rid, _row in rows.items()] == [0, 2, 3]

    def test_tombstone_stays_in_support(self):
        rows = RowStore()
        rid = rows.add(("a",), ann="x", live=True)
        rows.set_live(rid, False)
        assert len(rows) == 1
        assert rows.live_count() == 0
        assert rows.live_rows() == set()
        assert rows.annotation(rid) == "x"

    def test_free_leaves_support(self):
        rows = RowStore()
        rid = rows.add(("a",))
        rows.free(rid)
        assert len(rows) == 0
        assert ("a",) not in rows
        with pytest.raises(ValueError):
            rows.row(rid)
        with pytest.raises(ValueError):
            rows.free(rid)

    def test_duplicate_row_rejected(self):
        rows = RowStore()
        rows.add(("a",))
        with pytest.raises(ValueError):
            rows.add(("a",))

    def test_refree_after_readd(self):
        rows = RowStore()
        rows.free(rows.add(("a",)))
        rid = rows.add(("a",))
        assert rows.rid_of(("a",)) == rid == 1


class TestDirtySet:
    """The change set's pending rows: what the deferred flush reads."""

    def test_mutations_mark_rows_dirty_and_take_clears(self):
        rows = RowStore()
        a, b, c = (rows.add((i,), ann="x") for i in range(3))
        assert rows.pending_rows() == [(a, (0,)), (b, (1,)), (c, (2,))]
        rows.mark_flushed()
        assert rows.pending_rows() == []
        rows.set_live(c, False)
        rows.set_annotation(a, "y")
        rows.set_annotation(a, "z")  # one entry per row, however often touched
        assert rows.pending_rows() == [(a, (0,)), (c, (2,))]
        rows.mark_flushed()
        assert rows.pending_rows() == []

    def test_mark_flushed_leaves_the_rows_clean(self):
        rows = RowStore()
        rid = rows.add(("a",), ann="x")
        rows.set_annotation(rid, "normal")  # the flush's write-back
        rows.mark_flushed()
        assert rows.annotation(rid) == "normal"
        assert rows.pending_rows() == []
        assert rows.take_changes() == [(("a",), True)]  # still a change to drain

    def test_free_drops_a_row_and_readding_dirties_it_again(self):
        rows = RowStore()
        rid = rows.add(("a",))
        rows.add(("b",))
        rows.free(rid)
        assert rows.pending_rows() == [(1, ("b",))]
        rows.mark_flushed()
        rows.free(rows.add(("c",)))
        assert rows.pending_rows() == []
        rid = rows.add(("a",))
        assert rows.pending_rows() == [(rid, ("a",))]

    def test_survives_compact_in_the_new_id_order(self):
        rows = RowStore()
        for i in range(6):
            rows.add((i,))
        rows.mark_flushed()
        rows.set_annotation(5, "x")
        rows.set_live(1, False)
        rows.set_annotation(3, "y")
        for rid in (0, 2, 4):
            rows.free(rid)
        rows.compact()
        # (1,), (3,), (5,) renumbered to 0, 1, 2.
        assert rows.pending_rows() == [(0, (1,)), (1, (3,)), (2, (5,))]

    def test_never_outgrows_the_support(self):
        rows = RowStore()
        for cycle in range(50):
            rid = rows.add((cycle,))
            rows.set_annotation(rid, "x")
            if cycle % 2:
                rows.free(rid)
        assert len(rows.pending_rows()) == rows.change_count() == len(rows) == 25

    def test_recovered_rows_are_covered_by_the_first_flush(self, tmp_path, monkeypatch):
        """Recovery loads rows through ``RelationStore.add``, which marks
        them dirty, so the first flush after ``recover()`` normalises every
        loaded row once."""
        import repro.engine.executors as executors
        from repro.wal import JournaledEngine, recover

        database = Database.from_rows("R", ["a", "b"], [(i, i % 3) for i in range(9)])
        engine = JournaledEngine(database, tmp_path, policy="normal_form_batch")
        engine.apply(Transaction("p", [Delete("R", Pattern(2, eq={1: 0}))]))
        engine.close()
        normalized = []
        normalize = executors.normalize_expr

        def counted(expr):
            normalized.append(expr)
            return normalize(expr)

        monkeypatch.setattr(executors, "normalize_expr", counted)
        recovered = recover(tmp_path)
        recovered.flush_pending()
        assert len(normalized) == recovered.support_count() == 9
        del normalized[:]
        recovered.capture()
        assert normalized == []


class TestChangeSet:
    """What a drain reads: every row changed since the previous drain."""

    def test_insert_then_free_nets_to_nothing(self):
        rows = RowStore()
        rows.free(rows.add(("a",), ann="x"))
        assert rows.change_count() == 0
        assert rows.take_changes() == []

    def test_freed_stored_row_drains_as_not_entered(self):
        rows = RowStore()
        rid = rows.add(("a",))
        rows.take_changes()
        rows.free(rid)
        assert rows.take_changes() == [(("a",), False)]

    def test_freed_row_readded_has_entered_again(self):
        rows = RowStore()
        rows.add(("a",))
        rows.take_changes()
        rows.free(0)
        rows.add(("a",))
        assert rows.take_changes() == [(("a",), True)]

    def test_drain_holds_exactly_the_rows_changed_since_the_previous(self):
        rows = RowStore()
        for i in range(10):
            rows.add((i,), ann="x")
        assert rows.take_changes() == [((i,), True) for i in range(10)]
        assert rows.take_changes() == []
        rows.set_annotation(2, "y")
        rows.mark_flushed()  # flushed rows stay changes to drain
        rows.set_live(2, False)
        rows.set_live(7, False)
        rows.free(4)
        assert sorted(rows.take_changes()) == [((2,), False), ((4,), False), ((7,), False)]
        assert rows.change_count() == 0

    def test_drop_settled_keeps_only_the_pending_rows(self):
        rows = RowStore()
        rows.add(("a",))
        rows.mark_flushed()
        rows.add(("b",))
        rows.drop_settled()
        assert rows.pending_rows() == [(1, ("b",))]
        assert rows.change_count() == 1
        rows.drop_changes()
        assert rows.change_count() == 0


class TestColumnIndex:
    def test_add_lookup_remove(self):
        index = ColumnIndex()
        index.add(0, "v")
        index.add(1, "v")
        index.add(2, "w")
        assert index.candidates("v") == {0, 1}
        index.remove(1, "v")
        assert index.candidates("v") == {0}
        assert index.candidates("missing") == frozenset()

    def test_unhashable_values_go_residual(self):
        index = ColumnIndex()
        index.add(0, [1, 2])  # unhashable row value
        index.add(1, "v")
        # Residual rows are candidates for every lookup (the pattern
        # predicate filters them), so matching stays exact.
        assert index.candidates("v") == {0, 1}
        index.remove(0, [1, 2])
        assert index.candidates("v") == {1}

    def test_unhashable_lookup_key_is_unusable(self):
        index = ColumnIndex()
        index.add(0, "v")
        assert index.candidates([1, 2]) is None


class TestPlanner:
    def test_equalities_compile_to_index_positions(self):
        plan = compile_plan(Pattern(3, eq={0: "a", 2: 7}))
        assert not plan.is_scan
        assert set(plan.positions) == {0, 2}

    def test_no_equalities_fall_back_to_scan(self):
        assert compile_plan(Pattern(2)).is_scan
        assert compile_plan(Pattern(2, neq={0: {"a"}})).is_scan

    def test_unhashable_constants_are_not_index_keys(self):
        plan = compile_plan(Pattern(2, eq={0: [1, 2], 1: "b"}))
        assert plan.positions == (1,)
        assert compile_plan(Pattern(1, eq={0: [1, 2]})).is_scan


def relation_store(rows, use_indexes=True):
    store = RelationStore(
        Relation("R", ["a", "b"]), PlannerStats(), use_indexes=use_indexes
    )
    for row in rows:
        store.add(row)
    return store


class TestRelationStoreMatching:
    ROWS = [(i, i % 3) for i in range(9)]

    @pytest.mark.parametrize(
        "pattern",
        [
            Pattern(2, eq={1: 0}),
            Pattern(2, eq={0: 4, 1: 1}),
            Pattern(2, eq={0: 100}),
            Pattern(2, neq={1: {2}}),
            Pattern(2),
            Pattern(2, eq={1: 1}, neq={0: {1, 4}}),
        ],
    )
    def test_indexed_equals_scan(self, pattern):
        indexed = relation_store(self.ROWS)
        scanned = relation_store(self.ROWS, use_indexes=False)
        assert indexed.matching(pattern) == scanned.matching(pattern)

    def test_matches_are_in_insertion_order(self):
        store = relation_store(self.ROWS)
        matched = store.matching(Pattern(2, eq={1: 0}))
        assert matched == [(0, (0, 0)), (3, (3, 0)), (6, (6, 0))]

    def test_planner_stats_count_decisions(self):
        store = relation_store(self.ROWS)
        store.matching(Pattern(2, eq={1: 0}))
        store.matching(Pattern(2))  # no equality: fallback
        assert store._stats.index_hits == 1
        assert store._stats.fallback_scans == 1
        assert store._stats.rows_examined == 3

    def test_disabled_indexes_always_scan(self):
        store = relation_store(self.ROWS, use_indexes=False)
        store.matching(Pattern(2, eq={1: 0}))
        assert store._stats.index_hits == 0
        assert store._stats.fallback_scans == 1

    def test_index_maintained_across_add_and_free(self):
        store = relation_store(self.ROWS)
        store.add((100, 0))
        rid = store.rows.rid_of((3, 0))
        store.free(rid)
        matched = [row for _rid, row in store.matching(Pattern(2, eq={1: 0}))]
        assert matched == [(0, 0), (6, 0), (100, 0)]


class TestAnnotationStore:
    def test_unknown_relation(self):
        store = AnnotationStore(Schema([Relation("R", ["a"])]))
        with pytest.raises(EngineError, match="unknown relation"):
            store.relation("S")

    def test_use_indexes_toggle_propagates(self):
        store = AnnotationStore(Schema([Relation("R", ["a"]), Relation("S", ["a"])]))
        assert store.use_indexes
        store.use_indexes = False
        assert not store.relation("R").use_indexes
        assert not store.relation("S").use_indexes


ALL_POLICIES = ["none", "naive", "normal_form", "normal_form_batch"]


class TestExecutorsShareTheStore:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_every_executor_sits_on_the_store(self, policy):
        database = Database.from_rows("R", ["a", "b"], [(1, 2)])
        executor = make_executor(database, policy)
        assert isinstance(executor.store, AnnotationStore)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_cross_policy_live_rows_agree_on_mixed_workload(self, policy):
        """Acceptance: all policies agree on a mixed workload via the store."""
        from repro.workloads.synthetic import (
            SyntheticConfig,
            synthetic_database,
            synthetic_log,
        )

        config = SyntheticConfig(
            n_tuples=300, n_queries=80, n_groups=8, group_size=5, seed=21
        )
        database = synthetic_database(config)
        log = synthetic_log(config)
        vanilla = Engine(database, policy="none").apply(log)
        other = Engine(database, policy=policy).apply(log)
        assert other.result().same_contents(vanilla.result())

    def test_tombstones_match_but_stay_dead(self):
        database = Database.from_rows("R", ["a"], [("a",)])
        engine = Engine(database, policy="normal_form")
        engine.apply(Transaction("p", [Delete("R", Pattern(1, eq={0: "a"}))]))
        engine.apply(Transaction("q", [Modify("R", Pattern(1, eq={0: "a"}), {0: "z"})]))
        # The tombstone was found through the index and modified onto a ghost.
        assert engine.support_count() == 2
        assert engine.live_rows("R") == set()
        assert engine.stats.index_hits == 2

    def test_vanilla_physically_frees_rows(self):
        database = Database.from_rows("R", ["a"], [("a",), ("b",)])
        executor = make_executor(database, "none")
        executor.apply(Delete("R", Pattern(1, eq={0: "a"})))
        assert len(executor.store.relation("R").rows) == 1
        # The freed row no longer appears through the index either.
        assert executor.store.relation("R").matching(Pattern(1, eq={0: "a"})) == []

    def test_insert_lands_in_the_index(self):
        database = Database.from_rows("R", ["a", "b"], [])
        executor = make_executor(database, "naive")
        executor.apply(Insert("R", (1, 2), annotation="p"))
        assert executor.store.relation("R").matching(Pattern(2, eq={1: 2})) == [
            (0, (1, 2))
        ]

    def test_vanilla_churn_compacts_freed_slots(self):
        """Insert+delete cycles must not grow the slot lists without bound."""
        database = Database.from_rows("R", ["a"], [(i,) for i in range(10)])
        executor = make_executor(database, "none")
        for cycle in range(300):
            executor.apply(Insert("R", (1000 + cycle,)))
            executor.apply(Delete("R", Pattern(1, eq={0: 1000 + cycle})))
        rows = executor.store.relation("R").rows
        assert len(rows) == 10
        assert rows.live_rows() == {(i,) for i in range(10)}
        assert rows.slot_count() < 100  # freed slots were compacted away
        # Indexes were rebuilt consistently with the renumbered ids.
        ((rid, row),) = executor.store.relation("R").matching(Pattern(1, eq={0: 3}))
        assert row == (3,)
        assert rid < rows.slot_count()
