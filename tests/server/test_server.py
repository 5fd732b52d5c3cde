"""ISSUE 5 acceptance: server round trips are bit-identical to the engine.

Every test hosts a real asyncio server on a background thread and talks
to it over TCP with the blocking client.  Because client decoding
re-interns expressions in this very process, "bit-identical" is asserted
at full strength: equal rows, equal liveness, and the *identical*
interned annotation object per row, compared against a direct in-process
engine applying the same items — across the plain and journaled
backends.
"""

from __future__ import annotations

import logging

import pytest

from repro.core.expr import dag_size
from repro.db.database import Database
from repro.engine.engine import Engine
from repro.engine.oracle import assert_bit_identical
from repro.errors import ServerError
from repro.queries.updates import Delete, Insert, Modify, Transaction
from repro.semantics.boolean import BooleanStructure
from repro.server import ServerClient, ServerConfig, serve_in_thread
from repro.wal.recovery import recover
from repro.workloads.synthetic import SyntheticConfig, synthetic_database, synthetic_log


def small_workload(seed: int = 11):
    config = SyntheticConfig(
        n_tuples=300, n_queries=60, n_groups=8, group_size=3,
        queries_per_transaction=4, seed=seed,
    )
    return synthetic_database(config), list(synthetic_log(config).items)


def serve(database, **overrides):
    config = ServerConfig(port=0, **overrides)
    return serve_in_thread(database, config)


@pytest.mark.parametrize("backend", ["plain", "journaled"])
def test_round_trip_bit_identical_across_backends(backend, tmp_path):
    database, items = small_workload()
    overrides = {"policy": "normal_form_batch", "backend": backend}
    if backend == "journaled":
        overrides["directory"] = str(tmp_path / "state")

    direct = Engine(database, policy="normal_form_batch")
    with serve(database, **overrides) as handle:
        with ServerClient(handle.host, handle.port) as client:
            # Mix the two application paths, mirroring them on the direct
            # engine; interleave reads so snapshots land mid-stream too.
            for position, item in enumerate(items):
                if position % 3 == 0:
                    applied = client.apply_batch(item)
                    direct.apply_batch(item)
                else:
                    applied = client.apply(item)
                    direct.apply(item)
                assert applied == (len(item) if isinstance(item, Transaction) else 1)
                if position % 10 == 0:
                    client.provenance("synthetic")

            expected = direct.capture()
            assert_bit_identical(client.state(), expected)

            # provenance() agrees with state() row for row.
            observed = {
                row: (expr, live)
                for row, expr, live in client.provenance("synthetic")
            }
            for row, (expr, live) in expected["synthetic"].items():
                assert observed[row][0] is expr
                assert observed[row][1] == live

            # annotation_of: the identical interned object, O(1) per row.
            sample = list(expected["synthetic"])[:10]
            for row in sample:
                assert client.annotation_of("synthetic", row) is (
                    expected["synthetic"][row][0]
                )

            # Engine counters crossed the wire.
            stats = client.stats()
            assert stats["engine"]["queries"] == direct.stats.queries
            assert stats["server"]["admitted"] > 0


@pytest.mark.parametrize("policy", ["naive", "normal_form", "none"])
def test_round_trip_bit_identical_across_policies(policy):
    database, items = small_workload(seed=5)
    direct = Engine(database, policy=policy)
    with serve(database, policy=policy) as handle:
        with ServerClient(handle.host, handle.port) as client:
            client.apply(items)
            direct.apply(items)
            assert_bit_identical(client.state(), direct)


def test_stats_memory_block_is_rss_and_the_intern_table():
    """Annotations stay expression objects at rest, so the ``memory`` block
    reports the process RSS and the live intern table, plus the rows the
    change sets still hold, nothing else."""
    database, items = small_workload(seed=7)
    with serve(database) as handle:
        with ServerClient(handle.host, handle.port) as client:
            client.apply(items)
            memory = client.stats()["memory"]
    assert set(memory) == {
        "rss_bytes", "peak_rss_bytes", "intern_table_size", "pending_changes"
    }
    assert memory["peak_rss_bytes"] >= memory["rss_bytes"] > 0
    assert memory["intern_table_size"] > 0
    assert memory["pending_changes"] == 0  # transactions flush at their end


@pytest.mark.parametrize("policy", ["naive", "normal_form_batch"])
def test_bare_queries_leave_only_pending_normalisation_in_the_change_sets(policy):
    """The writer's end of cycle forgets every change no view reads, and
    keeps only what the deferred policy's next flush normalises."""
    database, items = small_workload(seed=5)
    queries = [query for item in items for query in item]
    with serve(database, policy=policy) as handle:
        with ServerClient(handle.host, handle.port) as client:
            client.apply(queries)
            pending = client.stats()["memory"]["pending_changes"]
            client.state()  # an observation flushes normal_form_batch
            flushed = client.stats()["memory"]["pending_changes"]
    assert (pending > 0) == (policy == "normal_form_batch")
    assert flushed == 0


def test_provenance_reply_ships_each_distinct_node_once():
    """Counted: a ``provenance`` reply carries ``dag_size`` of the relation's
    annotations in nodes, not the sum of the per-row DAG sizes."""
    database, items = small_workload(seed=3)
    direct = Engine(database, policy="normal_form_batch").apply(items)
    exprs = [expr for _row, expr, _live in direct.provenance("synthetic")]
    distinct = dag_size(exprs)
    assert distinct < sum(dag_size([expr]) for expr in exprs)  # rows do share
    with serve(database, policy="normal_form_batch") as handle:
        with ServerClient(handle.host, handle.port) as client:
            client.apply(items)
            reply = client._call("provenance", relation="synthetic")
    assert len(reply["rows"]["exprs"]["nodes"]) == distinct


def test_specialize_matches_in_process_engine(products_db):
    rel = products_db.relation("products")
    t1 = Transaction("txn_mod", [
        Modify.set(rel, where={"category": "Kids"}, set_values={"category": "Sport"}),
    ])
    t2 = Transaction("txn_del", [Delete.where(rel, {"category": "Sport"})])
    # No custom annotator on either side: both assign the default x1..x4
    # tuple names, so the what-if toggles the same annotation space.
    direct = Engine(products_db, policy="normal_form")
    direct.apply([t1, t2])

    with serve(products_db, policy="normal_form") as handle:
        with ServerClient(handle.host, handle.port) as client:
            client.apply([t1, t2])
            env = {"txn_del": False}  # what-if: abort the deletion
            over_wire = client.specialize(env, default=True)
            in_process = direct.specialize(
                BooleanStructure(), lambda name: env.get(name, True)
            )
            assert over_wire.keys() == in_process.keys()
            for name in in_process:
                assert over_wire[name] == {
                    row: bool(value) for row, value in in_process[name].items()
                }


def test_graceful_shutdown_checkpoints_journaled_state(tmp_path):
    """The shutdown op flushes and checkpoints; recovery finds zero tail."""
    database, items = small_workload(seed=7)
    directory = tmp_path / "state"
    direct = Engine(database, policy="normal_form_batch")
    handle = serve(
        database, backend="journaled", policy="normal_form_batch",
        directory=str(directory),
    )
    client = ServerClient(handle.host, handle.port)
    client.apply(items)
    direct.apply(items)
    client.shutdown()  # graceful: drains, flushes, checkpoints
    handle.stop()

    recovered = recover(directory)
    assert recovered.recovery.tail_records == 0  # shutdown checkpointed
    assert_bit_identical(recovered, direct)
    recovered.journal.close()


def test_restarting_serve_recovers_previous_state(tmp_path):
    directory = tmp_path / "state"
    database = Database.from_rows("items", ["sku", "qty"], [("a", 1)])
    with serve(
        database, backend="journaled", policy="naive", directory=str(directory)
    ) as handle:
        with ServerClient(handle.host, handle.port) as client:
            client.apply(Transaction("t1", [Insert("items", ("b", 2))]))
    # Same directory, no database: the server recovers the deployment.
    with serve(
        None, backend="journaled", policy="naive", directory=str(directory)
    ) as handle:
        with ServerClient(handle.host, handle.port) as client:
            live = {row for row, _e, lv in client.provenance("items") if lv}
            assert live == {("a", 1), ("b", 2)}


def test_errors_do_not_kill_the_connection():
    database = Database.from_rows("items", ["sku", "qty"], [("a", 1)])
    with serve(database, policy="naive") as handle:
        with ServerClient(handle.host, handle.port) as client:
            with pytest.raises(ServerError, match="unknown relation"):
                client.apply(Insert("nope", ("x",), annotation="t"))
            with pytest.raises(ServerError, match="arity mismatch"):
                client.apply(Insert("items", ("x", 1, 2), annotation="t"))
            with pytest.raises(ServerError, match="unknown relation"):
                client.provenance("nope")
            with pytest.raises(ServerError, match="unknown op"):
                client._call("frobnicate")
            # The connection survived every error above.
            assert client.apply(Insert("items", ("b", 2), annotation="t")) == 1
            assert ("b", 2) in {r for r, _e, lv in client.provenance("items") if lv}


def test_specialize_rejected_for_provenance_free_policy():
    database = Database.from_rows("items", ["sku"], [("a",)])
    with serve(database, policy="none") as handle:
        with ServerClient(handle.host, handle.port) as client:
            with pytest.raises(ServerError, match="does not track provenance"):
                client.specialize({})


def test_checkpoint_op_rejected_for_plain_backend():
    database = Database.from_rows("items", ["sku"], [("a",)])
    with serve(database, policy="naive") as handle:
        with ServerClient(handle.host, handle.port) as client:
            with pytest.raises(ServerError, match="no durable state"):
                client.checkpoint()


def test_requests_after_shutdown_are_rejected():
    database = Database.from_rows("items", ["sku"], [("a",)])
    handle = serve(database, policy="naive")
    first = ServerClient(handle.host, handle.port)
    second = ServerClient(handle.host, handle.port)
    first.shutdown()
    handle.stop()  # wait until the shutdown completed (no race with it)
    with pytest.raises(ServerError):
        second.apply(Insert("items", ("b",), annotation="t"))
    second.close()


def test_stop_with_attached_clients_logs_no_errors(caplog):
    """Every connection handler returns before the loop ends: stopping a
    server with clients still attached (one of them subscribed) cancels
    nothing mid-await, so asyncio logs no error."""
    caplog.set_level(logging.ERROR, logger="asyncio")
    database = Database.from_rows("items", ["sku"], [("a",)])
    handle = serve(database, policy="naive")
    first = ServerClient(handle.host, handle.port)
    second = ServerClient(handle.host, handle.port)
    first.ping()
    second.subscribe("items")
    handle.stop()
    first.close()
    second.close()
    assert [r for r in caplog.records if r.name == "asyncio"] == []


def test_pipelined_applies_preserve_order_and_counts():
    database = Database.from_rows("items", ["sku", "qty"], [("a", 1)])
    with serve(database, policy="naive") as handle:
        with ServerClient(handle.host, handle.port) as client:
            queries = [
                Insert("items", (f"s{i}", i), annotation=f"t{i}") for i in range(50)
            ]
            assert client.apply_pipelined(queries) == 50
            live = {row for row, _e, lv in client.provenance("items") if lv}
            assert live == {("a", 1), *((f"s{i}", i) for i in range(50))}
