"""End-to-end integration: text front-end → engine → storage → applications."""

from repro.apps import DeletionPropagation, TransactionAbortion
from repro.db.database import Database
from repro.engine.engine import Engine
from repro.lang.sql import parse_sql_script
from repro.semantics.boolean import BooleanStructure
from repro.tpcc.driver import generate_tpcc
from repro.tpcc.loader import TPCCScale
from repro.wal import JournaledEngine, recover
from repro.workloads.logs import UpdateLog, log_from_json, log_to_json
from repro.workloads.synthetic import synthetic_workload


def test_sql_to_provenance_to_whatif(tmp_path):
    """The full quickstart path: SQL script in, what-if analysis out."""
    db = Database.from_rows(
        "products",
        ["product", "category", "price"],
        [
            ("Kids mnt bike", "Sport", 120),
            ("Tennis Racket", "Sport", 70),
            ("Kids mnt bike", "Kids", 120),
            ("Children sneakers", "Fashion", 40),
        ],
    )
    script = """
    BEGIN TRANSACTION p;
    UPDATE products SET category = 'Sport'
        WHERE product = 'Kids mnt bike' AND category = 'Kids';
    UPDATE products SET category = 'Bicycles'
        WHERE product = 'Kids mnt bike' AND category = 'Sport';
    COMMIT;
    BEGIN TRANSACTION p2;
    UPDATE products SET price = 50 WHERE category = 'Sport';
    COMMIT;
    """
    items = parse_sql_script(script, db.schema)
    log = UpdateLog(items)

    # Serialize the log, reload, and verify identical replay.
    log2, _ = log_from_json(log_to_json(log, db.schema))
    r1 = Engine(db, policy="none").apply(log).result()
    r2 = Engine(db, policy="none").apply(log2).result()
    assert r1.same_contents(r2)

    # Track provenance durably, recover it from its checkpoint alone, and
    # answer an abortion what-if from the recovered engine.
    directory = tmp_path / "state"
    with JournaledEngine(db, directory, policy="normal_form_batch") as engine:
        engine.apply(log)
    reloaded = recover(directory)
    assert reloaded.recovery.tail_records == 0
    values = reloaded.specialize(BooleanStructure(), lambda name: name != "p")
    survived = {row for row, value in values["products"].items() if value}
    aborted = TransactionAbortion(db, log).baseline(["p"])
    assert survived == aborted.rows("products")


def test_tpcc_full_pipeline():
    """TPC-C generation → three policies → deletion what-if, consistent."""
    workload = generate_tpcc(TPCCScale(), n_queries=150, seed=21)
    vanilla = Engine(workload.database, policy="none").apply(workload.log)
    nf = Engine(workload.database, policy="normal_form").apply(workload.log)
    assert nf.result().same_contents(vanilla.result())

    app = DeletionPropagation(workload.database, workload.log)
    victims = [("CUSTOMER", row) for row in sorted(workload.database.rows("CUSTOMER"))[:3]]
    assert app.propagate(victims).database.same_contents(app.baseline(victims))


def test_synthetic_single_annotation_pipeline():
    """The paper's execution model end to end, with usage verification."""
    w = synthetic_workload(
        n_tuples=800, n_queries=80, n_groups=4, group_size=4, domain_size=25
    )
    single = w.log.as_single_transaction()
    from repro.bench.measure import usage_measurement

    engine = Engine(w.database, policy="normal_form").apply(single)
    baseline = Engine(w.database, policy="none").apply(single)
    assert engine.result().same_contents(baseline.result())
    measurement = usage_measurement(engine, w.database, single, n_deletions=12)
    assert measurement.consistent
