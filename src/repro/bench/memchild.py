"""Subprocess child of the ``memory`` axis (:func:`repro.bench.axes.memory_axis`).

Peak RSS (:func:`repro.memory.peak_rss_bytes`) is monotone over a process lifetime, so
the workload's peak is only its own in a *fresh* process.  The parent
launches this module as ``python -m repro.bench.memchild`` with a JSON
config on stdin (``seed`` and the workload sizes of the axis's table);
the child runs a deterministic churn workload and reports a JSON
measurement on stdout.

The workload models a long-lived server process: one *resident* engine
whose annotated state stays live, plus a sequence of workload *epochs* —
fresh engines built, churned through multi-query ``normal_form_batch``
transactions, observed, and discarded, the way successive benchmark runs,
decoded captures and retired snapshots come and go inside one process.
Every epoch's expressions die with its engine, so after the epochs the
intern table must hold exactly the nodes reachable from the resident
state (plus ``ZERO``).  The nodes each dropped engine releases are
counted: their sum is what a grow-only intern table would still hold.
"""

from __future__ import annotations

import json
import sys
import time

__all__ = ["run_child"]


def _churn_transactions(config: dict, epoch: int) -> "list":
    """The deterministic update stream of one epoch.

    Mirrors the loadgen generator's shape — inserts of fresh ids, deletes
    and modifies selecting on the group column — but is self-contained so
    the bench axis cannot drift when loadgen profiles do.  Streams of
    different epochs use disjoint transaction names and different
    constants, so their expressions share only the initial-row bases.
    """
    import random

    from ..queries.pattern import Pattern
    from ..queries.updates import Delete, Insert, Modify, Transaction

    rng = random.Random(f"memchild:{config['seed']}:{epoch}")
    groups = config["groups"]
    per_txn = config["queries_per_transaction"]
    items = []
    next_id = config["rows"]
    for index in range(config["transactions"]):
        queries = []
        for _ in range(per_txn):
            group = rng.randrange(groups)
            roll = rng.random()
            if roll < 0.2:
                queries.append(Insert("churn", (next_id, group, rng.randrange(100))))
                next_id += 1
            elif roll < 0.4:
                queries.append(Delete("churn", Pattern(3, eq={1: group})))
            else:
                queries.append(
                    Modify("churn", Pattern(3, eq={1: group}), {2: rng.randrange(100)})
                )
        items.append(Transaction(f"e{epoch}t{index}", queries))
    return items


def _fresh_engine(config: dict):
    from ..db.database import Database
    from ..db.schema import Relation, Schema
    from ..engine.engine import Engine

    schema = Schema([Relation("churn", ["id", "grp", "v0"])])
    database = Database(schema)
    database.extend(
        "churn",
        [(rid, rid % config["groups"], rid % 7) for rid in range(config["rows"])],
    )
    return Engine(database, policy="normal_form_batch")


def _observe(engine) -> None:
    """Read every annotation, holding none of them afterwards."""
    for _ in engine.provenance("churn"):
        pass


def run_child(config: dict) -> dict:
    """Run the workload in this process and return its measurement."""
    import gc

    from ..core.expr import ZERO, dag_size, intern_table_size
    from ..memory import current_rss_bytes, peak_rss_bytes

    # The resident engine: its annotated state is the only provenance that
    # outlives the epochs.  Epoch -1 seeds it with real history.
    resident = _fresh_engine(config)
    resident.apply(_churn_transactions(config, epoch=-1))
    _observe(resident)

    started = time.perf_counter()
    intern_peak = intern_table_size()
    freed = 0
    samples = []
    for epoch in range(config["epochs"]):
        engine = _fresh_engine(config)
        engine.apply(_churn_transactions(config, epoch))
        # Observation flushes the batch; the naive chains built during
        # each transaction are already garbage, the rest of the epoch's
        # expressions become garbage when `engine` is dropped below.
        _observe(engine)
        before = intern_table_size()
        intern_peak = max(intern_peak, before)
        # Engines may sit in reference cycles: collect, so the drop is
        # counted in the epoch that caused it.
        del engine
        gc.collect()
        freed += before - intern_table_size()
        samples.append(
            {
                "epoch": epoch,
                "intern_table_size": intern_table_size(),
                "rss_bytes": current_rss_bytes(),
            }
        )
    elapsed = time.perf_counter() - started

    gc.collect()
    at_rest = intern_table_size()
    # Holding the resident annotations, the table must hold exactly their
    # distinct nodes plus ZERO: nothing an epoch built may survive it.
    held = [expr for _row, expr, _live in resident.provenance("churn")]
    reachable = dag_size([*held, ZERO])
    live = intern_table_size()
    return {
        "epochs": config["epochs"],
        "transactions_per_epoch": config["transactions"],
        "peak_rss_bytes": peak_rss_bytes(),
        "end_rss_bytes": current_rss_bytes(),
        "intern_table_size": at_rest,
        "intern_table_peak": intern_peak,
        "freed_nodes": freed,
        "live_nodes": live,
        "reachable_nodes": reachable,
        "samples": samples,
        "elapsed_s": elapsed,
    }


def main() -> int:
    config = json.loads(sys.stdin.read())
    result = run_child(config)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
