"""Drivers regenerating every evaluation figure of the paper.

Each ``figure_*`` function builds the workload at the active scale, runs
the required policies, and returns :class:`~repro.bench.reporting.FigureResult`
tables whose rows are the series the paper plots:

==========  ===============================================================
figure_7    TPC-C — memory overhead (7a), runtime (7b), usage time (7c)
figure_8    synthetic — memory overhead (8a), runtime (8b), usage (8c)
figure_9a   sweep of the *total* number of affected tuples (memory + time)
figure_9b   sweep of the number of tuples affected *per query* (5 queries)
figure_10   comparison with MV-semirings — memory (10a), runtime (10b)
figure_blowup  Proposition 5.1's exponential naive blowup, measured
ablation_annotations  (ours) effect of annotation granularity on the
            normal form's leverage — the design choice DESIGN.md calls out
==========  ===============================================================

The same registry holds the measured axes of :mod:`repro.bench.axes`
(``cache index server view recovery replication memory``): one
name space, one ``repro figure NAME --scale S --save DIR``.

Execution model: logs run as a single annotated transaction (the paper's
Section 3 semantics; see ``UpdateLog.as_single_transaction``), except in
the ablation, which contrasts exactly that choice.
"""

from __future__ import annotations

import dataclasses
import random

from ..db.database import Database
from ..engine.engine import Engine
from ..queries.pattern import Pattern
from ..queries.updates import Modify, Transaction
from ..tpcc.driver import generate_tpcc
from ..tpcc.loader import TPCCScale
from ..workloads.logs import UpdateLog
from ..workloads.synthetic import SyntheticConfig, synthetic_database, synthetic_log
from .axes import AXES
from .measure import UsageMeasurement, checkpoints_for, series_run, usage_measurement
from .reporting import FigureResult
from .scales import BenchScale, active_scale

__all__ = [
    "figure_7",
    "figure_8",
    "figure_9a",
    "figure_9b",
    "figure_10",
    "figure_blowup",
    "ablation_annotations",
    "ALL_FIGURES",
    "run_figures",
]

_POLICY_LABELS = {
    "none": "No provenance",
    "naive": "No axioms",
    "normal_form": "Normal form",
    "mv_tree": "MV-semiring (tree impl)",
    "mv_string": "MV-semiring (string impl)",
}


def _overhead_usage_figures(
    prefix: str,
    dataset: str,
    database: Database,
    log: UpdateLog,
    scale: BenchScale,
    expanded_sizes: bool,
) -> list[FigureResult]:
    """The shared 3-panel layout of Figures 7 and 8."""
    single = log.as_single_transaction()
    cps = checkpoints_for(single.query_count(), scale.series_points)
    usage: dict[str, list[UsageMeasurement]] = {"naive": [], "normal_form": []}

    # Warm-up: one unmeasured vanilla pass, so the first measured policy
    # does not pay the cold-cache cost of touching every row for the
    # first time (at small scales that artifact exceeds the real deltas).
    Engine(database, policy="none").apply(single)

    def usage_probe(policy: str):
        def probe(engine: Engine, applied: int) -> None:
            usage[policy].append(
                usage_measurement(
                    engine,
                    database,
                    single.prefix(applied),
                    n_deletions=scale.usage_deletions,
                    rng=random.Random(99),
                )
            )

        return probe

    runs = {"none": series_run(database, single, "none", cps)}
    for policy in ("naive", "normal_form"):
        runs[policy] = series_run(
            database,
            single,
            policy,
            cps,
            measure_sizes=expanded_sizes,
            on_checkpoint=usage_probe(policy),
        )

    base_rows = database.total_rows()
    fig_a = FigureResult(
        figure=f"{prefix}a",
        title=f"Memory overhead vs number of updates ({dataset})",
        columns=[
            "queries",
            "naive stored nodes",
            "nf stored nodes",
            "naive expanded size",
            "nf expanded size",
            "naive extra rows",
            "nf extra rows",
        ],
        expectation="'No axioms' well above 'Normal form'; identical row (tombstone) overhead",
    )
    for i, cp in enumerate(runs["naive"].checkpoints):
        nf_cp = runs["normal_form"].checkpoints[i]
        fig_a.add(
            **{
                "queries": cp.queries,
                "naive stored nodes": cp.stored_size,
                "nf stored nodes": nf_cp.stored_size,
                "naive expanded size": cp.expanded_size,
                "nf expanded size": nf_cp.expanded_size,
                "naive extra rows": cp.support_rows - base_rows,
                "nf extra rows": nf_cp.support_rows - base_rows,
            }
        )
    final_naive = runs["naive"].final()
    final_nf = runs["normal_form"].final()
    if final_nf.stored_size:
        fig_a.note(
            f"final stored-size ratio naive/nf = "
            f"{final_naive.stored_size / final_nf.stored_size:.2f} "
            f"(paper TPC-C: 4,127,127 vs 2,264,798 = 1.82)"
        )
    if final_nf.expanded_size:
        fig_a.note(
            f"final expanded-size ratio naive/nf = "
            f"{final_naive.expanded_size / max(final_nf.expanded_size, 1):.2f}"
        )

    fig_b = FigureResult(
        figure=f"{prefix}b",
        title=f"Runtime vs number of updates ({dataset})",
        columns=["queries", "no provenance [s]", "no axioms [s]", "normal form [s]"],
        expectation="no provenance < normal form < no axioms; normal-form overhead small",
    )
    for i, cp in enumerate(runs["none"].checkpoints):
        fig_b.add(
            **{
                "queries": cp.queries,
                "no provenance [s]": cp.elapsed,
                "no axioms [s]": runs["naive"].checkpoints[i].elapsed,
                "normal form [s]": runs["normal_form"].checkpoints[i].elapsed,
            }
        )

    fig_c = FigureResult(
        figure=f"{prefix}c",
        title=f"Provenance usage time for deletion propagation ({dataset})",
        columns=[
            "queries",
            "re-run baseline [s]",
            "naive usage [s]",
            "nf usage [s]",
            "naive speedup",
            "nf speedup",
            "consistent",
        ],
        expectation="usage orders of magnitude below re-run; normal form fastest "
        "(paper: x25/x45 on TPC-C, x81/x91 on synthetic)",
    )
    for naive_u, nf_u in zip(usage["naive"], usage["normal_form"]):
        fig_c.add(
            **{
                "queries": naive_u.queries,
                "re-run baseline [s]": nf_u.rerun_time,
                "naive usage [s]": naive_u.usage_time,
                "nf usage [s]": nf_u.usage_time,
                "naive speedup": naive_u.speedup,
                "nf speedup": nf_u.speedup,
                "consistent": naive_u.consistent and nf_u.consistent,
            }
        )
    return [fig_a, fig_b, fig_c]


def figure_7(scale: BenchScale | None = None) -> list[FigureResult]:
    """Figure 7: provenance overhead and usage on TPC-C."""
    scale = scale or active_scale()
    workload = generate_tpcc(
        TPCCScale(warehouses=scale.tpcc_warehouses), n_queries=scale.tpcc_queries, seed=42
    )
    return _overhead_usage_figures(
        "fig7", "TPC-C", workload.database, workload.log, scale, expanded_sizes=True
    )


def figure_8(scale: BenchScale | None = None) -> list[FigureResult]:
    """Figure 8: provenance overhead and usage on the synthetic dataset."""
    scale = scale or active_scale()
    config = SyntheticConfig(
        n_tuples=scale.synthetic_tuples,
        n_queries=scale.synthetic_queries,
        n_groups=max(1, scale.synthetic_affected // scale.synthetic_per_query),
        group_size=scale.synthetic_per_query,
        seed=7,
    )
    return _overhead_usage_figures(
        "fig8",
        "synthetic",
        synthetic_database(config),
        synthetic_log(config),
        scale,
        expanded_sizes=True,
    )


def _final_point(database: Database, log: UpdateLog, policy: str) -> dict[str, object]:
    single = log.as_single_transaction()
    run = series_run(database, single, policy, [single.query_count()])
    final = run.final()
    return {
        "elapsed": final.elapsed,
        "stored": final.stored_size,
        "expanded": final.expanded_size,
        "rows": final.support_rows,
    }


def figure_9a(scale: BenchScale | None = None) -> list[FigureResult]:
    """Figure 9a: sweep of the total number of affected tuples."""
    scale = scale or active_scale()
    fig = FigureResult(
        figure="fig9a",
        title="Memory and runtime vs total affected tuples (fixed query count)",
        columns=[
            "affected tuples",
            "affected %",
            "naive stored nodes",
            "nf stored nodes",
            "naive time [s]",
            "nf time [s]",
        ],
        expectation="fewer affected tuples = more updates per tuple: the gap between "
        "'No axioms' and 'Normal form' widens as the affected set shrinks",
    )
    for fraction in scale.fig9a_fractions:
        total = max(scale.synthetic_per_query, int(scale.synthetic_tuples * fraction))
        total -= total % scale.synthetic_per_query
        config = SyntheticConfig(
            n_tuples=scale.synthetic_tuples,
            n_queries=scale.fig9a_queries,
            n_groups=total // scale.synthetic_per_query,
            group_size=scale.synthetic_per_query,
            seed=7,
        )
        database = synthetic_database(config)
        log = synthetic_log(config)
        naive = _final_point(database, log, "naive")
        nf = _final_point(database, log, "normal_form")
        fig.add(
            **{
                "affected tuples": total,
                "affected %": 100.0 * total / scale.synthetic_tuples,
                "naive stored nodes": naive["stored"],
                "nf stored nodes": nf["stored"],
                "naive time [s]": naive["elapsed"],
                "nf time [s]": nf["elapsed"],
            }
        )
    return [fig]


def figure_9b(scale: BenchScale | None = None) -> list[FigureResult]:
    """Figure 9b: sweep of the tuples affected per query (5 queries)."""
    scale = scale or active_scale()
    fig = FigureResult(
        figure="fig9b",
        title="Memory and runtime vs tuples affected per query (5 modifications)",
        columns=[
            "affected per query",
            "naive stored nodes",
            "nf stored nodes",
            "naive expanded size",
            "nf expanded size",
            "naive time [s]",
            "nf time [s]",
        ],
        expectation="both grow moderately in memory; the runtime of 'No axioms' grows "
        "much faster (it drags ever-larger expressions along)",
    )
    for per_query in scale.fig9b_per_query:
        config = SyntheticConfig(
            n_tuples=scale.synthetic_tuples,
            n_queries=5,
            n_groups=1,
            group_size=per_query,
            weights=(0.0, 0.0, 1.0),  # five modifications, as in §6.3
            seed=7,
        )
        database = synthetic_database(config)
        log = synthetic_log(config)
        naive = _final_point(database, log, "naive")
        nf = _final_point(database, log, "normal_form")
        fig.add(
            **{
                "affected per query": per_query,
                "naive stored nodes": naive["stored"],
                "nf stored nodes": nf["stored"],
                "naive expanded size": naive["expanded"],
                "nf expanded size": nf["expanded"],
                "naive time [s]": naive["elapsed"],
                "nf time [s]": nf["elapsed"],
            }
        )
    return [fig]


def figure_10(scale: BenchScale | None = None) -> list[FigureResult]:
    """Figure 10: comparison with the MV-semiring model of [Arab et al. 2016]."""
    scale = scale or active_scale()
    config = SyntheticConfig(
        n_tuples=scale.synthetic_tuples,
        n_queries=scale.synthetic_queries,
        n_groups=max(1, scale.synthetic_affected // scale.synthetic_per_query),
        group_size=scale.synthetic_per_query,
        seed=7,
    )
    database = synthetic_database(config)
    single = synthetic_log(config).as_single_transaction()
    cps = checkpoints_for(single.query_count(), scale.series_points)
    Engine(database, policy="none").apply(single)  # cache warm-up, unmeasured
    policies = ("naive", "normal_form", "mv_tree", "mv_string")
    runs = {policy: series_run(database, single, policy, cps) for policy in policies}

    fig_a = FigureResult(
        figure="fig10a",
        title="Memory overhead: UP[X] policies vs MV-semirings",
        columns=[
            "queries",
            "naive length+rows",
            "nf length+rows",
            "mv length+rows",
        ],
        expectation="implementation-independent measure (provenance length + tuples): "
        "naive highest (duplicated tuples), MV close below, normal form smallest",
    )
    for i in range(len(runs["naive"].checkpoints)):
        naive_cp = runs["naive"].checkpoints[i]
        nf_cp = runs["normal_form"].checkpoints[i]
        mv_cp = runs["mv_tree"].checkpoints[i]
        fig_a.add(
            **{
                "queries": naive_cp.queries,
                "naive length+rows": naive_cp.stored_size + naive_cp.support_rows,
                "nf length+rows": nf_cp.stored_size + nf_cp.support_rows,
                "mv length+rows": mv_cp.stored_size + mv_cp.support_rows,
            }
        )

    fig_b = FigureResult(
        figure="fig10b",
        title="Runtime: UP[X] policies vs MV-semirings (tree and string)",
        columns=["queries"] + [f"{_POLICY_LABELS[p]} [s]" for p in policies],
        expectation="MV tree slowest (deep recursive copies); MV string and normal "
        "form close; most implementations land between the two MV variants",
    )
    for i in range(len(runs["naive"].checkpoints)):
        row: dict[str, object] = {"queries": runs["naive"].checkpoints[i].queries}
        for policy in policies:
            row[f"{_POLICY_LABELS[policy]} [s]"] = runs[policy].checkpoints[i].elapsed
        fig_b.add(**row)
    return [fig_a, fig_b]


def figure_blowup(scale: BenchScale | None = None) -> list[FigureResult]:
    """Proposition 5.1: the adversarial two-tuple alternation, measured."""
    scale = scale or active_scale()
    database = Database.from_rows("R", ["value"], [("a",), ("b",)])
    arity = 1
    u12 = Modify("R", Pattern(arity, eq={0: "a"}), {0: "b"})
    u21 = Modify("R", Pattern(arity, eq={0: "b"}), {0: "a"})
    queries = [u12 if i % 2 == 0 else u21 for i in range(scale.blowup_queries)]
    log = UpdateLog([Transaction("p", queries)])

    fig = FigureResult(
        figure="prop5.1",
        title="Naive provenance blowup on the two-tuple alternation",
        columns=[
            "queries",
            "naive expanded size",
            "nf expanded size",
            "naive stored nodes",
            "nf stored nodes",
        ],
        expectation="naive expanded size grows as 2^(n/2); the normal form stays "
        "constant-size (Theorem 5.3)",
    )
    cps = list(range(2, scale.blowup_queries + 1, 2))
    naive = series_run(database, log, "naive", cps)
    nf = series_run(database, log, "normal_form", cps)
    for naive_cp, nf_cp in zip(naive.checkpoints, nf.checkpoints):
        fig.add(
            **{
                "queries": naive_cp.queries,
                "naive expanded size": naive_cp.expanded_size,
                "nf expanded size": nf_cp.expanded_size,
                "naive stored nodes": naive_cp.stored_size,
                "nf stored nodes": nf_cp.stored_size,
            }
        )
    last = fig.rows[-1]
    fig.note(
        f"naive grew to {last['naive expanded size']:,} expanded nodes after "
        f"{last['queries']} queries; the normal form holds at {last['nf expanded size']:,}"
    )
    return [fig]


def ablation_annotations(scale: BenchScale | None = None) -> list[FigureResult]:
    """Ablation: annotation granularity decides the normal form's leverage.

    The Figure 3 axioms relate operations carrying the *same* annotation,
    so the normal form compresses within an annotation scope and freezes
    across scopes.  Sweeping queries-per-annotation from 1 (every query its
    own transaction) to the whole log (the paper's execution model) shows
    the same workload moving from "no compression possible" to the full
    Theorem 5.3 effect.
    """
    scale = scale or active_scale()
    config = SyntheticConfig(
        n_tuples=scale.synthetic_tuples,
        n_queries=min(scale.synthetic_queries, 200),
        n_groups=max(1, (scale.synthetic_affected // 2) // scale.synthetic_per_query),
        group_size=scale.synthetic_per_query,
        seed=7,
    )
    database = synthetic_database(config)
    fig = FigureResult(
        figure="ablation-annotations",
        title="Normal-form leverage vs annotation granularity (queries per annotation)",
        columns=[
            "queries per annotation",
            "naive stored nodes",
            "nf stored nodes",
            "naive time [s]",
            "nf time [s]",
        ],
        expectation="(ours) with per-query annotations the axioms never apply and the "
        "two policies coincide; batching restores the normal form's advantage",
    )
    total = config.n_queries
    for per_annotation in (1, 5, 25, total):
        base = synthetic_log(
            dataclasses.replace(config, queries_per_transaction=min(per_annotation, total))
        )
        naive = series_run(database, base, "naive", [total]).final()
        nf = series_run(database, base, "normal_form", [total]).final()
        fig.add(
            **{
                "queries per annotation": per_annotation,
                "naive stored nodes": naive.stored_size,
                "nf stored nodes": nf.stored_size,
                "naive time [s]": naive.elapsed,
                "nf time [s]": nf.elapsed,
            }
        )
    return [fig]


#: name -> driver, in presentation order.
ALL_FIGURES = {
    "fig7": figure_7,
    "fig8": figure_8,
    "fig9a": figure_9a,
    "fig9b": figure_9b,
    "fig10": figure_10,
    "blowup": figure_blowup,
    "ablation": ablation_annotations,
    **AXES,
}


def run_figures(names: list[str] | None = None, scale: BenchScale | None = None):
    """Run the named figure drivers (default: all); yields FigureResults."""
    for name in names or list(ALL_FIGURES):
        if name not in ALL_FIGURES:
            raise KeyError(f"unknown figure {name!r} (choose from {', '.join(ALL_FIGURES)})")
        yield from ALL_FIGURES[name](scale)
