"""Measurement primitives behind the Section 6 figures.

The paper reports, per policy and as a function of the number of applied
updates: runtime, memory overhead, and "usage time" (assigning values to
provenance annotations vs. re-running).  :func:`series_run` replays one
log once, snapshotting measurements at query-count checkpoints, so a whole
curve costs a single execution; :func:`usage_measurement` times the
deletion-propagation valuation against its re-run baseline at the current
state of an engine.

Size metrics (see DESIGN.md §5):

* ``expanded`` — formula length counting shared sub-expressions with
  multiplicity (the Proposition 5.1 quantity; exponential for the naive
  policy on adversarial/hot workloads);
* ``stored`` — distinct expression nodes held in memory (what a Python
  implementation keeps; the Section 6 memory-overhead curves).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..db.database import Database
from ..engine.engine import Engine
from ..semantics.boolean import BooleanStructure
from ..workloads.logs import UpdateLog

__all__ = [
    "Checkpoint",
    "SeriesRun",
    "UsageMeasurement",
    "series_run",
    "usage_measurement",
    "checkpoints_for",
]


@dataclass
class Checkpoint:
    """Measurements after ``queries`` updates under one policy."""

    queries: int
    elapsed: float
    expanded_size: int
    stored_size: int
    support_rows: int
    live_rows: int

    def as_dict(self) -> dict[str, object]:
        return {
            "queries": self.queries,
            "elapsed": self.elapsed,
            "expanded_size": self.expanded_size,
            "stored_size": self.stored_size,
            "support_rows": self.support_rows,
            "live_rows": self.live_rows,
        }


@dataclass
class SeriesRun:
    """One policy's full checkpoint series over a log."""

    policy: str
    checkpoints: list[Checkpoint] = field(default_factory=list)
    engine: Engine | None = field(default=None, repr=False)

    def final(self) -> Checkpoint:
        return self.checkpoints[-1]


def checkpoints_for(total_queries: int, points: int = 4) -> list[int]:
    """Evenly spaced checkpoint query counts ending at ``total_queries``."""
    points = max(1, min(points, total_queries))
    return [round(total_queries * (i + 1) / points) for i in range(points)]


def series_run(
    database: Database,
    log: UpdateLog,
    policy: str,
    checkpoints: Sequence[int],
    measure_sizes: bool = True,
    annotate: Callable[[str, tuple, int], str] | None = None,
    on_checkpoint: Callable[[Engine, int], None] | None = None,
) -> SeriesRun:
    """Replay ``log`` under ``policy``, measuring at each checkpoint.

    Checkpoints are taken between log items (transaction boundaries), at
    the first boundary where the cumulative query count reaches the
    requested value — measuring mid-transaction would observe states no
    semantics defines.  ``elapsed`` is the engine's accumulated per-query
    wall time (size snapshots and ``on_checkpoint`` work are excluded from
    it by construction).  A transaction is applied query-by-query here so
    that checkpoints land exactly on the requested counts even under the
    single-annotation execution model.
    """
    engine = Engine(database, policy=policy, annotate=annotate)
    run = SeriesRun(policy, engine=engine)
    targets = sorted(set(checkpoints))
    target_index = 0
    applied = 0

    def snapshot() -> None:
        expanded = engine.provenance_size() if measure_sizes else 0
        stored = engine.provenance_dag_size() if measure_sizes else 0
        run.checkpoints.append(
            Checkpoint(
                queries=applied,
                elapsed=engine.stats.wall_time,
                expanded_size=expanded,
                stored_size=stored,
                support_rows=engine.support_count(),
                live_rows=engine.live_count(),
            )
        )
        if on_checkpoint is not None:
            on_checkpoint(engine, applied)

    def at_boundary() -> None:
        nonlocal target_index
        while target_index < len(targets) and applied >= targets[target_index]:
            snapshot()
            target_index += 1

    for query in log.queries():
        if target_index >= len(targets):
            break
        engine.apply(query)
        applied += 1
        at_boundary()
    if target_index < len(targets) and (
        not run.checkpoints or run.checkpoints[-1].queries != applied
    ):
        # Log shorter than the last requested checkpoint: snapshot the end.
        snapshot()
    return run


def _evaluate_boolean(expr, deleted_vars: set[str], memo: dict[int, bool]) -> bool:
    """Boolean evaluation with a memo shared across rows.

    Semantically identical to ``evaluate(expr, BooleanStructure(), env)``
    with ``env = name not in deleted_vars``; the persistent memo makes the
    whole-database valuation a single pass over the provenance DAG.  The
    memo is keyed by ``id``, so the caller must hold every root evaluated
    into it for as long as the memo is used.
    """
    from ..core.expr import MINUS, PLUS_I, PLUS_M, SUM, TIMES_M, VAR

    if id(expr) in memo:
        return memo[id(expr)]
    stack: list[tuple[object, bool]] = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in memo:
            continue
        kind = node.kind
        if kind == VAR:
            memo[key] = node.name not in deleted_vars
            continue
        if not node.children:  # zero
            memo[key] = False
            continue
        if not expanded:
            stack.append((node, True))
            stack.extend((c, False) for c in node.children if id(c) not in memo)
            continue
        if kind == SUM:
            memo[key] = any(memo[id(c)] for c in node.children)
        elif kind in (PLUS_I, PLUS_M):
            memo[key] = memo[id(node.children[0])] or memo[id(node.children[1])]
        elif kind == TIMES_M:
            memo[key] = memo[id(node.children[0])] and memo[id(node.children[1])]
        else:  # MINUS
            assert kind == MINUS
            memo[key] = memo[id(node.children[0])] and not memo[id(node.children[1])]
    return memo[id(expr)]


@dataclass
class UsageMeasurement:
    """Deletion-propagation usage vs. the re-run baseline (Figures 7c/8c)."""

    policy: str
    queries: int
    deletions: int
    usage_time: float
    rerun_time: float
    consistent: bool

    @property
    def speedup(self) -> float:
        return self.rerun_time / self.usage_time if self.usage_time else float("inf")

    def as_dict(self) -> dict[str, object]:
        return {
            "policy": self.policy,
            "queries": self.queries,
            "deletions": self.deletions,
            "usage_time": self.usage_time,
            "rerun_time": self.rerun_time,
            "speedup": self.speedup,
            "consistent": self.consistent,
        }


def usage_measurement(
    engine: Engine,
    database: Database,
    applied_log: UpdateLog,
    n_deletions: int = 20,
    rng: random.Random | None = None,
    verify: bool = True,
) -> UsageMeasurement:
    """Time a deletion-propagation what-if on an already-tracked engine.

    Picks ``n_deletions`` random initial tuples, assigns ``False`` to their
    annotations and ``True`` everywhere else, and evaluates every stored
    annotation (the paper's "usage"); then deletes the same tuples from a
    copy of the input and re-runs the log with no provenance (the paper's
    baseline).  With ``verify`` the two results are compared — Proposition
    4.2 says they must agree.
    """
    rng = rng or random.Random(17)
    structure = BooleanStructure()
    deleted_vars: set[str] = set()
    deleted_rows: list[tuple[str, tuple]] = []
    candidates = [
        (relation, row)
        for relation in database.schema.names
        for row in sorted(database.rows(relation), key=repr)
    ]
    for relation, row in rng.sample(candidates, min(n_deletions, len(candidates))):
        name = engine.tuple_var(relation, row)
        if name is not None:
            deleted_vars.add(name)
            deleted_rows.append((relation, row))

    start = time.perf_counter()
    survivors: dict[str, set[tuple]] = {}
    # One assignment pass over the whole annotated database: shared
    # sub-expressions are evaluated once (memo persists across rows).  The
    # roots are held for the whole pass — provenance may yield transient
    # to_expr() results, whose ids a later row's nodes could reuse.
    memo: dict[int, bool] = {}
    held: list = []
    for relation in engine.executor.schema.names:
        bucket: set[tuple] = set()
        for row, expr, _live in engine.provenance(relation):
            held.append(expr)
            if _evaluate_boolean(expr, deleted_vars, memo):
                bucket.add(row)
        survivors[relation] = bucket
    usage_time = time.perf_counter() - start

    modified = database.copy()
    for relation, row in deleted_rows:
        modified.discard(relation, row)
    start = time.perf_counter()
    baseline = Engine(modified, policy="none").apply(applied_log).result()
    rerun_time = time.perf_counter() - start

    consistent = True
    if verify:
        consistent = all(
            survivors[relation] == set(baseline.rows(relation))
            for relation in baseline.schema.names
        )
    return UsageMeasurement(
        policy=engine.policy,
        queries=engine.stats.queries,
        deletions=len(deleted_rows),
        usage_time=usage_time,
        rerun_time=rerun_time,
        consistent=consistent,
    )
