"""``run.py compare A.json B.json``: is B worse than A beyond the benchmark's bounds?

One row per (end-to-end metric, workload): each side's median over its runs,
the run-to-run spread (interquartile range as a share of the median), and a
verdict.  A row whose recorded spread exceeds the metric's bound — or that has
too few runs to record one — is **unresolved**, never "unchanged": the data
cannot tell.  Per-layer metrics are listed for reading, without a verdict.
Exit status 1 on any regression, any incorrect run in B, or a higher
failed/attempted share in B.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from .metrics import END_TO_END, PER_LAYER
from .workloads import SPECS

__all__ = ["compare_files", "spread", "summarise"]


def spread(values: list[float]) -> float | None:
    """Interquartile range as a share of the median; ``None`` if unrecordable."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else None


def summarise(runs: list[dict], workload: str, trace: int) -> dict[str, list[float]]:
    """metric -> the values the workload's runs recorded in one mode."""
    series: dict[str, list[float]] = {}
    for run in runs:
        if run["workload"] == workload and run["trace"] == trace:
            for name, metric in run["metrics"].items():
                series.setdefault(name, []).append(metric["value"])
    return series


def _failed_share(runs: list[dict], workload: str) -> float:
    mine = [run for run in runs if run["workload"] == workload]
    return sum(run["failed"] for run in mine) / max(1, sum(run["attempted"] for run in mine))


def compare_files(path_a: Path, path_b: Path) -> int:
    runs_a = json.loads(path_a.read_text())["runs"]
    runs_b = json.loads(path_b.read_text())["runs"]
    failures = 0
    print(f"{'workload':<15} {'metric':<14} {'A median':>12} {'B median':>12} "
          f"{'worse by':>9} {'bound':>6} {'spread A':>9} {'spread B':>9}  verdict")
    for workload in SPECS:
        series_a, series_b = summarise(runs_a, workload, 0), summarise(runs_b, workload, 0)
        for name, (_unit, better, bound) in END_TO_END.items():
            if name not in series_a or name not in series_b:
                continue
            median_a = statistics.median(series_a[name])
            median_b = statistics.median(series_b[name])
            delta = (median_b - median_a) / abs(median_a) if median_a else 0.0
            worse_by = delta if better == "lower" else -delta
            spreads = [spread(series_a[name]), spread(series_b[name])]
            if any(s is None or s > bound for s in spreads):
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "REGRESSION"
                failures += 1
            else:
                verdict = "no regression"
            shown = ["    n/a" if s is None else f"{s:>9.3f}" for s in spreads]
            print(f"{workload:<15} {name:<14} {median_a:>12.4f} {median_b:>12.4f} "
                  f"{worse_by:>+9.3f} {bound:>6.2f} {shown[0]:>9} {shown[1]:>9}  {verdict}")
        share_a, share_b = _failed_share(runs_a, workload), _failed_share(runs_b, workload)
        incorrect = [r for r in runs_b if r["workload"] == workload and not r["correct"]]
        if share_b > share_a or incorrect:
            failures += 1
            print(f"{workload:<15} failed/attempted {share_a:.4f} -> {share_b:.4f}, "
                  f"{len(incorrect)} incorrect runs in B  FAILED")
    print()
    print(f"{'workload':<15} {'per-layer metric (no verdict)':<42} {'A':>14} {'B':>14}")
    for workload in SPECS:
        series_a, series_b = summarise(runs_a, workload, 1), summarise(runs_b, workload, 1)
        for name in PER_LAYER:
            if name in series_a and name in series_b:
                print(f"{workload:<15} {name:<42} {statistics.median(series_a[name]):>14.4f} "
                      f"{statistics.median(series_b[name]):>14.4f}")
    return 1 if failures else 0
