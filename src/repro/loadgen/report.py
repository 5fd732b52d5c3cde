"""Loadgen results: stats lines, SLO floors, CSV, and ``BENCH_*.json``.

A :class:`LoadgenResult` is the merged view of one run — per-op-kind
latency histograms, error counts, and the achieved aggregate rate.  It
renders three ways: human stats lines / a summary table, a CSV export
(one row per op kind), and a schema-versioned ``BENCH_loadgen_<profile>``
trajectory written through the shared bench writer
(:func:`repro.bench.reporting.write_bench_json`), so every run leaves a
machine-readable latency record future PRs are measured against.

An :class:`SLO` is a latency floor in the operable sense: ``apply:p99<0.05``
reads "the 99th-percentile apply latency must stay under 50ms".
:func:`check_slos` returns human-readable violations; the CLI turns any
into a non-zero exit, and ``tests/bench`` asserts a tiny profile's floors
in tier-1 — latency is gated, not only reported.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..errors import ReproError
from .histogram import LatencyHistogram
from .workload import LoadgenProfile

__all__ = [
    "SCHEMA_VERSION",
    "SLO",
    "LoadgenResult",
    "check_slos",
    "format_stats_line",
    "parse_slos",
    "write_result",
]

#: Version of the ``BENCH_loadgen_*.json`` payload layout.
SCHEMA_VERSION = 1

#: CSV column order of :meth:`LoadgenResult.to_csv`.
_CSV_COLUMNS = ("op", "count", "errors", "p50", "p90", "p99", "max", "mean")


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.1f}ms" if seconds < 10 else f"{seconds:.1f}s"


def format_stats_line(
    elapsed: float,
    ops: int,
    rate: float,
    hists: Mapping[str, LatencyHistogram],
    errors: int,
) -> str:
    """One periodic progress line: totals plus p50/p99 per op kind."""
    parts = [f"t={elapsed:6.1f}s", f"ops={ops}", f"rate={rate:.0f}/s", f"errors={errors}"]
    for kind in sorted(hists):
        summary = hists[kind].summary()
        parts.append(f"{kind} p50={_ms(summary['p50'])} p99={_ms(summary['p99'])}")
    return "loadgen " + " ".join(parts)


@dataclass
class LoadgenResult:
    """The merged outcome of one loadgen run."""

    profile: LoadgenProfile
    ops_total: int
    elapsed: float  #: the slowest worker's timed-section wall time
    achieved_rate: float  #: aggregate ops/sec actually sustained
    hists: dict[str, LatencyHistogram]
    errors: dict[str, int]
    worker_reports: list[dict] = field(default_factory=list)
    #: Periodic server-side memory observations (the driver's ``stats``
    #: polls): ``{"t", "rss_bytes", "intern_table_size", ...}`` per sample.
    memory_samples: list[dict] = field(default_factory=list)

    @property
    def errors_total(self) -> int:
        return sum(self.errors.values())

    def op_summaries(self) -> dict[str, dict[str, float | int]]:
        """``{op kind: {count, p50, p90, p99, max, mean, errors}}``."""
        return {
            kind: {**hist.summary(), "errors": self.errors.get(kind, 0)}
            for kind, hist in sorted(self.hists.items())
        }

    # -- rendering -------------------------------------------------------------

    def format_summary(self) -> str:
        """The end-of-run table the CLI prints."""
        lines = [
            f"profile {self.profile.name}: {self.ops_total} ops over "
            f"{self.profile.workers} workers in {self.elapsed:.2f}s "
            f"({self.achieved_rate:.0f} ops/s, {self.errors_total} errors)"
        ]
        header = f"  {'op':<14} {'count':>7} {'errors':>6} {'p50':>9} {'p90':>9} {'p99':>9} {'max':>9}"
        lines.append(header)
        for kind, summary in self.op_summaries().items():
            lines.append(
                f"  {kind:<14} {summary['count']:>7} {summary['errors']:>6} "
                f"{_ms(summary['p50']):>9} {_ms(summary['p90']):>9} "
                f"{_ms(summary['p99']):>9} {_ms(summary['max']):>9}"
            )
        return "\n".join(lines)

    def to_csv(self) -> str:
        """One CSV row per op kind (seconds, full float precision)."""
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=list(_CSV_COLUMNS))
        writer.writeheader()
        for kind, summary in self.op_summaries().items():
            writer.writerow({"op": kind, **{c: summary[c] for c in _CSV_COLUMNS[1:]}})
        return out.getvalue()

    # -- persistence -----------------------------------------------------------

    def as_payload(self) -> dict[str, object]:
        """The ``BENCH_loadgen_*`` body (the shared writer adds the envelope)."""
        return {
            "profile": self.profile.name,
            "config": self.profile.as_dict(),
            "workers": self.profile.workers,
            "ops_total": self.ops_total,
            "elapsed": self.elapsed,
            "achieved_rate": self.achieved_rate,
            "errors": dict(self.errors),
            "errors_total": self.errors_total,
            "ops": {
                kind: {
                    "summary": {**hist.summary(), "errors": self.errors.get(kind, 0)},
                    "histogram": hist.to_dict(),
                }
                for kind, hist in sorted(self.hists.items())
            },
            "per_worker": list(self.worker_reports),
            "memory": {
                "samples": list(self.memory_samples),
                "final": self.memory_samples[-1] if self.memory_samples else None,
            },
        }


def write_result(result: LoadgenResult, directory: str | Path = ".") -> Path:
    """Persist one run as ``BENCH_loadgen_<profile>.json`` under ``directory``."""
    from ..bench.reporting import write_bench_json

    return write_bench_json(
        "loadgen", result.profile.name, result.as_payload(), directory
    )


# ---------------------------------------------------------------------------
# SLO floors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SLO:
    """One latency floor: the ``quantile`` of ``op`` must stay under ``limit``.

    ``quantile`` is a fraction (0.99 for p99); 1.0 reads the exact
    maximum.  ``limit`` is in seconds.
    """

    op: str
    quantile: float
    limit: float

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile <= 1.0:
            raise ReproError(f"SLO quantile must be in (0, 1], got {self.quantile}")
        if self.limit <= 0:
            raise ReproError(f"SLO limit must be positive, got {self.limit}")

    @property
    def label(self) -> str:
        quantile = "max" if self.quantile == 1.0 else f"p{self.quantile * 100:g}"
        return f"{self.op}:{quantile}<{self.limit:g}"

    @classmethod
    def parse(cls, text: str) -> "SLO":
        """``"apply:p99<0.05"`` / ``"state:max<1"`` — seconds on the right."""
        head, sep, limit_text = text.partition("<")
        op, colon, quantile_text = head.strip().partition(":")
        if not sep or not colon:
            raise ReproError(f"bad SLO {text!r} (want OP:pNN<SECONDS or OP:max<SECONDS)")
        quantile_text = quantile_text.strip().lower()
        if quantile_text == "max":
            quantile = 1.0
        elif quantile_text.startswith("p"):
            try:
                quantile = float(quantile_text[1:]) / 100.0
            except ValueError as exc:
                raise ReproError(f"bad SLO quantile in {text!r}") from exc
        else:
            raise ReproError(f"bad SLO quantile in {text!r} (want pNN or max)")
        try:
            limit = float(limit_text)
        except ValueError as exc:
            raise ReproError(f"bad SLO limit in {text!r}") from exc
        return cls(op.strip(), quantile, limit)


def check_slos(result: LoadgenResult, slos: Iterable[SLO]) -> list[str]:
    """Human-readable violations (empty = all floors hold).

    An SLO naming an op kind the run never executed is itself a
    violation — a floor that silently never measures anything would make
    the gate advisory.
    """
    violations: list[str] = []
    for slo in slos:
        hist = result.hists.get(slo.op)
        if hist is None or hist.count == 0:
            violations.append(f"{slo.label}: no {slo.op!r} operations were measured")
            continue
        observed = hist.quantile(slo.quantile)
        if observed >= slo.limit:
            violations.append(
                f"{slo.label}: observed {observed * 1000:.2f}ms >= "
                f"limit {slo.limit * 1000:.2f}ms over {hist.count} ops"
            )
    return violations


def parse_slos(specs: Sequence[str]) -> list[SLO]:
    """Parse repeated ``--slo`` CLI specs."""
    return [SLO.parse(spec) for spec in specs]
