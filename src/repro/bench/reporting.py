"""Formatting and persistence of figure results.

A :class:`FigureResult` is a named table of measurement rows plus the
paper's expected shape; ``format_table`` renders it the way the paper's
series read ("rows/series the paper reports"), and ``to_json``/``to_csv``
persist raw numbers for EXPERIMENTS.md bookkeeping.  ``write_bench_json``
is the shared ``BENCH_*.json`` trajectory envelope (the loadgen's result
files); it lives here so that writing one imports no measurement code.
"""

from __future__ import annotations

import csv
import io
import json
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from ..core.expr import intern_table_size
from ..memory import current_rss_bytes, peak_rss_bytes

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "FigureResult",
    "format_value",
    "git_revision",
    "write_bench_json",
]

#: Version of the envelope every ``BENCH_*.json`` file carries.  The body
#: under ``"payload"`` is owned by the producing subsystem (which may
#: version it separately, e.g. ``repro.loadgen.report.SCHEMA_VERSION``).
BENCH_SCHEMA_VERSION = 1


def git_revision() -> str:
    """The working tree's commit hash, or ``"unknown"`` outside a checkout.

    Stamped into every trajectory file so a ``BENCH_*.json`` regression
    can be attributed to the exact code that produced it.
    """
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    revision = completed.stdout.strip()
    return revision if completed.returncode == 0 and revision else "unknown"


def write_bench_json(
    kind: str, name: str, payload: Mapping[str, object], directory: str | Path = "."
) -> Path:
    """Write one ``BENCH_<kind>_<name>.json`` trajectory file.

    The envelope (schema version, kind/name, git revision, wall-clock
    timestamp) is uniform across producers so downstream tooling can
    index every trajectory the same way; ``payload`` is the producer's
    body.  Returns the written path.
    """
    safe = "".join(c if c.isalnum() or c in "-_." else "-" for c in name) or "run"
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{kind}_{safe}.json"
    document = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": kind,
        "name": name,
        "git_rev": git_revision(),
        "written_at": time.time(),
        # Memory footprint of the producing process at write time — an
        # additive envelope field (schema version unchanged) so every
        # trajectory carries the memory axis alongside its latency axis.
        "memory": {
            "rss_bytes": current_rss_bytes(),
            "peak_rss_bytes": peak_rss_bytes(),
            "intern_table_size": intern_table_size(),
        },
        "payload": dict(payload),
    }
    path.write_text(json.dumps(document, indent=2, default=str) + "\n")
    return path


def format_value(value: object) -> str:
    """Human formatting: seconds to 4 digits, big ints with separators."""
    if value is None:  # a column this row does not measure
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000 or (value != 0 and abs(value) < 0.0001):
            return f"{value:.3e}"
        return f"{value:.4f}".rstrip("0").rstrip(".") or "0"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


@dataclass
class FigureResult:
    """One reproduced table/figure: rows, column order, expectations."""

    figure: str
    title: str
    columns: Sequence[str]
    rows: list[Mapping[str, object]] = field(default_factory=list)
    #: the paper's qualitative expectation, quoted in the printed output.
    expectation: str = ""
    #: free-form observations filled by the driver (e.g. measured ratios).
    notes: list[str] = field(default_factory=list)

    def add(self, **row: object) -> None:
        self.rows.append(row)

    def note(self, text: str) -> None:
        self.notes.append(text)

    # -- rendering -------------------------------------------------------------

    def format_table(self) -> str:
        header = [str(c) for c in self.columns]
        body = [[format_value(row.get(c, "")) for c in self.columns] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [
            f"== {self.figure}: {self.title} ==",
        ]
        if self.expectation:
            lines.append(f"paper expectation: {self.expectation}")
        lines.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append(sep)
        lines.extend(
            " | ".join(cell.ljust(w) for cell, w in zip(line, widths)) for line in body
        )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def print(self) -> None:  # noqa: A003 - deliberate, mirrors pandas
        print(self.format_table())
        print()

    # -- persistence --------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "figure": self.figure,
                "title": self.title,
                "expectation": self.expectation,
                "columns": list(self.columns),
                "rows": [dict(r) for r in self.rows],
                "notes": list(self.notes),
            },
            indent=2,
            default=str,
        )

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=list(self.columns), extrasaction="ignore")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({c: row.get(c, "") for c in self.columns})
        return out.getvalue()

    def save(self, directory: str | Path) -> Path:
        """Write ``<figure>.json`` (and ``.csv``) under ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        json_path = directory / f"{self.figure}.json"
        json_path.write_text(self.to_json())
        (directory / f"{self.figure}.csv").write_text(self.to_csv())
        return json_path
