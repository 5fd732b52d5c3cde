"""Every measured axis of the figure registry, at ``tiny`` scale.

One parametrised check holds what the per-layer acceptance tests used to
hold separately: the two configurations end bit-identical, the *counted*
gate (``FLOOR x claimed work <= baseline work``) passes, and the row is
a well-formed registry result.  No assertion here compares two
wall-clock times — the ratio is a reported column — so nothing needs a
retry on a loaded core.  ``SHAPE`` carries each axis's remaining
scenario-shape assertions (a genuine tail was replayed, fusion really
happened, reads really went to followers, ...).

Where the assertions of the deleted ``test_comparisons.py`` (and the
first test of ``test_memory.py``) now live:

* every ``comparison.consistent`` -> ``row["consistent"]`` here (the same
  ``engine.oracle.bit_identical`` calls, inside the axis);
* every ``comparison.speedup >= floor`` behind ``retrying()`` -> the
  counted ``row["gate"]``: cache 2.0x -> nodes rewritten; index 1.5x, per
  policy ``normal_form``/``naive``/``none`` -> rows examined, one row per
  policy; recovery 2.0x -> journal records replayed; server 1.5x ->
  writer cycles; view 2.0x -> rows decoded; replication (already
  counted: captures per read) -> captures under one write stream;
  memory -> intern table nodes at rest, with
  interned == reachable-from-the-resident-engine + 1 inside
  ``consistent``;
* ``hits > 0``, ``index_hits > 0``, ``checkpoints >= 2``,
  ``tail_records > 0``, ``batched_max_admitted > 1``,
  ``batched_cycles < percall_cycles`` (now the server gate itself),
  ``push_batches == updates``, ``affected < watched < rows``,
  ``follower_reads > 0``, ``followers == 3``, ``primary_captures > 0``,
  ``peak_rss_bytes > 0``, JSON-serialisable ->
  ``SHAPE`` and the row checks below;
* the two ``batch_comparison`` tests (batched == sequential live rows for
  ``normal_form``/``normal_form_batch``/``none``, ``batches >= 1``) ->
  ``tests/engine/test_batch.py::test_batched_matches_sequential_result``
  (all four policies, stronger: bit-identical provenance) and
  ``::test_batch_stats_counters``; their 0.8x wall-clock floor is dropped
  with the axis — batching makes no speed claim since the indexed store.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.bench.axes import AXES, FLOOR
from repro.bench.figures import ALL_FIGURES
from repro.bench.scales import SCALES

from ..conftest import subprocess_env

SHARED_COLUMNS = [
    "baseline work",
    "claimed work",
    "work ratio",
    "baseline [s]",
    "claimed [s]",
    "wall ratio",
    "consistent",
    "gate",
]

#: axis -> predicate every one of its rows must satisfy beyond the gate.
SHAPE = {
    "cache": lambda row: row["hits"] > 0 and row["claimed work"] > 0,
    "index": lambda row: row["index hits"] > 0,
    "server": lambda row: row["max admitted"] > 1,
    "view": lambda row: row["push batches"] == row["updates"]
    and row["affected"] < row["watched"] < row["rows"],
    "recovery": lambda row: row["checkpoints"] >= 2 and row["claimed work"] > 0,
    "replication": lambda row: row["follower reads"] > 0
    and row["followers"] == 3
    and row["baseline work"] > 0,
    "memory": lambda row: row["reachable nodes"] > 1
    and row["freed nodes"] > 0
    and row["peak rss"] > 0,
}


def test_every_axis_is_registered_and_has_a_shape_check():
    assert set(AXES) == set(SHAPE)
    assert all(ALL_FIGURES[name] is AXES[name] for name in AXES)


@pytest.mark.parametrize("name", list(AXES))
def test_axis_holds_its_counted_gate(name):
    (result,) = ALL_FIGURES[name](SCALES["tiny"])
    assert result.figure == name
    assert list(result.columns)[-len(SHARED_COLUMNS):] == SHARED_COLUMNS
    assert result.rows
    gated = 0
    for row in result.rows:
        assert list(row) == list(result.columns)
        assert row["consistent"], row
        assert row["gate"], row
        if row["claimed work"] is not None:
            gated += 1
            assert FLOOR * row["claimed work"] <= row["baseline work"], row
        assert row["baseline [s]"] > 0 and row["claimed [s]"] > 0, row
        assert SHAPE[name](row), row
    assert gated >= 1  # at least one row of every axis gates on a counter
    document = json.loads(result.to_json())
    assert document["figure"] == name and len(document["rows"]) == len(result.rows)
    json.dumps(result.rows)


def test_serving_path_imports_no_measurement_code():
    """The served/benchmarked entry points must not load ``repro.bench.measure``."""
    script = (
        "import sys\n"
        "import repro.cli, repro.server.server, repro.replication.node, repro.loadgen\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.bench'))\n"
        "assert 'repro.bench.measure' not in loaded, loaded\n"
        "assert 'repro.bench.axes' not in loaded, loaded\n"
        "print('ok')\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"
