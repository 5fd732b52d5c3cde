"""Tier-1 latency SLO floors on the tiny loadgen profile.

The latency counterpart of the measured axes' counted gates
(``test_axes.py``): a tiny in-process loadgen run must complete error-free and
keep generous per-op quantile ceilings, and its ``BENCH_loadgen_*``
trajectory must be well-formed.  The ceilings (2s p99 / 5s max against
locally observed single-digit milliseconds) are scheduler-hiccup-proof;
a breach means something structural regressed in the serve path.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.reporting import BENCH_SCHEMA_VERSION
from repro.db.database import Database
from repro.loadgen import (
    check_slos,
    loadgen_schema,
    parse_slos,
    profile_from_name,
    run_loadgen,
    write_result,
)
from repro.server.server import serve_in_thread
from repro.server.service import ServerConfig

#: Generous ceilings — see the module docstring.
FLOORS = [
    "apply:p99<2",
    "state:p99<2",
    "provenance:p99<2",
    "annotation_of:p99<2",
    "apply:max<5",
]


@pytest.fixture(scope="module")
def tiny_result():
    profile = profile_from_name("tiny")
    database = Database(loadgen_schema(profile))
    handle = serve_in_thread(database, ServerConfig(port=0, policy="normal_form_batch"))
    try:
        yield run_loadgen(profile, host=handle.host, port=handle.port, mode="thread")
    finally:
        handle.stop()


def test_tiny_profile_measures_every_op_kind_error_free(tiny_result):
    assert tiny_result.errors_total == 0
    assert tiny_result.ops_total == 2 * 60  # tiny: 2 workers x 60 ops
    for kind in ("apply", "state", "provenance", "annotation_of"):
        assert tiny_result.hists[kind].count > 0, kind


def test_tiny_profile_holds_the_latency_floors(tiny_result):
    violations = check_slos(tiny_result, parse_slos(FLOORS))
    assert violations == [], violations


def test_trajectory_file_is_well_formed(tiny_result, tmp_path):
    path = write_result(tiny_result, tmp_path)
    assert path.name == "BENCH_loadgen_tiny.json"
    envelope = json.loads(path.read_text())
    assert envelope["schema_version"] == BENCH_SCHEMA_VERSION
    assert envelope["kind"] == "loadgen"
    assert envelope["name"] == "tiny"
    assert envelope["git_rev"]
    payload = envelope["payload"]
    assert payload["config"] == tiny_result.profile.as_dict()
    assert payload["ops_total"] == tiny_result.ops_total
    assert payload["errors_total"] == 0
    for kind, block in payload["ops"].items():
        summary = block["summary"]
        assert summary["count"] > 0
        assert 0 <= summary["p50"] <= summary["p90"] <= summary["p99"]
        assert summary["max"] >= 0
        assert block["histogram"]["count"] == summary["count"]
    # The whole envelope must be JSON round-trippable (it just was) and
    # the CSV export must cover the same op kinds.
    csv_text = tiny_result.to_csv()
    for kind in payload["ops"]:
        assert kind in csv_text
