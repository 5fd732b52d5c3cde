"""Contract test of the end-to-end benchmark (tier-1: thread-hosted, tiny sizes).

Checks what a later PR could silently break: the generator is a pure function
of ``(seed, connection)``, ``BENCHMARK.json`` is the metric tables and stays
within the driver's limits, every name in it is emitted by the runner, the
oracle passes on all four workloads (and can fail), and plain-backend
workloads report zero ``wal.*`` spans.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks.e2e import run as bench
from benchmarks.e2e.compare import compare_files
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, manifest
from benchmarks.e2e.oracle import OracleMismatch, check_states_identical
from benchmarks.e2e.workloads import SPECS, Spec, fingerprint

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def tiny(spec: Spec) -> Spec:
    return replace(spec, ids=12, groups=4, history=3, warmup=3, checkpoint_every=16)


def test_streams_are_a_pure_function_of_seed_and_connection():
    spec = SPECS["read_mostly"]
    assert fingerprint(spec, 5, 0, 40) == fingerprint(spec, 5, 0, 40)
    assert fingerprint(spec, 5, 0, 40) != fingerprint(spec, 6, 0, 40)
    assert fingerprint(spec, 5, 0, 40) != fingerprint(spec, 5, 1, 40)


def test_benchmark_json_is_the_metric_tables_and_within_limits():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == manifest()
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert 1 <= declared["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    metrics = declared["end_to_end"] + declared["per_layer"]
    assert all(UNIT.fullmatch(entry["unit"]) for entry in metrics)
    assert all(entry["better"] in ("lower", "higher") for entry in metrics)
    assert all(0 < entry["bound"] <= 0.25 for entry in declared["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in declared["end_to_end"]
    assert all(len(entry["why"]) <= 200 and "\n" not in entry["why"] for entry in declared["workloads"])


@pytest.mark.parametrize("name", list(SPECS))
def test_runner_emits_every_metric_and_the_oracle_passes(name, tmp_path):
    spec = tiny(SPECS[name])
    result = bench.measure_per_layer(spec, seed=3, seconds=0.4, workdir=tmp_path, hosted="thread")
    assert result.correct, result.notes
    assert result.failed == 0 and result.attempted > 0
    # Only a typo in a table or in the runner can produce a name nobody declared ...
    declared = {**END_TO_END, **PER_LAYER}
    assert not [metric for metric in result.values if metric not in declared]
    # ... and the result object carries every declared name (0 where a layer is not entered).
    assert set(result.result_object(list(PER_LAYER))["metrics"]) == set(PER_LAYER)
    assert result.values["trace.unresolved"] == 0, result.notes
    for metric in END_TO_END:
        assert result.values[metric] > 0, metric

    wal = {m: v for m, v in result.values.items() if m.startswith("wal.")}
    if spec.backend == "plain":
        assert not any(wal.values()), wal
    else:
        assert wal["wal.journal.append.calls_per_op"] > 0 and wal["wal.journal.bytes_per_op"] > 0
    if spec.backend == "journaled":
        assert wal["wal.recover_s"] > 0 and wal["wal.recovery.recover.calls_per_op"] > 0
    if spec.backend == "replicated":
        assert result.values["replication.fanout_p50_ms"] > 0
        assert result.values["replication.apply.calls_per_op"] > 0


def test_the_oracle_can_fail():
    from repro.core.expr import var

    reference = {"r": {(1, 0, 0): (var("p"), True)}}
    check_states_identical("same", {"r": {(1, 0, 0): (var("p"), True)}}, reference)
    with pytest.raises(OracleMismatch, match="liveness"):
        check_states_identical("dead", {"r": {(1, 0, 0): (var("p"), False)}}, reference)
    with pytest.raises(OracleMismatch, match="annotation"):
        check_states_identical("other", {"r": {(1, 0, 0): (var("q"), True)}}, reference)
    with pytest.raises(OracleMismatch, match="missing"):
        check_states_identical("empty", {"r": {}}, reference)


def _set_file(path: Path, apply_p50: list[float], failed: int = 0) -> Path:
    runs = [
        {
            "workload": "write_stream", "seed": seed, "trace": 0, "correct": True,
            "attempted": 100, "failed": failed,
            "metrics": {"apply_p50_ms": {"value": value, "unit": "ms"}},
        }
        for seed, value in enumerate(apply_p50)
    ]
    path.write_text(json.dumps({"index": {}, "runs": runs, "claim": None}))
    return path


def test_compare_applies_direction_bound_and_spread(tmp_path, capsys):
    steady = _set_file(tmp_path / "a.json", [10.0, 10.1, 9.9, 10.0])
    assert compare_files(steady, _set_file(tmp_path / "b.json", [10.3, 10.2, 10.4, 10.3])) == 0
    assert "no regression" in capsys.readouterr().out
    assert compare_files(steady, _set_file(tmp_path / "c.json", [13.0, 13.1, 12.9, 13.0])) == 1
    assert "REGRESSION" in capsys.readouterr().out
    # A spread wider than the bound cannot resolve anything, whatever the medians say.
    assert compare_files(steady, _set_file(tmp_path / "d.json", [8.0, 13.0, 9.0, 14.0])) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare_files(steady, _set_file(tmp_path / "e.json", [10.0, 10.1, 9.9, 10.0], failed=1)) == 1
