"""End-to-end loadgen runs against an in-process server.

The centerpiece is the bit-identity check: after a mixed loadgen run,
the server's final state must be bit-identical — same rows, same
liveness, the *same interned annotation object* per row — to replaying
the generated operation streams through a direct in-process
:class:`~repro.engine.engine.Engine`.  Worker relations are disjoint, so
this holds whatever interleaving and admission fusion the server applied;
pacing and pipelining shape only *when* operations ship.
"""

from __future__ import annotations

import pytest

from repro.db.database import Database
from repro.engine.engine import Engine
from repro.engine.oracle import assert_bit_identical
from repro.errors import ServerError
from repro.loadgen import (
    LoadgenProfile,
    MixSpec,
    loadgen_schema,
    run_loadgen,
    worker_ops,
    worker_prelude,
)
from repro.server.client import ServerClient
from repro.server.server import serve_in_thread
from repro.server.service import ServerConfig

PROFILE = LoadgenProfile(
    name="e2e",
    workers=2,
    ops_per_worker=60,
    rows_per_worker=12,
    n_groups=4,
    seed=2026,
    pipeline=4,
)


def _run_and_capture(profile, **run_kwargs):
    """One thread-mode loadgen run; returns (result, final server state)."""
    database = Database(loadgen_schema(profile))
    handle = serve_in_thread(database, ServerConfig(port=0, policy="normal_form_batch"))
    try:
        result = run_loadgen(
            profile, host=handle.host, port=handle.port, mode="thread", **run_kwargs
        )
        with ServerClient(handle.host, handle.port) as client:
            final = client.state()
    finally:
        handle.stop()
    return result, final


def _replay_direct(profile) -> dict:
    """The generated streams through a direct engine (the ground truth)."""
    direct = Engine(Database(loadgen_schema(profile)), policy="normal_form_batch")
    for worker in range(profile.workers):
        direct.apply(worker_prelude(profile, worker))
        for op in worker_ops(profile, worker):
            if op.kind == "apply":
                direct.apply(op.item)
    return direct.capture()


def test_mixed_run_leaves_state_bit_identical_to_direct_replay():
    result, final = _run_and_capture(PROFILE)
    assert_bit_identical(final, _replay_direct(PROFILE))
    assert result.errors_total == 0
    assert result.ops_total == PROFILE.workers * PROFILE.ops_per_worker


def test_pipelining_and_pacing_do_not_change_the_final_state():
    from dataclasses import replace

    shaped = replace(PROFILE, pipeline=1, max_rate=100_000.0)
    _, final = _run_and_capture(shaped)
    # Same ground truth as the default-shaped profile: transport knobs
    # shape delivery, never content.
    assert_bit_identical(final, _replay_direct(PROFILE))


def test_result_accounts_for_every_operation():
    result, _final = _run_and_capture(PROFILE)
    assert sum(h.count for h in result.hists.values()) == result.ops_total
    assert set(result.hists) <= {"apply", "state", "provenance", "annotation_of"}
    assert result.hists["apply"].count > 0
    assert result.elapsed > 0
    assert result.achieved_rate > 0
    assert len(result.worker_reports) == PROFILE.workers
    assert sum(r["ops"] for r in result.worker_reports) == result.ops_total


def test_progress_lines_stream_during_the_run():
    lines: list[str] = []
    profile = LoadgenProfile(
        name="e2e-progress", workers=2, ops_per_worker=80, rows_per_worker=10, seed=3
    )
    _run_and_capture(profile, progress=lines.append, report_every=0.0)
    assert lines, "expected at least the final merged stats line"
    assert all(line.startswith("loadgen t=") for line in lines)
    assert "ops=" in lines[-1] and "p99=" in lines[-1]


def test_apply_only_profile_matches_replay_too():
    profile = LoadgenProfile(
        name="e2e-apply",
        workers=2,
        ops_per_worker=50,
        rows_per_worker=10,
        seed=11,
        mix=MixSpec(apply=1, state=0, provenance=0, annotation_of=0),
    )
    result, final = _run_and_capture(profile)
    assert_bit_identical(final, _replay_direct(profile))
    assert result.hists.keys() == {"apply"}


def test_unknown_mode_is_rejected():
    with pytest.raises(ServerError, match="unknown loadgen mode"):
        run_loadgen(PROFILE, mode="fibers")
