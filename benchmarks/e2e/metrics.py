"""Metric tables: names, units, directions, bounds and predicted interactions.

This module is the single source of truth; ``BENCHMARK.json`` is
:func:`manifest` written to disk (the contract test asserts they agree).  The
contract fixes ``BENCHMARK.json``'s keys, so each per-layer metric's *moves*
— which end-to-end metric it should move, on which workload, written down
before anything was measured — lives here and in ``README.md``.
"""

from __future__ import annotations

from .tracing import SPAN_LAYERS
from .workloads import SPECS

__all__ = ["END_TO_END", "PER_LAYER", "RUN_SECONDS", "manifest"]

#: How long one run measures (``--seconds``).  92 driver runs of 4 workloads
#: must fit 3420 s including set-up, recovery and the oracle replay.
RUN_SECONDS = 20

#: name -> (unit, better, bound).  Every workload reports every one.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "apply_p50_ms": ("ms", "lower", 0.25),
    "read_p50_ms": ("ms", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

_FLUSH = "apply_p50_ms, ops_per_s on write_stream and long_txn; nothing on read_mostly reads"
_MATCH = "apply_p50_ms on long_txn only"
_WAL = "client.apply_p95_ms on write_stream (stalls live in the tail) and wal.recover_s; zero on plain backends"
_WRITE_WIRE = "apply_p50_ms, ops_per_s on write_stream; not long_txn"
_READ_WIRE = "read_p50_ms on read_mostly; not long_txn apply"
_CAPTURE = "read_p50_ms on read_mostly, not replica_fanout (coalesced)"
_FANOUT = "replication.fanout_p50_ms, replication.fanout_p95_ms on replica_fanout"
_MEMORY = "peak_rss_mb"
_GENERATOR = "none: shows whether the generator kept its schedule"
_DIAGNOSTIC = "none: client-side diagnostic, not gated"
_TAIL = "none: tail latency, demoted from the gated list (run-to-run spread on this box exceeds any bound)"

#: Counters and client-side diagnostics, read from outside the server as
#: ``stats``-op deltas over the timed window of an untraced run.
#: name -> (unit, better, moves).
_COUNTERS: dict[str, tuple[str, str, str]] = {
    "engine.queries": ("count", "higher", "none: work done in the window"),
    "engine.rows_matched_per_op": ("count", "lower", _MATCH),
    "engine.rows_created_per_op": ("count", "lower", _FLUSH),
    "engine.exec_ms_per_op": ("ms", "lower", "apply_p50_ms on long_txn"),
    "engine.checkpoint_s": ("s", "lower", _WAL),
    "store.index_hits": ("count", "higher", _MATCH),
    "store.fallback_scans": ("count", "lower", _MATCH),
    "store.rows_examined_per_match": ("count", "lower", _MATCH),
    "store.support_rows_end": ("count", "lower", _FLUSH),
    "store.live_rows_end": ("count", "lower", "none: a stated input"),
    "service.writer_cycles": ("count", "lower", _WRITE_WIRE),
    "service.fusion_factor": ("ratio", "higher", _WRITE_WIRE),
    "service.captures": ("count", "lower", _CAPTURE),
    "service.captures_per_read": ("ratio", "lower", _CAPTURE),
    "memory.rss_end_mb": ("MB", "lower", _MEMORY),
    "memory.intern_nodes_end": ("count", "lower", _MEMORY),
    "memory.follower_rss_end_mb": ("MB", "lower", _MEMORY + " on replica_fanout"),
    "wal.dir_bytes_end": ("bytes", "lower", _WAL),
    "wal.recover_s": ("s", "lower", "itself: SIGKILL after the last ack until the restarted server answers ping"),
    "replication.fanout_p50_ms": ("ms", "lower", "itself: write due-time until the follower subscriber sees it"),
    "replication.fanout_p95_ms": ("ms", "lower", "itself"),
    "replication.lag_records_p50": ("count", "lower", _FANOUT),
    "replication.applied_seq": ("count", "higher", "none: work shipped"),
    "replication.frames_received": ("count", "higher", "none: work shipped"),
    "loadgen.late_p95_ms": ("ms", "lower", _GENERATOR),
    "loadgen.backlog_end_ops": ("count", "lower", _GENERATOR),
    "loadgen.achieved_rate_frac": ("ratio", "higher", _GENERATOR),
    "client.apply_p95_ms": ("ms", "lower", _TAIL),
    "client.apply_p99_ms": ("ms", "lower", _TAIL),
    "client.read_p95_ms": ("ms", "lower", _TAIL),
    "client.read_p99_ms": ("ms", "lower", _TAIL),
    "client.state_p50_ms": ("ms", "lower", _DIAGNOSTIC),
    "client.annotation_of_p50_ms": ("ms", "lower", _DIAGNOSTIC),
}

_SPAN_MOVES = {
    "server.client.encode": _WRITE_WIRE,
    "server.client.decode": _READ_WIRE,
    "server.protocol.encode": _READ_WIRE,
    "server.protocol.decode": _WRITE_WIRE,
    "workloads.logs.encode": _WRITE_WIRE,
    "workloads.logs.decode": _WRITE_WIRE,
    "storage.exprjson.encode": _READ_WIRE,
    "storage.exprjson.decode": _READ_WIRE,
    "server.service.apply": "apply_p50_ms on every workload (contains engine.*)",
    "server.service.capture": _CAPTURE,
    "wal.journal.append": _WAL,
    "wal.checkpoint.write": _WAL,
    "wal.recovery.recover": "wal.recover_s on write_stream",
    "engine.apply_batch": _FLUSH,
    "engine.flush": _FLUSH,
    "store.matching": _MATCH,
    "views.delta.encode": _FANOUT,
    "views.registry.apply": _FANOUT,
    "replication.hub.ship": _FANOUT + "; apply_p50_ms on replica_fanout minus write_stream",
    "replication.apply": _FANOUT,
}

#: Spans of the traced run, per completed client operation.
_SPANS: dict[str, tuple[str, str, str]] = {}
for _layer in SPAN_LAYERS:
    _SPANS[f"{_layer}.calls_per_op"] = ("count", "lower", _SPAN_MOVES[_layer])
    _SPANS[f"{_layer}.cpu_ms_per_op"] = ("ms", "lower", _SPAN_MOVES[_layer])
_SPANS.update(
    {
        "core.normalize.calls_per_op": ("count", "lower", _FLUSH),
        "server.service.wait_ms_per_op": ("ms", "lower", "apply_p50_ms of burst workloads (queueing behind the writer)"),
        "wal.journal.bytes_per_op": ("bytes", "lower", _WAL),
        "trace.unattributed_frac": ("ratio", "lower", "none: CPU the span table does not cover"),
        "trace.overhead_frac": ("ratio", "lower", "none: what tracing itself costs"),
        "trace.unresolved": ("count", "lower", "none: span targets a refactor removed"),
    }
)

PER_LAYER: dict[str, tuple[str, str, str]] = {**_COUNTERS, **_SPANS}


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": spec.name, "why": spec.why} for spec in SPECS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _moves) in PER_LAYER.items()
        ],
    }
