"""Recover a whole sharded deployment from its durable directory.

A durable :class:`~repro.shard.engine.ShardedEngine` leaves behind::

    <dir>/shards.json    topology manifest (shard count, key positions,
                         schema, policy, sync, checkpoint threshold)
    <dir>/shard-00/      a standard JournaledEngine directory
    <dir>/shard-01/      (checkpoint.sqlite + journal.log) per shard
    ...

Shards journal independently — each holds exactly its own routed slice of
the update history, transaction boundaries included — so recovery is
embarrassingly per-shard: every directory goes through the ordinary
:func:`repro.wal.recovery.recover` (newest checkpoint + tail replay), and
the coordinator reassembles the :class:`ShardMap` from the manifest and
the initial-tuple variable names from the shard checkpoints.  There is no
cross-shard ordering to reconstruct because no update ever depended on
another shard's state: the merged recovered state is bit-identical to an
unsharded engine replaying the full history (asserted in
``tests/shard/test_sharded_recovery.py``).

A shard that crashed mid-checkpoint recovers from its previous checkpoint
plus a longer tail; other shards are unaffected — there is deliberately
no global checkpoint barrier to coordinate or to corrupt.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
import time

from ..db.schema import Relation, Schema
from ..errors import StorageError
from ..wal.recovery import recover
from .codec import decode_tuple_vars
from .engine import (
    MANIFEST_FILE,
    ShardedEngine,
    _LocalShards,
    _ProcessShards,
    shard_directory,
)
from .partition import ShardMap

__all__ = ["ShardedRecoveryReport", "is_sharded_directory", "recover_sharded"]


@dataclass
class ShardedRecoveryReport:
    """Per-shard recovery reports plus deployment-wide totals."""

    policy: str
    n_shards: int
    #: one :meth:`RecoveryReport.as_dict` per shard, in shard order.
    shards: list[dict]

    @property
    def tail_records(self) -> int:
        return sum(int(report["tail_records"]) for report in self.shards)

    @property
    def replayed_queries(self) -> int:
        return sum(int(report["replayed_queries"]) for report in self.shards)

    @property
    def replayed_transactions(self) -> int:
        return sum(int(report["replayed_transactions"]) for report in self.shards)

    @property
    def support_rows(self) -> int:
        return sum(int(report["support_rows"]) for report in self.shards)

    @property
    def live_rows(self) -> int:
        return sum(int(report["live_rows"]) for report in self.shards)

    def as_dict(self) -> dict[str, object]:
        return {
            "policy": self.policy,
            "n_shards": self.n_shards,
            "tail_records": self.tail_records,
            "replayed_queries": self.replayed_queries,
            "replayed_transactions": self.replayed_transactions,
            "support_rows": self.support_rows,
            "live_rows": self.live_rows,
            "shards": list(self.shards),
        }


def is_sharded_directory(directory: str | Path) -> bool:
    """True when ``directory`` holds a sharded-deployment manifest."""
    return (Path(directory) / MANIFEST_FILE).exists()


def read_manifest(directory: str | Path) -> dict:
    path = Path(directory) / MANIFEST_FILE
    if not path.exists():
        raise StorageError(
            f"no sharded manifest in {directory} (expected {MANIFEST_FILE}; "
            "an unsharded directory recovers through repro.wal.recover)"
        )
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StorageError(f"corrupt sharded manifest {path}: {exc}") from exc
    for key in ("policy", "n_shards", "key_positions", "schema"):
        if key not in manifest:
            raise StorageError(f"sharded manifest {path} misses {key!r}")
    return manifest


def recover_sharded(
    directory: str | Path,
    parallel: bool = False,
    sync: str | None = None,
    checkpoint_every: int | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> ShardedEngine:
    """Resume the sharded deployment persisted in ``directory``.

    Returns a live :class:`~repro.shard.engine.ShardedEngine` at the
    exact pre-crash merged state, every shard journal reopened, with a
    :class:`ShardedRecoveryReport` on its ``recovery`` attribute.
    ``sync`` / ``checkpoint_every`` default to the manifest's recorded
    settings; ``parallel`` picks the backend the resumed engine runs on
    (shards recover concurrently in their workers when true).
    """
    manifest = read_manifest(directory)
    schema = Schema(
        Relation(name, attrs) for name, attrs in manifest["schema"].items()
    )
    shard_map = ShardMap(
        schema,
        int(manifest["n_shards"]),
        {name: int(pos) for name, pos in manifest["key_positions"].items()},
    )
    policy = str(manifest["policy"])
    sync = str(manifest.get("sync", "flush")) if sync is None else sync
    if checkpoint_every is None:
        checkpoint_every = int(manifest.get("checkpoint_every", 1024))

    if parallel:
        backend = _ProcessShards(
            [
                {
                    "recover": {
                        "directory": str(shard_directory(directory, shard)),
                        "sync": sync,
                        "checkpoint_every": checkpoint_every,
                    },
                }
                for shard in range(shard_map.n_shards)
            ]
        )
        reports = [dict(report) for report in backend.recoveries]
        tuple_vars: dict[str, dict[tuple, str]] = {}
        for encoded in backend.tuple_vars:
            for relation, names in decode_tuple_vars(encoded).items():
                tuple_vars.setdefault(relation, {}).update(names)
    else:
        engines = [
            recover(
                shard_directory(directory, shard),
                sync=sync,
                checkpoint_every=checkpoint_every,
                clock=clock,
            )
            for shard in range(shard_map.n_shards)
        ]
        backend = _LocalShards(engines)
        reports = [engine.recovery.as_dict() for engine in engines]
        tuple_vars = {}
        for engine in engines:
            for relation, names in engine.tuple_vars().items():
                tuple_vars.setdefault(relation, {}).update(names)

    report = ShardedRecoveryReport(
        policy=policy, n_shards=shard_map.n_shards, shards=reports
    )
    return ShardedEngine(
        None,
        policy=policy,
        clock=clock,
        _resume=(shard_map, backend, tuple_vars, report),
    )
