"""Annotated-database snapshots and their sqlite3 persistence.

An :class:`AnnotatedSnapshot` is the provenance-bearing state of an engine
at a point in time: per relation, every stored row with its UP[X]
expression and its set-semantics liveness.  Snapshots detach provenance
from the engine that produced it — they can be saved to a sqlite3 file,
re-loaded later (or elsewhere), specialized, minimized and queried without
replaying the log.

Sqlite layout (one file per snapshot, marked ``PRAGMA user_version = 1``)::

    meta(key TEXT PRIMARY KEY, value TEXT)
    relations(name TEXT PRIMARY KEY, attributes TEXT)        -- JSON list
    exprs(nodes TEXT)                                        -- one row
    rows(relation TEXT, row TEXT, live INTEGER, root INTEGER)

Every annotation of the snapshot goes into *one* shared node table
(:func:`repro.storage.exprjson.exprs_to_arena`), stored once in
``exprs``; each row stores the integer index of its root.  Normal-form
rows share a lot: rows written by one transaction share its variable
and the sub-expressions it combined, so storing each distinct node once
keeps a checkpoint linear in the distinct nodes rather than in the
per-row DAG sum (which is several times larger on history-laden
workloads).  A file without the current format marker (the older
one-node-table-per-row layout) is refused with a
:class:`~repro.errors.StorageError`; rebuild that state by replaying its
log.
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path
from typing import Callable, Iterator, Mapping

from ..core.expr import Expr, evaluate
from ..core.minimize import minimize
from ..db.database import Database
from ..db.schema import Relation, Schema
from ..errors import StorageError
from ..store.annotation_store import AnnotationStore
from .exprjson import exprs_from_arena, exprs_to_arena

__all__ = [
    "AnnotatedSnapshot",
    "restore_executor",
    "save_snapshot",
    "load_snapshot",
    "store_from_snapshot",
]


class AnnotatedSnapshot:
    """Per-relation ``{row: (expression, live)}`` plus the schema."""

    def __init__(self, schema: Schema, meta: Mapping[str, object] | None = None):
        self.schema = schema
        self.meta: dict[str, object] = dict(meta or {})
        self._rows: dict[str, dict[tuple, tuple[Expr, bool]]] = {
            relation.name: {} for relation in schema
        }

    @classmethod
    def from_engine(cls, engine, meta: Mapping[str, object] | None = None) -> "AnnotatedSnapshot":
        """Capture the current annotated state of a provenance engine."""
        snapshot = cls(engine.executor.schema, meta)
        for name in engine.executor.schema.names:
            bucket = snapshot._rows[name]
            for row, expr, live in engine.provenance(name):
                if not isinstance(expr, Expr):
                    raise StorageError(
                        f"policy {engine.policy!r} stores {type(expr).__name__} "
                        "annotations; snapshots hold UP[X] expressions"
                    )
                bucket[row] = (expr, live)
        return snapshot

    @classmethod
    def from_store(
        cls, store: AnnotationStore, meta: Mapping[str, object] | None = None
    ) -> "AnnotatedSnapshot":
        """Capture an :class:`AnnotationStore` whose slots hold expressions."""
        snapshot = cls(store.schema, meta)
        for name, _relation_store in store.relations():
            bucket = snapshot._rows[name]
            for row, ann, live in store.items(name):
                if not isinstance(ann, Expr):
                    raise StorageError(
                        f"store slot holds {type(ann).__name__}; snapshots hold "
                        "UP[X] expressions"
                    )
                bucket[row] = (ann, live)
        return snapshot

    # -- content access ---------------------------------------------------------

    def set(self, relation: str, row: tuple, expr: Expr, live: bool) -> None:
        checked = self.schema.relation(relation).check_row(row)
        self._rows[relation][checked] = (expr, live)

    def annotation(self, relation: str, row: tuple) -> Expr | None:
        entry = self._rows.get(relation, {}).get(tuple(row))
        return entry[0] if entry else None

    def items(self, relation: str) -> Iterator[tuple[tuple, Expr, bool]]:
        for row, (expr, live) in self._rows[relation].items():
            yield row, expr, live

    def live_database(self) -> Database:
        db = Database(self.schema)
        for name, rows in self._rows.items():
            db.extend(name, (row for row, (_expr, live) in rows.items() if live))
        return db

    def row_count(self) -> int:
        return sum(len(rows) for rows in self._rows.values())

    def provenance_size(self) -> int:
        return sum(
            expr.size() for rows in self._rows.values() for (expr, _live) in rows.values()
        )

    # -- transformations -----------------------------------------------------------

    def minimized(self) -> "AnnotatedSnapshot":
        """A copy with every annotation put through Proposition 5.5."""
        out = AnnotatedSnapshot(self.schema, self.meta)
        for name, rows in self._rows.items():
            out._rows[name] = {
                row: (minimize(expr), live) for row, (expr, live) in rows.items()
            }
        return out

    def specialize(
        self,
        structure,
        env: Mapping[str, object] | Callable[[str], object],
    ) -> dict[str, dict[tuple, object]]:
        """Evaluate every annotation in a concrete Update-Structure."""
        return {
            name: {row: evaluate(expr, structure, env) for row, (expr, _live) in rows.items()}
            for name, rows in self._rows.items()
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AnnotatedSnapshot):
            return NotImplemented
        return (
            {r.name: r.attributes for r in self.schema}
            == {r.name: r.attributes for r in other.schema}
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        return f"AnnotatedSnapshot({self.row_count()} rows, size={self.provenance_size()})"


# ---------------------------------------------------------------------------
# Store round-trip
# ---------------------------------------------------------------------------


def store_from_snapshot(
    snapshot: AnnotatedSnapshot, use_indexes: bool = True
) -> AnnotationStore:
    """Rebuild an :class:`AnnotationStore` from a snapshot.

    Only row values, liveness bits and expression annotations are
    persisted; row ids and the per-column indexes are storage artifacts
    and are rebuilt here, one :meth:`RelationStore.add` per stored row.
    """
    store = AnnotationStore(snapshot.schema, use_indexes=use_indexes)
    for name in snapshot.schema.names:
        relation_store = store.relation(name)
        for row, expr, live in snapshot.items(name):
            relation_store.add(row, expr, live)
    return store


def restore_executor(snapshot: AnnotatedSnapshot, policy: str = "naive"):
    """An executor resuming from a snapshot's annotated state.

    Only policies whose annotation slots hold plain UP[X] expressions can
    resume — ``naive`` and ``normal_form_batch`` (the incremental
    ``normal_form`` policy keeps Theorem 5.3 state machines that a
    detached expression does not determine).  Initial-tuple variable names
    are not part of a snapshot, so :meth:`Engine.tuple_var` lookups on
    the restored executor return ``None``.
    """
    from ..engine.engine import make_executor
    from ..engine.executors import NaiveExecutor

    executor = make_executor(Database(snapshot.schema), policy)
    if not isinstance(executor, NaiveExecutor):  # includes normal_form_batch
        raise StorageError(
            f"policy {policy!r} cannot resume from an expression snapshot; "
            "use 'naive' or 'normal_form_batch'"
        )
    executor.store = store_from_snapshot(snapshot)
    return executor


# ---------------------------------------------------------------------------
# Sqlite persistence
# ---------------------------------------------------------------------------

#: ``PRAGMA user_version`` of the shared-node-table layout.  Files from
#: the per-row layout carry sqlite's default 0 and are refused on load.
_FORMAT = 1

_SCHEMA_SQL = f"""
PRAGMA user_version = {_FORMAT};
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE relations (name TEXT PRIMARY KEY, attributes TEXT NOT NULL);
CREATE TABLE exprs (nodes TEXT NOT NULL);
CREATE TABLE rows (
    relation TEXT NOT NULL REFERENCES relations(name),
    row TEXT NOT NULL,
    live INTEGER NOT NULL,
    root INTEGER NOT NULL,
    PRIMARY KEY (relation, row)
);
"""


def save_snapshot(snapshot: AnnotatedSnapshot, path: str | Path, fsync: bool = False) -> None:
    """Write a snapshot to a sqlite3 file (replacing any existing file).

    The write is *atomic*: the snapshot is fully built in a sibling temp
    file and moved onto ``path`` with :func:`os.replace`, so a crash
    mid-save leaves any previous snapshot at ``path`` untouched — either
    the old file or the complete new one exists, never a torn mix.  With
    ``fsync`` the temp file and the containing directory are synced
    around the rename, making the replacement survive power loss, not
    just process crashes (the WAL checkpoint manager passes it through
    from the journal's sync policy).
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    conn = sqlite3.connect(tmp)
    try:
        try:
            conn.executescript(_SCHEMA_SQL)
            conn.executemany(
                "INSERT INTO meta VALUES (?, ?)",
                ((key, json.dumps(value)) for key, value in snapshot.meta.items()),
            )
            conn.executemany(
                "INSERT INTO relations VALUES (?, ?)",
                ((r.name, json.dumps(list(r.attributes))) for r in snapshot.schema),
            )
            entries = [
                (name, row, expr, live)
                for name in snapshot.schema.names
                for row, expr, live in snapshot.items(name)
            ]
            table, roots = exprs_to_arena(expr for _name, _row, expr, _live in entries)
            conn.execute("INSERT INTO exprs VALUES (?)", (json.dumps(table["nodes"]),))
            conn.executemany(
                "INSERT INTO rows VALUES (?, ?, ?, ?)",
                (
                    (name, json.dumps(list(row)), int(live), root)
                    for (name, row, _expr, live), root in zip(entries, roots)
                ),
            )
            conn.commit()
        except (TypeError, ValueError) as exc:
            raise StorageError(f"snapshot not JSON-serializable: {exc}") from exc
        finally:
            conn.close()
        if fsync:
            with open(tmp, "rb") as handle:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        if fsync:
            _fsync_directory(path.parent)
    finally:
        if tmp.exists():
            tmp.unlink()


def _fsync_directory(directory: Path) -> None:
    """Persist a rename by syncing the directory entry (POSIX best effort)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir-open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_snapshot(path: str | Path) -> AnnotatedSnapshot:
    """Read a snapshot back from a sqlite3 file (current format only)."""
    path = Path(path)
    if not path.exists():
        raise StorageError(f"no snapshot at {path}")
    conn = sqlite3.connect(path)
    try:
        try:
            (found,) = conn.execute("PRAGMA user_version").fetchone()
            if found == _FORMAT:
                return _read_snapshot(conn)
        except (StorageError, sqlite3.DatabaseError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise StorageError(f"corrupt snapshot {path}: {exc}") from exc
    finally:
        conn.close()
    raise StorageError(
        f"snapshot {path} has format {found}, this build reads {_FORMAT}; a "
        "checkpoint from before the shared node table must be rebuilt by "
        "replaying its log"
    )


def _read_snapshot(conn: sqlite3.Connection) -> AnnotatedSnapshot:
    relations = [
        Relation(name, json.loads(attrs))
        for name, attrs in conn.execute("SELECT name, attributes FROM relations")
    ]
    meta = {key: json.loads(value) for key, value in conn.execute("SELECT key, value FROM meta")}
    snapshot = AnnotatedSnapshot(Schema(relations), meta)
    (nodes_json,) = conn.execute("SELECT nodes FROM exprs").fetchone()
    rows = conn.execute("SELECT relation, row, live, root FROM rows").fetchall()
    exprs = exprs_from_arena({"nodes": json.loads(nodes_json)}, [root for *_, root in rows])
    for (name, row_json, live, _root), expr in zip(rows, exprs):
        snapshot.set(name, tuple(json.loads(row_json)), expr, bool(live))
    return snapshot
