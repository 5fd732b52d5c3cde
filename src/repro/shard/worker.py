"""The shard worker process: one engine, driven over a pipe.

A worker owns exactly one shard's :class:`~repro.engine.engine.Engine`
(or :class:`~repro.wal.engine.JournaledEngine` when the deployment is
durable) and executes a tiny request/response protocol over a
:mod:`multiprocessing` pipe::

    ("apply",      {"events": [...], "batch": bool})  -> ("ok", {"stats": ...})
    ("capture",    None)   -> ("ok", {"state": ..., "stats": ...})
    ("checkpoint", None)   -> ("ok", {"written": int, "stats": ...})
    ("close",      {"checkpoint": bool})              -> ("ok", {}) and exit

Updates arrive as the shared replay vocabulary (see
:mod:`repro.shard.codec`) and are regrouped with
:func:`repro.workloads.logs.log_from_events`, so per-shard transaction
hooks — the ``normal_form_batch`` flush, the journal's ``txn_end``
records — fire at exactly the event positions the coordinator routed.
Any exception is caught and reported as ``("error", {...})``; the worker
keeps serving, leaving shutdown decisions to the coordinator.

Workers are started through the ``fork`` context where available (they
inherit the warm interned-expression table; new nodes interned afterwards
diverge per process, which is why state only ever crosses back through
the :mod:`repro.shard.codec` re-interning decoder) and fall back to
``spawn`` elsewhere — the init payload is deliberately plain data so both
start methods work.
"""

from __future__ import annotations

import traceback

from ..db.database import Database
from ..db.schema import Relation, Schema
from ..engine.engine import Engine
from ..wal.engine import JournaledEngine
from ..wal.recovery import recover
from ..workloads.logs import log_from_events
from .codec import (
    capture_engine,
    decode_events,
    encode_capture,
    encode_tuple_vars,
)

__all__ = ["shard_worker_main"]


def _build_engine(payload: dict) -> Engine:
    """Construct the worker's engine from the (plain-data) init payload."""
    resume = payload.get("recover")
    if resume is not None:
        return recover(
            resume["directory"],
            sync=resume["sync"],
            checkpoint_every=resume["checkpoint_every"],
        )
    schema = Schema(
        Relation(name, attrs) for name, attrs in payload["schema"].items()
    )
    database = Database(schema)
    for name, rows in payload["rows"].items():
        database.extend(name, rows)
    names = {
        (relation, tuple(row)): name
        for relation, row, name in payload.get("names", ())
    }
    annotate = (lambda relation, row, _i: names[(relation, row)]) if names else None
    journal = payload.get("journal")
    if journal is not None:
        return JournaledEngine(
            database,
            journal["directory"],
            policy=payload["policy"],
            annotate=annotate,
            sync=journal["sync"],
            checkpoint_every=journal["checkpoint_every"],
        )
    return Engine(database, policy=payload["policy"], annotate=annotate)


def _engine_payload(engine: Engine) -> dict:
    """The build/recover acknowledgement body."""
    recovery = engine.recovery
    return {
        "stats": engine.stats.snapshot(),
        "recovery": recovery.as_dict() if recovery is not None else None,
        "tuple_vars": encode_tuple_vars(engine.tuple_vars()),
    }


def shard_worker_main(conn, payload: dict, inherited=()) -> None:
    """Process entry point: build the engine, then serve until ``close``.

    ``inherited`` are the coordinator's pipe ends a forked worker holds
    copies of; they are closed first, or this worker's own copy would keep
    its pipe open after the coordinator closes it.
    """
    for end in inherited:
        end.close()
    try:
        engine = _build_engine(payload)
        conn.send(("ok", _engine_payload(engine)))
    except BaseException as exc:  # noqa: BLE001 - shipped to the coordinator
        conn.send(("error", _error_body(exc)))
        conn.close()
        return
    while True:
        try:
            command, body = conn.recv()
        except (EOFError, OSError):
            break  # coordinator vanished; daemon worker just exits
        try:
            if command == "apply":
                items = log_from_events(decode_events(body["events"])).items
                if body.get("batch"):
                    engine.apply_batch(items)
                else:
                    engine.apply(items)
                conn.send(("ok", {"stats": engine.stats.snapshot()}))
            elif command == "capture":
                conn.send(
                    (
                        "ok",
                        {
                            "state": encode_capture(capture_engine(engine)),
                            "stats": engine.stats.snapshot(),
                        },
                    )
                )
            elif command == "checkpoint":
                written = engine.checkpoint()
                conn.send(("ok", {"written": written, "stats": engine.stats.snapshot()}))
            elif command == "close":
                engine.close(checkpoint=bool(body.get("checkpoint", True)))
                conn.send(("ok", {"stats": engine.stats.snapshot()}))
                break
            else:
                conn.send(("error", {"message": f"unknown command {command!r}"}))
        except BaseException as exc:  # noqa: BLE001 - shipped to the coordinator
            conn.send(("error", _error_body(exc)))
    conn.close()


def _error_body(exc: BaseException) -> dict:
    return {
        "message": f"{type(exc).__name__}: {exc}",
        "traceback": traceback.format_exc(),
    }
