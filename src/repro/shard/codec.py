"""The capture codec: annotated state and update streams as wire payloads.

Everything the served path ships between processes goes through here,
reusing codecs that already exist for durability:

* **updates** travel as the :meth:`repro.workloads.logs.UpdateLog.events`
  stream — ``("query", query_to_dict(q))`` / ``("txn_end", name)`` — the
  same replay vocabulary the write-ahead journal records
  (:func:`items_to_events` on the client, :func:`decode_events` on the
  server), so transaction hooks fire at exactly their event positions;
* **annotated state** travels as ``{relation: {row: (expression,
  live)}}`` captures (:func:`capture_engine`, :func:`encode_capture`):
  every expression of the capture goes into one shared
  :mod:`repro.storage.exprjson` node table and each row carries its
  integer root, so structure shared across rows ships once and even
  naive-policy expressions ship in space proportional to their DAG size.
  The same payload answers the service's ``state``, ``provenance`` and
  ``subscribe`` ops, and is the body of a WAL ``checkpoint.json``;
* **tuple variables** travel as ``[relation, row, name]`` triples
  (:func:`encode_tuple_vars`).

Expressions are *never* pickled directly: hash-consed nodes unpickle into
fresh objects, severing the interning identity the bit-identity checks
(and every identity-keyed memo) rely on.  Decoding through the smart
constructors re-interns every node in the receiving process, so a capture
decoded by a client is made of the *same* expression objects an engine
running there would have built (see ``docs/ARCHITECTURE.md``).

The module lives in :mod:`repro.shard` for a historical reason only: it
was first written as the wire format of a partitioned engine that has
since been retired.  Tools that trace the served path name its functions
by module path, so it stays here until those names move with it.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..core.expr import Expr
from ..queries.updates import Transaction, UpdateQuery
from ..errors import StorageError
from ..storage.exprjson import exprs_from_arena, exprs_to_arena
from ..storage.snapshot import Capture
from ..workloads.logs import query_from_dict, query_to_dict

__all__ = [
    "Capture",
    "capture_engine",
    "decode_capture",
    "decode_events",
    "decode_tuple_vars",
    "encode_capture",
    "encode_tuple_vars",
    "exprs_of",
    "items_to_events",
]

def items_to_events(
    items: Iterable[UpdateQuery | Transaction],
) -> list[tuple[str, object]]:
    """Encode queries/transactions as a wire-ready event list."""
    events: list[tuple[str, object]] = []
    for item in items:
        if isinstance(item, Transaction):
            for query in item.queries:
                events.append(("query", query_to_dict(query)))
            events.append(("txn_end", item.name))
        elif isinstance(item, UpdateQuery):
            events.append(("query", query_to_dict(item)))
        else:
            raise TypeError(f"cannot encode {type(item).__name__}")
    return events


def decode_events(events: Iterable[tuple[str, object]]) -> list[tuple[str, object]]:
    """Decode wire events back into the ``UpdateLog.events`` vocabulary."""
    return [
        (kind, query_from_dict(payload) if kind == "query" else payload)
        for kind, payload in events
    ]


def exprs_of(row_maps: Iterable[dict]) -> Iterator[Expr]:
    """Every expression held by some ``{row: (expression, live)}`` maps —
    the input of a size measure (``None`` skipped)."""
    for rows in row_maps:
        for expr, _live in rows.values():
            if expr is not None:
                yield expr


def capture_engine(engine) -> Capture:
    """Any backend's full annotated state, keyed by row.

    The capture itself is the engine contract's
    :meth:`~repro.engine.engine.Engine.capture`; this is the wire
    vocabulary's name for it — what the service calls before
    :func:`encode_capture`.
    """
    return engine.capture()


def encode_capture(capture: Capture) -> dict:
    """Pickle/JSON-safe capture: one shared node table, integer roots per row.

    ``{"exprs": {"nodes": [...]}, "relations": {name: [[row, root|None,
    live], ...]}}`` — every expression of the capture goes through one
    :func:`~repro.storage.exprjson.exprs_to_arena` table, so structure
    shared across rows and relations ships once.
    """
    table, roots = exprs_to_arena(
        expr for rows in capture.values() for expr, _live in rows.values()
    )
    position = iter(roots)
    return {
        "exprs": table,
        "relations": {
            name: [[row, next(position), live] for row, (_expr, live) in rows.items()]
            for name, rows in capture.items()
        },
    }


def decode_capture(payload: dict) -> Capture:
    """Inverse of :func:`encode_capture`; re-interns every node once."""
    try:
        relations = payload["relations"]
        roots = [root for rows in relations.values() for _row, root, _live in rows]
        table = payload["exprs"]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"malformed capture payload: {exc!r}") from exc
    exprs = iter(exprs_from_arena(table, roots))
    return {
        name: {tuple(row): (next(exprs), bool(live)) for row, _root, live in rows}
        for name, rows in relations.items()
    }


def encode_tuple_vars(tuple_vars: dict[str, dict[tuple, str]]) -> list:
    """``{relation: {row: name}}`` as a pickle-safe triple list."""
    return [
        [relation, row, name]
        for relation, names in tuple_vars.items()
        for row, name in names.items()
    ]


def decode_tuple_vars(payload: Iterable) -> dict[str, dict[tuple, str]]:
    out: dict[str, dict[tuple, str]] = {}
    for relation, row, name in payload:
        out.setdefault(str(relation), {})[tuple(row)] = str(name)
    return out
