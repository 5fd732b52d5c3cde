"""Wire codec between the shard coordinator and its worker processes.

Two vocabularies cross the process boundary, both reusing codecs that
already exist for durability:

* **updates** travel as the :meth:`repro.workloads.logs.UpdateLog.events`
  stream — ``("query", query_to_dict(q))`` / ``("txn_end", name)`` — the
  same replay vocabulary the write-ahead journal records, decoded on the
  worker with :func:`repro.workloads.logs.log_from_events` so transaction
  hooks fire at exactly their event positions;
* **annotated state** travels as
  :meth:`repro.store.annotation_store.AnnotationStore.state`-style
  captures whose expressions are encoded with
  :func:`repro.storage.exprjson.expr_to_dict` — the DAG encoding, so even
  naive-policy expressions ship in space proportional to their DAG size.

Expressions are *never* pickled directly: hash-consed nodes unpickle into
fresh objects, severing the interning identity the bit-identity checks
(and every identity-keyed memo) rely on.  Decoding through the smart
constructors re-interns every node in the receiving process, so a capture
decoded at the coordinator is made of the *same* expression objects an
unsharded engine running there would have built — the honest treatment of
the process-global intern table across worker boundaries (see
``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..core.expr import Expr
from ..queries.updates import Transaction, UpdateQuery
from ..storage.exprjson import expr_from_dict, expr_to_dict, exprs_from_arena, exprs_to_arena
from ..workloads.logs import query_from_dict, query_to_dict

__all__ = [
    "ARENA_KEY",
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

#: Per-relation ``{row: (expression, live)}`` — the row-id-free view the
#: bit-identity checks compare (expression-valued, whatever the policy
#: stores internally; ``None`` for the provenance-free vanilla policy).
Capture = dict[str, dict[tuple, tuple["Expr | None", bool]]]


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
    a sweep root set, or the input of a size measure (``None`` skipped)."""
    for rows in row_maps:
        for expr, _live in rows.values():
            if expr is not None:
                yield expr


def capture_engine(engine) -> Capture:
    """Any backend's full annotated state, keyed by row.

    The capture itself is the engine contract's
    :meth:`~repro.engine.engine.Engine.capture`; this is the wire
    vocabulary's name for it — what the service, the shard coordinator
    and the shard workers call before :func:`encode_capture`.
    """
    return engine.capture()


#: Marker key of the arena-form capture payload.  Relation names come from
#: schemas and can never collide with it (dunder names are not valid
#: relation identifiers in any shipped workload).
ARENA_KEY = "__arena__"


def encode_capture(capture: Capture, arena: bool = False) -> dict:
    """Pickle-safe capture: rows stay tuples, expressions become node ids.

    Two wire forms, distinguished on decode by the :data:`ARENA_KEY`
    marker:

    * the legacy per-row form — ``{relation: [[row, dag-dict|None, live],
      ...]}`` with one :func:`expr_to_dict` node table per row;
    * the arena form (``arena=True``) — one shared flat node table for
      the whole capture plus integer root ids per row, so bases and
      transaction variables shared across rows ship once.
    """
    if not arena:
        return {
            name: [
                [row, None if expr is None else expr_to_dict(expr), live]
                for row, (expr, live) in rows.items()
            ]
            for name, rows in capture.items()
        }
    exprs: list[Expr | None] = []
    for rows in capture.values():
        exprs.extend(expr for expr, _live in rows.values())
    arena_payload, roots = exprs_to_arena(exprs)
    relations: dict[str, list] = {}
    position = 0
    for name, rows in capture.items():
        encoded = []
        for row, (_expr, live) in rows.items():
            encoded.append([row, roots[position], live])
            position += 1
        relations[name] = encoded
    return {ARENA_KEY: arena_payload, "relations": relations}


def decode_capture(payload: dict) -> Capture:
    """Inverse of :func:`encode_capture` (either form); re-interns every node."""
    if ARENA_KEY in payload:
        relations = payload["relations"]
        roots = [nid for rows in relations.values() for _row, nid, _live in rows]
        exprs = exprs_from_arena(payload[ARENA_KEY], roots)
        capture: Capture = {}
        position = 0
        for name, rows in relations.items():
            decoded: dict[tuple, tuple[Expr | None, bool]] = {}
            for row, _nid, live in rows:
                decoded[tuple(row)] = (exprs[position], bool(live))
                position += 1
            capture[name] = decoded
        return capture
    return {
        name: {
            tuple(row): (None if expr is None else expr_from_dict(expr), bool(live))
            for row, expr, live in rows
        }
        for name, rows in payload.items()
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
