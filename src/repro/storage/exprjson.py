"""The expression codec: one shared postorder node table for many roots.

Every set of UP[X] expressions that leaves the process — a wire capture,
a pushed delta batch, a checkpoint — is
encoded by :func:`exprs_to_arena` as one JSON-ready node table::

    {"nodes": [["var", "a"], ["var", "p"], ["+I", 0, 1], ["-", 2, 1], ...]}

plus one integer root index per expression.  Records are in postorder
(children before parents) and each distinct node appears once across
*all* roots, so structure shared between rows — bases, transaction
variables, a modification's source disjunction — is stored once, and
even the naive construction's exponential-expansion expressions encode
in space proportional to their DAG size (Proposition 5.1).

:func:`expr_to_dict` / :func:`expr_from_dict` are the one-root case, with
the root index inline: ``{"nodes": [...], "root": i}``.

Decoding rebuilds bottom-up through the smart constructors, so zero
axioms are re-applied (on expressions produced by this library that is
the identity) and every decoded node is the receiving process's ordinary
interned object.  Malformed input raises :class:`~repro.errors.StorageError`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..core.expr import (
    MINUS,
    PLUS_I,
    PLUS_M,
    SUM,
    TIMES_M,
    VAR,
    ZERO,
    ZERO_KIND,
    Expr,
    minus,
    plus_i,
    plus_m,
    ssum,
    times_m,
    var,
)
from ..errors import StorageError

__all__ = [
    "expr_to_dict",
    "expr_from_dict",
    "exprs_to_arena",
    "exprs_from_arena",
]

_BUILDERS = {
    PLUS_I: plus_i,
    MINUS: minus,
    PLUS_M: plus_m,
    TIMES_M: times_m,
}


def exprs_to_arena(exprs: Iterable[Expr | None]) -> tuple[dict, list[int | None]]:
    """Encode many expressions into one shared node table.

    Returns ``({"nodes": [...]}, roots)`` with ``roots[i]`` the table
    index of the ``i``-th expression; ``None`` entries pass through as
    ``None``.  Each distinct node is visited once across all roots.  The
    roots are held for the whole call, so no id in ``index`` can be reused
    by a node built after a transient root died.
    """
    held = list(exprs)
    index: dict[int, int] = {}
    nodes: list[list] = []
    roots: list[int | None] = []
    for expr in held:
        if expr is None:
            roots.append(None)
            continue
        if id(expr) not in index:
            # Iterative postorder sharing ``index`` as its visited set: a
            # node popped unexpanded is either already emitted or not yet
            # seen (it cannot be in progress — that would be a cycle).
            stack: list[tuple[Expr, bool]] = [(expr, False)]
            while stack:
                node, expanded = stack.pop()
                if id(node) in index:
                    continue
                if not expanded:
                    stack.append((node, True))
                    for child in reversed(node.children):
                        if id(child) not in index:
                            stack.append((child, False))
                    continue
                kind = node.kind
                if kind == VAR:
                    encoded = ["var", node.name]
                elif kind == ZERO_KIND:
                    encoded = ["zero"]
                else:
                    encoded = [kind, *[index[id(c)] for c in node.children]]
                index[id(node)] = len(nodes)
                nodes.append(encoded)
        roots.append(index[id(expr)])
    return {"nodes": nodes}, roots


def exprs_from_arena(payload: Mapping, roots: Sequence[int | None]) -> list[Expr | None]:
    """Inverse of :func:`exprs_to_arena`; re-interns every node once."""
    built = _build(payload)
    out: list[Expr | None] = []
    for root in roots:
        if root is None:
            out.append(None)
        elif type(root) is int and 0 <= root < len(built):
            out.append(built[root])
        else:
            raise StorageError(f"root index {root!r} out of range (table has {len(built)} nodes)")
    return out


def expr_to_dict(expr: Expr) -> dict[str, object]:
    """One expression as a node table with its root index inline."""
    payload, (root,) = exprs_to_arena((expr,))
    payload["root"] = root
    return payload


def expr_from_dict(data: Mapping[str, object]) -> Expr:
    """Inverse of :func:`expr_to_dict` (rebuilds through smart constructors)."""
    try:
        root = data["root"]
    except (KeyError, TypeError) as exc:
        raise StorageError(f"malformed expression payload: {exc!r}") from exc
    (expr,) = exprs_from_arena(data, (root,))
    return expr  # type: ignore[return-value]


def _build(payload: Mapping) -> list[Expr]:
    """Validate a node table and rebuild every record, in table order."""
    try:
        nodes = payload["nodes"]
    except (KeyError, TypeError) as exc:
        raise StorageError(f"malformed expression payload: {exc!r}") from exc
    if not isinstance(nodes, list):
        raise StorageError(f"node table must be a list, got {type(nodes).__name__}")
    built: list[Expr] = []
    append = built.append
    for position, encoded in enumerate(nodes):
        try:
            kind = encoded[0]
            if kind == "var":
                _kind, name = encoded
                append(var(str(name)))
                continue
            if kind == "zero":
                if len(encoded) != 1:
                    raise ValueError("zero takes no operands")
                append(ZERO)
                continue
            ids = encoded[1:]
            # ``built`` holds exactly the earlier records, so indexing it
            # rejects forward references; negative indexes are refused here.
            if ids and min(ids) < 0:
                raise IndexError("negative child index")
            children = [built[i] for i in ids]
            if kind == SUM:
                append(ssum(children))
                continue
            builder = _BUILDERS.get(kind)
            if builder is None:
                raise ValueError(f"unknown node kind {kind!r}")
            if len(children) != 2:
                raise ValueError(f"{kind} needs 2 children, got {len(children)}")
            append(builder(*children))
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            raise StorageError(f"malformed node {position} {encoded!r}: {exc}") from exc
    return built
