"""Integer-id arena encoding of expression DAGs.

An :class:`ExprArena` stores expression nodes as rows of flat parallel
arrays — ``kind[] / a[] / b[]`` plus a shared variable-name table and a
flat child-id array for sums — instead of per-node Python objects.  A DAG
is referenced by the integer id of its root; shared sub-expressions share
ids, so the arena is itself hash-consed and a node costs a few machine
words rather than an ``Expr`` object plus an intern-table entry.

The arena is purely an **at-rest** store: annotation stores in arena
mode keep root ids in their row slots and decode back to
:class:`~repro.core.expr.Expr` lazily at the API boundary
(:meth:`ExprArena.get_expr` rebuilds through the smart constructors, so
decoded nodes are ordinary interned expressions).  It never leaves the
process; what does is the one expression encoding,
:mod:`repro.storage.exprjson`'s shared node table.

Two caches make repeated encodes/decodes O(1) (the at-rest store
round-trips every slot on each batch flush, so without them that would be
quadratic in history).  The encode cache (``Expr -> nid``) is weak.  The
decode cache (``nid -> Expr``) holds what :meth:`ExprArena.get_expr`
built strongly, so a decoded DAG — and the rewrite memos living on its
nodes — survives until the next flush decodes it again; the cache goes
with the arena, which compaction replaces.  Encoding pins nothing, so a
freshly repacked arena holds no ``Expr`` at all.  Identity of repeated
decodes is guaranteed by interning itself.
"""

from __future__ import annotations

import weakref
from array import array
from typing import Iterable

from .expr import (
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

__all__ = ["ExprArena", "ArenaError"]


class ArenaError(ValueError):
    """Unknown arena node id."""


# Kind codes of the in-memory tables.
K_ZERO = 0
K_VAR = 1
K_PLUS_I = 2
K_MINUS = 3
K_PLUS_M = 4
K_TIMES_M = 5
K_SUM = 6

_KIND_CODE = {PLUS_I: K_PLUS_I, MINUS: K_MINUS, PLUS_M: K_PLUS_M, TIMES_M: K_TIMES_M}
_BINARY_BUILDER = {K_PLUS_I: plus_i, K_MINUS: minus, K_PLUS_M: plus_m, K_TIMES_M: times_m}

# Intra-arena consing keys pack (a, b, code) into one int; ids are array
# indexes so they stay far below 2**32 for any arena that fits in RAM.
_SHIFT = 32


class ExprArena:
    """A flat-table, hash-consed store of expression nodes.

    Node 0 is always ``ZERO``.  ``kind[i]`` is a small int code; for
    binary nodes ``a[i]``/``b[i]`` are child ids, for variables ``a[i]``
    indexes the name table, for sums ``a[i]``/``b[i]`` are offset and
    count into the flat ``args`` child-id array.
    """

    __slots__ = (
        "_kind",
        "_a",
        "_b",
        "_args",
        "_names",
        "_name_ids",
        "_index",
        "_sum_index",
        "_to_nid",
        "_from_nid",
    )

    def __init__(self) -> None:
        self._kind = array("b", [K_ZERO])
        self._a = array("q", [0])
        self._b = array("q", [0])
        self._args = array("q")
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._index: dict[int, int] = {}
        self._sum_index: dict[tuple[int, ...], int] = {}
        # Acceleration caches (see module docstring): object identity keys
        # (Expr __eq__ is identity), weak for encoding, strong for what
        # get_expr decoded.
        self._to_nid: "weakref.WeakKeyDictionary[Expr, int]" = weakref.WeakKeyDictionary()
        self._from_nid: dict[int, Expr] = {}

    def __len__(self) -> int:
        return len(self._kind)

    @property
    def node_count(self) -> int:
        return len(self._kind)

    def nbytes(self) -> int:
        """Approximate at-rest bytes of the flat tables and name strings."""
        total = (
            len(self._kind) * self._kind.itemsize
            + len(self._a) * self._a.itemsize
            + len(self._b) * self._b.itemsize
            + len(self._args) * self._args.itemsize
        )
        for name in self._names:
            total += len(name)
        return total

    # -- encoding --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self._names)
            self._names.append(name)
            self._name_ids[name] = nid
        return nid

    def _emit(self, code: int, a: int, b: int) -> int:
        nid = len(self._kind)
        self._kind.append(code)
        self._a.append(a)
        self._b.append(b)
        return nid

    def _cons(self, code: int, a: int, b: int) -> int:
        key = ((a << _SHIFT) | b) << 3 | code
        nid = self._index.get(key)
        if nid is None:
            nid = self._emit(code, a, b)
            self._index[key] = nid
        return nid

    def add_expr(self, expr: Expr) -> int:
        """Encode ``expr`` (and all its sub-DAG) and return its node id."""
        cached = self._to_nid.get(expr)
        if cached is not None:
            return cached
        # Keyed by id: ``expr`` pins its whole DAG for the call, so no id
        # here can be reused by another node while the memo is in use.
        memo: dict[int, int] = {}
        stack: list[tuple[Expr, bool]] = [(expr, False)]
        while stack:
            node, ready = stack.pop()
            if id(node) in memo:
                continue
            if not ready:
                cached = self._to_nid.get(node)
                if cached is not None:
                    memo[id(node)] = cached
                    continue
                stack.append((node, True))
                for child in reversed(node.children):
                    if id(child) not in memo:
                        stack.append((child, False))
                continue
            kind = node.kind
            if kind == ZERO_KIND:
                nid = 0
            elif kind == VAR:
                nid = self._cons(K_VAR, self._name_id(node.name), 0)
            elif kind == SUM:
                ids = tuple(memo[id(c)] for c in node.children)
                nid = self._sum_index.get(ids)
                if nid is None:
                    offset = len(self._args)
                    self._args.extend(ids)
                    nid = self._emit(K_SUM, offset, len(ids))
                    self._sum_index[ids] = nid
            else:
                code = _KIND_CODE[kind]
                left, right = node.children
                nid = self._cons(code, memo[id(left)], memo[id(right)])
            memo[id(node)] = nid
            self._to_nid[node] = nid
        return memo[id(expr)]

    # -- decoding --------------------------------------------------------------

    def get_expr(self, nid: int) -> Expr:
        """Materialize the node ``nid`` as an interned :class:`Expr`.

        Rebuilds bottom-up through the smart constructors, so the result
        (and every shared sub-node) is the ordinary interned object —
        bit-identical to what the object path would have produced.
        """
        if not 0 <= nid < len(self._kind):
            raise ArenaError(f"unknown arena node id {nid}")
        hit = self._from_nid.get(nid)
        if hit is not None:
            return hit
        memo: dict[int, Expr] = {}
        stack: list[tuple[int, bool]] = [(nid, False)]
        while stack:
            node, ready = stack.pop()
            if node in memo:
                continue
            code = self._kind[node]
            if not ready:
                hit = self._from_nid.get(node)
                if hit is not None:
                    memo[node] = hit
                    continue
                stack.append((node, True))
                for child in self._children(node):
                    if child not in memo:
                        stack.append((child, False))
                continue
            if code == K_ZERO:
                expr = ZERO
            elif code == K_VAR:
                expr = var(self._names[self._a[node]])
            elif code == K_SUM:
                expr = ssum(memo[c] for c in self._children(node))
            else:
                expr = _BINARY_BUILDER[code](memo[self._a[node]], memo[self._b[node]])
            memo[node] = expr
            self._from_nid[node] = expr
            self._to_nid[expr] = node
        return memo[nid]

    def _children(self, nid: int) -> Iterable[int]:
        code = self._kind[nid]
        if code in (K_ZERO, K_VAR):
            return ()
        if code == K_SUM:
            offset, count = self._a[nid], self._b[nid]
            return self._args[offset : offset + count]
        return (self._a[nid], self._b[nid])
