"""UP[X] provenance expressions.

This module implements the algebraic structure ``UP[X]`` of Section 3.1 of
the paper: symbolic expressions over a set of basic annotations (variables)
built from the operations

==========  ===========================================  ==============
operation   meaning                                      constructor
==========  ===========================================  ==============
``+I``      insertion                                    :func:`plus_i`
``-``       deletion (the paper unifies ``-D``/``-M``)   :func:`minus`
``+M``      modification (tuple after modification)      :func:`plus_m`
``*M``      modification (source ``x`` query)            :func:`times_m`
``+``       disjunction over modification sources        :func:`ssum`
``0``       absent tuple / update that did not happen    :data:`ZERO`
==========  ===========================================  ==============

Expressions are *immutable* and *hash-consed*: building the same expression
twice returns the same object, so structural equality is identity equality
and common sub-expressions are shared.  The intern table holds its nodes
*weakly*: a node lives exactly as long as something outside the table (an
annotation slot, a snapshot, a parent node, a caller) holds it, so memory
follows the live provenance.  Sharing is essential: the naive
provenance construction of Section 5.1 produces expressions whose *expanded*
size is exponential in the transaction length (Proposition 5.1) while their
DAG size stays small; hash-consing lets us faithfully *measure* the expanded
size (:func:`size`) without exhausting memory.

The *zero-related axioms* of Section 3.1 are applied eagerly by the smart
constructors (they are part of the definition of the structure, not of the
Figure 3 equivalence axioms)::

    0 - a = 0          a - 0 = a
    0 +I a = a         a +I 0 = a
    0 +M a = a         a +M 0 = a
    a *M 0 = 0 *M a = 0

All algorithms over expressions (size, depth, variables, evaluation,
rendering) are iterative: naive provenance chains can be thousands of nodes
deep, far beyond Python's recursion limit.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Iterable, Iterator, Mapping

__all__ = [
    "Expr",
    "ZERO",
    "VAR",
    "ZERO_KIND",
    "PLUS_I",
    "MINUS",
    "PLUS_M",
    "TIMES_M",
    "SUM",
    "var",
    "plus_i",
    "minus",
    "plus_m",
    "times_m",
    "ssum",
    "size",
    "dag_size",
    "depth",
    "variables",
    "evaluate",
    "substitute",
    "to_infix",
    "to_tree",
    "postorder",
    "subexpressions",
    "intern_table_size",
    "intern_generation",
    "clear_intern_table",
]

# Node kinds.  Plain strings keep reprs and debugging friendly.
VAR = "var"
ZERO_KIND = "zero"
PLUS_I = "+I"
MINUS = "-"
PLUS_M = "+M"
TIMES_M = "*M"
SUM = "+"

_BINARY_KINDS = (PLUS_I, MINUS, PLUS_M, TIMES_M)


class Expr:
    """A node of an UP[X] expression.

    Do not instantiate directly; use :func:`var`, :data:`ZERO` and the
    operation constructors, which intern nodes and apply the zero axioms.

    Attributes:
        kind: one of :data:`VAR`, :data:`ZERO_KIND`, :data:`PLUS_I`,
            :data:`MINUS`, :data:`PLUS_M`, :data:`TIMES_M`, :data:`SUM`.
        name: the variable name for ``VAR`` nodes, otherwise ``None``.
        children: operand tuple (2 operands for the binary operations,
            any number for ``SUM``, empty for leaves).
    """

    # __weakref__ is what the intern table holds, so it keeps no node
    # alive.  ``_memo`` carries the node's rewrite-memo values (see
    # repro.core.memo): they die with it.
    __slots__ = ("kind", "name", "children", "_hash", "_size", "_depth", "_memo", "__weakref__")

    def __init__(self, kind: str, name: str | None, children: tuple["Expr", ...]):
        self.kind = kind
        self.name = name
        self.children = children
        self._hash = hash((kind, name, *map(id, children)))
        self._size: int | None = None
        self._depth: int | None = None
        self._memo: dict | None = None

    # Identity semantics: interning guarantees structural equality iff
    # object identity, so the default object equality is correct and fast.
    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Expr({to_infix(self)})"

    def __str__(self) -> str:
        return to_infix(self)

    @property
    def is_zero(self) -> bool:
        """True for the special element ``0``."""
        return self.kind == ZERO_KIND

    @property
    def is_var(self) -> bool:
        """True for basic annotations (identifiers)."""
        return self.kind == VAR

    # Convenience accessors for binary nodes.
    @property
    def left(self) -> "Expr":
        """Left operand of a binary node."""
        if len(self.children) != 2:
            raise ValueError(f"{self.kind} node has no left/right operands")
        return self.children[0]

    @property
    def right(self) -> "Expr":
        """Right operand of a binary node."""
        if len(self.children) != 2:
            raise ValueError(f"{self.kind} node has no left/right operands")
        return self.children[1]

    def size(self) -> int:
        """Expanded formula size (number of tree nodes, leaves included).

        Counts the expression as a *tree*, i.e. shared sub-expressions are
        counted with multiplicity.  This is the "provenance size" the paper
        reports; it may be exponentially larger than the number of distinct
        nodes, hence the memoized bottom-up big-int computation.
        """
        return size(self)

    def depth(self) -> int:
        """Height of the expression tree (a leaf has depth 1)."""
        return depth(self)

    def variables(self) -> frozenset[str]:
        """The set of annotation names occurring in the expression."""
        return variables(self)


# ---------------------------------------------------------------------------
# Interning
# ---------------------------------------------------------------------------

# ``(kind, name or child ids...) -> weakref(node)``.  Keys hold no strong
# child references: a live node holds its children, so the ids in a live
# entry name exactly those children.  A dead entry's ids may since have been
# reused, but a dead entry never answers a lookup — it counts as a miss and
# is replaced (or purged in bulk).
_INTERN: dict[tuple, "weakref.ref[Expr]"] = {}

# Serializes replacing a dead entry (the lock-free setdefault path only
# inserts absent keys) and bulk purging, so two threads never install two
# nodes for one shape.
_INTERN_LOCK = threading.Lock()

# Purge dead entries in bulk once the table has doubled since the last purge.
_PURGE_FLOOR = 4096
_purge_at = _PURGE_FLOOR

# Bumped by clear_intern_table().  Identity-keyed caches over interned nodes
# (see repro.core.memo) remember the generation they were filled at and drop
# themselves when it changes: after a clear, structurally equal nodes no
# longer share identity with their pre-clear builds, so pre-clear cache
# entries must never answer for post-clear nodes.
_GENERATION = 0


def _intern(kind: str, name: str | None, children: tuple[Expr, ...]) -> Expr:
    key = (kind, name, *map(id, children))
    ref = _INTERN.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = Expr(kind, name, children)
    if ref is None:
        # The common miss is lock-free: dict.setdefault on a key of strs and
        # ints is atomic under the GIL, so two threads interning the same
        # new shape both receive the single entry.  A plain check-then-insert
        # could let each escape with its own node, silently breaking
        # structural-equality-iff-identity (the provenance server runs its
        # writer in a thread beside client decoders).
        winner = _INTERN.setdefault(key, weakref.ref(node))()
        if winner is node:
            if len(_INTERN) >= _purge_at:
                _purge()
            return node
        if winner is not None:
            return winner
    # The entry is dead.  Replacing it is a check-then-set, so it runs under
    # the lock that every other replacement (and the purge) takes.
    with _INTERN_LOCK:
        ref = _INTERN.get(key)
        winner = ref() if ref is not None else None
        if winner is None:
            _INTERN[key] = weakref.ref(node)
            return node
        return winner


def _purge() -> None:
    """Delete every dead entry, then re-arm for when the table doubles.

    Scans a snapshot without the lock and deletes under it, re-checking
    each entry: a replacement installed meanwhile is live and stays.
    """
    global _purge_at
    dead = [key for key, ref in list(_INTERN.items()) if ref() is None]
    with _INTERN_LOCK:
        for key in dead:
            ref = _INTERN.get(key)
            if ref is not None and ref() is None:
                del _INTERN[key]
        _purge_at = max(_PURGE_FLOOR, 2 * len(_INTERN))


def intern_table_size() -> int:
    """Number of distinct live expression nodes (diagnostics / benches)."""
    return sum(1 for ref in list(_INTERN.values()) if ref() is not None)


def intern_generation() -> int:
    """Current interning generation (bumped by :func:`clear_intern_table`)."""
    return _GENERATION


def clear_intern_table() -> None:
    """Forget every interned node except ``ZERO``.

    Severs identity: expressions created before the call remain valid but
    no longer compare identical to structurally equal expressions created
    after it.  Nothing needs this to release memory (dropped nodes die on
    their own); it exists to exercise the generation contract in isolated
    test processes.

    Bumps the interning generation, which invalidates every
    :class:`repro.core.memo.ExprMemo` on its next use.
    """
    global _GENERATION, _purge_at
    with _INTERN_LOCK:
        _GENERATION += 1
        _INTERN.clear()
        _INTERN[(ZERO_KIND, None)] = weakref.ref(ZERO)
        _purge_at = _PURGE_FLOOR


#: The special element ``0`` (absent tuple / update that did not happen).
ZERO: Expr = Expr(ZERO_KIND, None, ())
_INTERN[(ZERO_KIND, None)] = weakref.ref(ZERO)


def var(name: str) -> Expr:
    """A basic annotation (identifier) such as ``p1`` or ``t_42``."""
    if not isinstance(name, str) or not name:
        raise TypeError(f"annotation name must be a non-empty string, got {name!r}")
    return _intern(VAR, name, ())


# ---------------------------------------------------------------------------
# Smart constructors (zero-related axioms applied eagerly)
# ---------------------------------------------------------------------------


def plus_i(a: Expr, b: Expr) -> Expr:
    """``a +I b``: provenance of inserting a tuple annotated ``a`` by query ``b``."""
    if b.is_zero:
        return a
    if a.is_zero:
        return b
    return _intern(PLUS_I, None, (a, b))


def minus(a: Expr, b: Expr) -> Expr:
    """``a - b``: provenance of deleting a tuple annotated ``a`` by query ``b``."""
    if b.is_zero:
        return a
    if a.is_zero:
        return ZERO
    return _intern(MINUS, None, (a, b))


def plus_m(a: Expr, b: Expr) -> Expr:
    """``a +M b``: tuple annotated ``a`` receives modification contribution ``b``."""
    if b.is_zero:
        return a
    if a.is_zero:
        return b
    return _intern(PLUS_M, None, (a, b))


def times_m(a: Expr, b: Expr) -> Expr:
    """``a *M b``: source annotated ``a`` modified by query annotated ``b``."""
    if a.is_zero or b.is_zero:
        return ZERO
    return _intern(TIMES_M, None, (a, b))


def ssum(terms: Iterable[Expr], dedup: bool = False) -> Expr:
    """``b_0 + ... + b_n``: the disjunction over modification sources.

    Zero terms are dropped and nested sums are flattened (associativity of
    the disjunction; an empty disjunction is ``0``).  With ``dedup=True``
    syntactically identical terms are collapsed, preserving first-occurrence
    order — sound in every Update-Structure shipped with this library (all
    have idempotent ``+``) but *not* applied by default so that the naive
    construction of Section 5.1 stays faithful to the paper.
    """
    flat: list[Expr] = []
    for t in terms:
        if t.is_zero:
            continue
        if t.kind == SUM:
            flat.extend(t.children)
        else:
            flat.append(t)
    if dedup:
        flat = list(dict.fromkeys(flat))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return _intern(SUM, None, tuple(flat))


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------


def postorder(expr: Expr) -> Iterator[Expr]:
    """Iterate over the distinct sub-expressions of ``expr`` in post-order.

    Each distinct (shared) node is yielded exactly once, children before
    parents.  Iterative — safe for arbitrarily deep expressions.
    """
    seen: set[int] = set()
    stack: list[tuple[Expr, bool]] = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in reversed(node.children):
            if id(child) not in seen:
                stack.append((child, False))


def subexpressions(expr: Expr) -> list[Expr]:
    """All distinct sub-expressions of ``expr`` (post-order)."""
    return list(postorder(expr))


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


def size(expr: Expr) -> int:
    """Expanded tree size of ``expr`` (see :meth:`Expr.size`)."""
    if expr._size is not None:
        return expr._size
    for node in postorder(expr):
        if node._size is None:
            if not node.children:
                node._size = 1
            else:
                node._size = 1 + sum(c._size for c in node.children)  # type: ignore[misc]
    assert expr._size is not None
    return expr._size


def dag_size(exprs: Iterable[Expr]) -> int:
    """Distinct nodes across all of ``exprs``: the *stored* provenance size.

    One shared visited set, so a sub-DAG several expressions reference is
    neither re-counted nor re-traversed.  The roots are held for the whole
    call: ``exprs`` may yield transient nodes (``to_expr()`` results), and
    a visited id must not be reused by a node built after its owner died.
    """
    roots = list(exprs)
    seen: set[int] = set()
    stack: list[Expr] = []
    for root in roots:
        if id(root) not in seen:
            stack.append(root)
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(c for c in node.children if id(c) not in seen)
    return len(seen)


def depth(expr: Expr) -> int:
    """Height of the expression tree (a leaf has depth 1)."""
    if expr._depth is not None:
        return expr._depth
    for node in postorder(expr):
        if node._depth is None:
            if not node.children:
                node._depth = 1
            else:
                node._depth = 1 + max(c._depth for c in node.children)  # type: ignore[type-var]
    assert expr._depth is not None
    return expr._depth


def variables(expr: Expr) -> frozenset[str]:
    """Annotation names occurring in ``expr``."""
    out: set[str] = set()
    for node in postorder(expr):
        if node.kind == VAR:
            out.add(node.name)  # type: ignore[arg-type]
    return frozenset(out)


# ---------------------------------------------------------------------------
# Evaluation (specialization into a concrete Update-Structure)
# ---------------------------------------------------------------------------


def evaluate(expr: Expr, structure, env: Mapping[str, object] | Callable[[str], object]):
    """Evaluate ``expr`` in a concrete Update-Structure.

    ``structure`` must provide the operations of Definition 4.1:
    ``plus_i(a, b)``, ``minus(a, b)``, ``plus_m(a, b)``, ``times_m(a, b)``,
    ``plus(a, b)`` and the constant ``zero`` (see
    :class:`repro.semantics.structure.UpdateStructure`).

    ``env`` maps annotation names to structure values; it may be a mapping
    or a callable.  Evaluation memoizes on shared nodes, so evaluating the
    naive construction's exponential expressions stays polynomial in the
    DAG size.

    Raises:
        KeyError: if a variable has no value in ``env``.
    """
    lookup = env if callable(env) else env.__getitem__
    memo: dict[int, object] = {}
    for node in postorder(expr):
        if node.kind == VAR:
            memo[id(node)] = lookup(node.name)
        elif node.kind == ZERO_KIND:
            memo[id(node)] = structure.zero
        elif node.kind == SUM:
            acc = memo[id(node.children[0])]
            for child in node.children[1:]:
                acc = structure.plus(acc, memo[id(child)])
            memo[id(node)] = acc
        else:
            a = memo[id(node.children[0])]
            b = memo[id(node.children[1])]
            if node.kind == PLUS_I:
                memo[id(node)] = structure.plus_i(a, b)
            elif node.kind == MINUS:
                memo[id(node)] = structure.minus(a, b)
            elif node.kind == PLUS_M:
                memo[id(node)] = structure.plus_m(a, b)
            elif node.kind == TIMES_M:
                memo[id(node)] = structure.times_m(a, b)
            else:  # pragma: no cover - exhaustive kinds
                raise AssertionError(f"unknown node kind {node.kind}")
    return memo[id(expr)]


def substitute(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions, rebuilding through smart constructors.

    Variables absent from ``mapping`` are left untouched.  Useful for
    partial specialization, e.g. setting a transaction annotation to ``0``
    (abortion) while keeping tuple annotations symbolic.
    """
    memo: dict[int, Expr] = {}
    for node in postorder(expr):
        if node.kind == VAR:
            memo[id(node)] = mapping.get(node.name, node)  # type: ignore[arg-type]
        elif node.kind == ZERO_KIND:
            memo[id(node)] = node
        elif node.kind == SUM:
            memo[id(node)] = ssum(memo[id(c)] for c in node.children)
        else:
            a = memo[id(node.children[0])]
            b = memo[id(node.children[1])]
            if node.kind == PLUS_I:
                memo[id(node)] = plus_i(a, b)
            elif node.kind == MINUS:
                memo[id(node)] = minus(a, b)
            elif node.kind == PLUS_M:
                memo[id(node)] = plus_m(a, b)
            else:
                memo[id(node)] = times_m(a, b)
    return memo[id(expr)]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def to_infix(expr: Expr) -> str:
    """Render as an infix formula, e.g. ``((p1 +M (p3 *M p)) - p)``."""
    memo: dict[int, str] = {}
    for node in postorder(expr):
        if node.kind == VAR:
            memo[id(node)] = node.name  # type: ignore[assignment]
        elif node.kind == ZERO_KIND:
            memo[id(node)] = "0"
        elif node.kind == SUM:
            memo[id(node)] = "(" + " + ".join(memo[id(c)] for c in node.children) + ")"
        else:
            a = memo[id(node.children[0])]
            b = memo[id(node.children[1])]
            memo[id(node)] = f"({a} {node.kind} {b})"
    return memo[id(expr)]


def to_tree(expr: Expr, indent: str = "  ") -> str:
    """Render as an indented tree, mirroring the paper's Figure 5 drawings."""
    lines: list[str] = []
    stack: list[tuple[Expr, int]] = [(expr, 0)]
    while stack:
        node, level = stack.pop()
        if node.kind == VAR:
            label = node.name or "?"
        elif node.kind == ZERO_KIND:
            label = "0"
        else:
            label = node.kind
        lines.append(f"{indent * level}{label}")
        for child in reversed(node.children):
            stack.append((child, level + 1))
    return "\n".join(lines)
