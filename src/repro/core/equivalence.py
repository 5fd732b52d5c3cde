"""Deciding UP[X] equivalence of provenance expressions.

Three complementary methods, layered from cheap to exact:

1. :func:`equivalent_canonical` — normalize both expressions (Theorem 5.3)
   and compare canonicalized normal forms.  Canonicalization sorts source
   disjunctions and folds the ``(a - p) +M ((a + ...) *M p)`` self-update
   shape into ``a +M (... *M p)``; both are sound in every Update-Structure
   shipped with this library (all are distributive-lattice based, cf.
   Theorem 4.5's ``a + 1 = 1`` and ``a . a = a`` requirements).
2. :func:`equivalent_boolean` — exact equivalence under the Boolean
   Update-Structure (the deletion-propagation semantics of Section 4.1),
   decided with reduced ordered BDDs.  Since the Boolean structure is an
   UP[X] instance, UP[X]-equivalence implies Boolean equivalence; the
   converse direction is what Proposition 3.5's completeness argument
   gives for construction-produced expressions.
3. :func:`find_distinguishing_valuation` — a cheap randomized refuter that
   returns a witness valuation on which the two expressions differ, used
   by property tests to produce readable counterexamples.
"""

from __future__ import annotations

import random
from typing import Mapping

from .expr import (
    Expr,
    MINUS,
    PLUS_I,
    PLUS_M,
    SUM,
    TIMES_M,
    minus,
    plus_i,
    plus_m,
    ssum,
    times_m,
    variables,
)
from .memo import CallMemo, ExprMemo, memoization_enabled
from .normalize import normalize_expr

__all__ = [
    "canonical",
    "equivalent",
    "equivalent_canonical",
    "equivalent_boolean",
    "find_distinguishing_valuation",
    "BoolStructure",
]


class BoolStructure:
    """The Boolean Update-Structure of Section 4.1, self-contained.

    ``+M = +I = + = or``, ``*M = and``, ``a - b = a and not b``, ``0 =
    False``.  Duplicated here (rather than importing
    :mod:`repro.semantics`) so the core package stays dependency-free.
    """

    zero = False

    @staticmethod
    def plus_i(a: bool, b: bool) -> bool:
        return a or b

    @staticmethod
    def plus_m(a: bool, b: bool) -> bool:
        return a or b

    @staticmethod
    def plus(a: bool, b: bool) -> bool:
        return a or b

    @staticmethod
    def times_m(a: bool, b: bool) -> bool:
        return a and b

    @staticmethod
    def minus(a: bool, b: bool) -> bool:
        return a and not b

    @staticmethod
    def equal(a: bool, b: bool) -> bool:
        return a == b


# One persistent rebuild cache per fold flag; the structural sort keys are
# pure functions of a node, so all canonicalizations share one key table.
_CANONICAL_MEMOS = {
    True: ExprMemo("canonical:fold"),
    False: ExprMemo("canonical:nofold"),
}
_KEY_MEMO = ExprMemo("canonical:key")


def canonical(expr: Expr, fold_self_update: bool = True, *, memo: bool | None = None) -> Expr:
    """A canonical representative of ``expr``'s equivalence class.

    Sorts every source disjunction by a structural key and (optionally)
    rewrites ``MOD``/``DELMOD`` shapes whose base occurs among their own
    sources — the shape an identity modification produces — into the
    equivalent plain ``MOD`` shape.  Does **not** normalize; combine with
    :func:`repro.core.normalize.normalize_expr` for full canonization.
    Memoized per node across calls (see :mod:`repro.core.memo`).
    """
    use_memo = memoization_enabled() if memo is None else memo
    if use_memo:
        table = _CANONICAL_MEMOS[bool(fold_self_update)]
        keys = _KEY_MEMO
    else:
        table = CallMemo("canonical:local")
        keys = CallMemo("canonical:key:local")
    # The key table is written through _key(), outside pending_postorder's
    # own sync — bring it to the current generation once, up front.
    keys.sync()
    for node in table.pending_postorder(expr):
        if not node.children:
            new = node
        elif node.kind == SUM:
            children = sorted(
                (table[c] for c in node.children), key=lambda c: _key(c, keys)
            )
            new = ssum(dict.fromkeys(children))
        else:
            a: Expr = table[node.children[0]]  # type: ignore[assignment]
            b: Expr = table[node.children[1]]  # type: ignore[assignment]
            if node.kind == PLUS_I:
                new = plus_i(a, b)
            elif node.kind == MINUS:
                new = minus(a, b)
            elif node.kind == TIMES_M:
                new = times_m(a, b)
            else:
                new = _canonical_plus_m(a, b, fold_self_update)
        table[node] = new
        _key(new, keys)
    return table[expr]  # type: ignore[return-value]


def _key(node: Expr, keys: ExprMemo) -> str:
    """Structural sort key; fills ``keys`` for any yet-unseen sub-node."""
    pending = [node]
    while pending:
        current = pending[-1]
        if current in keys:
            pending.pop()
            continue
        missing = [c for c in current.children if c not in keys]
        if missing:
            pending.extend(missing)
            continue
        pending.pop()
        if current.is_var:
            keys[current] = f"v:{current.name}"
        elif current.is_zero:
            keys[current] = "0"
        else:
            keys[current] = (
                "(" + current.kind + " " + " ".join(keys[c] for c in current.children) + ")"  # type: ignore[misc]
            )
    return keys[node]  # type: ignore[return-value]


def _canonical_plus_m(a: Expr, b: Expr, fold_self_update: bool) -> Expr:
    """Rebuild ``a +M b`` with the self-update fold applied."""
    if not fold_self_update or b.kind != TIMES_M:
        return plus_m(a, b)
    sources, p = b.children
    terms = sources.children if sources.kind == SUM else (sources,)
    base = a
    deleted_spine = a.kind == MINUS and a.children[1] is p
    if deleted_spine:
        base = a.children[0]
    if base not in terms:
        return plus_m(a, b)
    kept = tuple(t for t in terms if t is not base)
    new_rhs = times_m(ssum(kept), p)
    return plus_m(base, new_rhs)


def equivalent_canonical(e1: Expr, e2: Expr, *, memo: bool | None = None) -> bool:
    """Normal-form + canonicalization equivalence (fast, construction-shaped)."""
    return canonical(normalize_expr(e1, memo=memo), memo=memo) is canonical(
        normalize_expr(e2, memo=memo), memo=memo
    )


def equivalent_boolean(e1: Expr, e2: Expr) -> bool:
    """Exact equivalence under the Boolean structure, via ROBDDs."""
    from repro.bdd import Bdd, expr_to_bdd  # local import: keep core standalone

    order = sorted(variables(e1) | variables(e2))
    bdd = Bdd(order)
    return expr_to_bdd(e1, bdd) == expr_to_bdd(e2, bdd)


def equivalent(e1: Expr, e2: Expr, method: str = "auto") -> bool:
    """Equivalence with method selection.

    ``"canonical"`` and ``"boolean"`` force one method; ``"auto"`` tries the
    canonical comparison and falls back to the exact Boolean check when the
    canonical forms differ (sound because canonicalization never merges
    inequivalent expressions, and for construction-produced expressions
    Boolean equivalence coincides with UP[X] equivalence by Prop. 3.5).
    """
    if method == "canonical":
        return equivalent_canonical(e1, e2)
    if method == "boolean":
        return equivalent_boolean(e1, e2)
    if method != "auto":
        raise ValueError(f"unknown equivalence method {method!r}")
    return equivalent_canonical(e1, e2) or equivalent_boolean(e1, e2)


def find_distinguishing_valuation(
    e1: Expr,
    e2: Expr,
    trials: int = 256,
    rng: random.Random | None = None,
) -> Mapping[str, bool] | None:
    """A Boolean valuation on which the expressions evaluate differently.

    Randomized and one-sided: ``None`` means no witness was found in
    ``trials`` attempts, not a proof of equivalence (use
    :func:`equivalent_boolean` for that).
    """
    from .expr import evaluate

    rng = rng or random.Random(0)
    names = sorted(variables(e1) | variables(e2))
    structure = BoolStructure()
    for _ in range(trials):
        env = {name: rng.random() < 0.5 for name in names}
        if evaluate(e1, structure, env) != evaluate(e2, structure, env):
            return env
    return None
