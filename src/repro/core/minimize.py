"""Zero-axiom minimization (Proposition 5.5).

Proposition 5.5: applying the zero-related axioms of Section 3.1 to a
normal-form formula yields a *unique*, minimal formula — either a normal
form, ``0``, or a formula ``(b_0 + ... + b_n) *M p``.

In this library the smart constructors of :mod:`repro.core.expr` apply the
zero axioms eagerly, so expressions built through them are already
minimized.  :func:`minimize` exists for expressions that arrive from
elsewhere (deserialization, raw construction in tests): it rebuilds the
expression bottom-up through the smart constructors, which is exactly a
fixpoint application of the zero axioms.
"""

from __future__ import annotations

from .expr import (
    Expr,
    MINUS,
    PLUS_I,
    PLUS_M,
    SUM,
    TIMES_M,
    VAR,
    ZERO_KIND,
    minus,
    plus_i,
    plus_m,
    ssum,
    times_m,
)
from .memo import CallMemo, ExprMemo, memoization_enabled

__all__ = ["minimize", "is_minimized"]

_MINIMIZE_MEMO = ExprMemo("minimize")


def minimize(expr: Expr, *, memo: bool | None = None) -> Expr:
    """Apply the zero-related axioms to fixpoint.

    Idempotent, and the identity on expressions built through the smart
    constructors.  The result is the unique minimized formula of
    Proposition 5.5.  Memoized per node across calls (see
    :mod:`repro.core.memo`).
    """
    use_memo = memoization_enabled() if memo is None else memo
    table = _MINIMIZE_MEMO if use_memo else CallMemo("minimize:local")
    for node in table.pending_postorder(expr):
        kind = node.kind
        if kind in (VAR, ZERO_KIND):
            table[node] = node
        elif kind == SUM:
            table[node] = ssum(table[c] for c in node.children)  # type: ignore[misc]
        else:
            a: Expr = table[node.children[0]]  # type: ignore[assignment]
            b: Expr = table[node.children[1]]  # type: ignore[assignment]
            if kind == PLUS_I:
                table[node] = plus_i(a, b)
            elif kind == MINUS:
                table[node] = minus(a, b)
            elif kind == PLUS_M:
                table[node] = plus_m(a, b)
            elif kind == TIMES_M:
                table[node] = times_m(a, b)
            else:  # pragma: no cover - exhaustive kinds
                raise AssertionError(f"unknown node kind {kind}")
    return table[expr]  # type: ignore[return-value]


def is_minimized(expr: Expr) -> bool:
    """True if no zero axiom applies anywhere in ``expr``."""
    return minimize(expr) is expr
