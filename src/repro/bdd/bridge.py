"""Evaluating UP[X] expressions to BDDs under the Boolean structure.

The Boolean Update-Structure (Section 4.1) interprets ``+I``/``+M``/``+``
as disjunction, ``*M`` as conjunction and ``a - b`` as ``a and not b``.
Mapping each basic annotation to a BDD variable turns a provenance
expression into a canonical Boolean function: equality of BDD nodes is
exact Boolean equivalence, the ground truth behind Proposition 3.5 tests
and behind symbolic deletion-propagation (restricting variables instead of
re-running transactions).
"""

from __future__ import annotations

from repro.core.expr import Expr, MINUS, PLUS_I, PLUS_M, SUM, TIMES_M, VAR, ZERO_KIND, postorder

from .bdd import Bdd

__all__ = ["expr_to_bdd"]


def expr_to_bdd(expr: Expr, bdd: Bdd) -> int:
    """The BDD of ``expr`` under the Boolean Update-Structure."""
    # Keyed by id: ``expr`` pins every node postorder yields for the call.
    memo: dict[int, int] = {}
    for node in postorder(expr):
        kind = node.kind
        if kind == VAR:
            memo[id(node)] = bdd.var(node.name)  # type: ignore[arg-type]
        elif kind == ZERO_KIND:
            memo[id(node)] = bdd.FALSE
        elif kind == SUM:
            memo[id(node)] = bdd.disjoin(memo[id(c)] for c in node.children)
        else:
            a = memo[id(node.children[0])]
            b = memo[id(node.children[1])]
            if kind in (PLUS_I, PLUS_M):
                memo[id(node)] = bdd.apply_or(a, b)
            elif kind == TIMES_M:
                memo[id(node)] = bdd.apply_and(a, b)
            elif kind == MINUS:
                memo[id(node)] = bdd.apply_diff(a, b)
            else:  # pragma: no cover - exhaustive kinds
                raise AssertionError(f"unknown node kind {kind}")
    return memo[id(expr)]
