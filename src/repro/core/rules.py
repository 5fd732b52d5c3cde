"""The Figure 6 rewrite rules as standalone expression rewrites.

The incremental engine applies these rules through the
:class:`~repro.core.normal_form.NormalForm` state machine; this module
exposes each rule as an explicit ``Expr -> Expr | None`` function so that

* tests can verify every single rule preserves semantics in every concrete
  Update-Structure (the rules are *implied by* the Figure 3 axioms), and
* :func:`normalize_with_rules` provides an independent, purely syntactic
  path to the Theorem 5.3 normal form, cross-checked against the replay
  normalizer of :mod:`repro.core.normalize`.

Naming follows the paper's Figure 6:

=======  ==================================================================
Rule 1   an insertion overrides previous same-annotation updates
Rule 2   a deletion overrides previous same-annotation updates
Rule 3   an update whose sources were all deleted has no effect
Rule 4   an update based on an inserted tuple is an insertion
Rule 5   an inserted target absorbs subsequent modifications
Rule 6   successive modifications of one target factorize
Rule 7   a modified source contributes its base and sources, flattened
Rule 8   a deleted source inside a source disjunction is dropped
=======  ==================================================================
"""

from __future__ import annotations

from typing import Callable, Optional

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
)
from .memo import CallMemo, ExprMemo, memoization_enabled
from .normal_form import NormalForm, Shape

__all__ = [
    "match_normal_form",
    "rule_1_insert_collapse",
    "rule_2_delete_collapse",
    "rule_3_deleted_sources",
    "rule_4_inserted_source",
    "rule_5_insert_absorbs",
    "rule_6_target_factorize",
    "rule_7_source_flatten",
    "rule_8_drop_deleted_source",
    "ALL_RULES",
    "apply_rules_once",
    "normalize_with_rules",
]

Rule = Callable[[Expr], Optional[Expr]]


def match_normal_form(expr: Expr) -> NormalForm | None:
    """Recognize the five Theorem 5.3 shapes syntactically.

    Unlike :func:`repro.core.normalize.normalize` this performs no
    rewriting: it returns ``None`` if the top of ``expr`` is not literally
    one of the five shapes.
    """
    kind = expr.kind
    if not expr.children:
        return NormalForm.untouched(expr)
    if kind == PLUS_I and expr.right.is_var:
        return NormalForm(Shape.INS, expr.left, (), expr.right)
    if kind == MINUS and expr.right.is_var:
        return NormalForm(Shape.DEL, expr.left, (), expr.right)
    if kind == PLUS_M and expr.right.kind == TIMES_M and expr.right.right.is_var:
        p = expr.right.right
        sources = _terms(expr.right.left)
        base = expr.left
        if base.kind == MINUS and base.right is p:
            return NormalForm(Shape.DELMOD, base.left, sources, p)
        return NormalForm(Shape.MOD, base, sources, p)
    if kind == TIMES_M and expr.right.is_var:
        # ``0 +M (s *M p)`` zero-folds to a bare ``s *M p`` (base-0 MOD).
        from .expr import ZERO

        return NormalForm(Shape.MOD, ZERO, _terms(expr.left), expr.right)
    return None


def _terms(expr: Expr) -> tuple[Expr, ...]:
    return expr.children if expr.kind == SUM else (expr,)


def _mod_parts(expr: Expr) -> tuple[Expr, tuple[Expr, ...], Expr] | None:
    """Split ``tau +M ((b_0 + ... + b_n) *M p)`` into (tau, terms, p).

    Also accepts the zero-folded base-0 form ``(b_0 + ... + b_n) *M p``
    (tau = 0), which the smart constructors produce for absent targets.
    """
    if expr.kind == PLUS_M and expr.right.kind == TIMES_M and expr.right.right.is_var:
        return expr.left, _terms(expr.right.left), expr.right.right
    if expr.kind == TIMES_M and expr.right.is_var:
        from .expr import ZERO

        return ZERO, _terms(expr.left), expr.right
    return None


# ---------------------------------------------------------------------------
# The eight rules
# ---------------------------------------------------------------------------


def rule_1_insert_collapse(expr: Expr) -> Expr | None:
    """``tau +I p  =>  a +I p`` where ``a`` is tau's spine base (axioms 9/10)."""
    if expr.kind != PLUS_I or not expr.right.is_var:
        return None
    p = expr.right
    nf = match_normal_form(expr.left)
    if nf is None or nf.shape is Shape.UNTOUCHED or nf.p is not p:
        return None
    return plus_i(nf.base, p)


def rule_2_delete_collapse(expr: Expr) -> Expr | None:
    """``tau - p  =>  a - p`` where ``a`` is tau's spine base (axioms 2/4/7)."""
    if expr.kind != MINUS or not expr.right.is_var:
        return None
    p = expr.right
    nf = match_normal_form(expr.left)
    if nf is None or nf.shape is Shape.UNTOUCHED or nf.p is not p:
        return None
    return minus(nf.base, p)


def rule_3_deleted_sources(expr: Expr) -> Expr | None:
    """``tau +M ((Sum_i (b_i - p)) *M p)  =>  tau`` (axiom 5)."""
    parts = _mod_parts(expr)
    if parts is None:
        return None
    tau, terms, p = parts
    if terms and all(t.kind == MINUS and t.right is p for t in terms):
        return tau
    return None


def rule_4_inserted_source(expr: Expr) -> Expr | None:
    """A source inserted by ``p`` turns the target into ``tau +I p`` (axioms 8/9)."""
    parts = _mod_parts(expr)
    if parts is None:
        return None
    tau, terms, p = parts
    if any(t.kind == PLUS_I and t.right is p for t in terms):
        return plus_i(tau, p)
    return None


def rule_5_insert_absorbs(expr: Expr) -> Expr | None:
    """``(tau_1 +I p) +M (tau_2 *M p)  =>  tau_1 +I p`` (axioms 6/9)."""
    parts = _mod_parts(expr)
    if parts is None:
        return None
    tau, _terms_, p = parts
    if tau.kind == PLUS_I and tau.right is p:
        return tau
    return None


def rule_6_target_factorize(expr: Expr) -> Expr | None:
    """Merge two successive modifications of the same target (axioms 1/3/11).

    ``(tau +M (s_1 *M p)) +M (s_2 *M p)  =>  tau +M ((s_1 + s_2) *M p)``.
    """
    parts = _mod_parts(expr)
    if parts is None:
        return None
    tau, terms2, p = parts
    inner = _mod_parts(tau)
    if inner is None:
        return None
    tau1, terms1, p1 = inner
    if p1 is not p:
        return None
    return plus_m(tau1, times_m(ssum(dict.fromkeys(terms1 + terms2)), p))


def rule_7_source_flatten(expr: Expr) -> Expr | None:
    """Flatten a source that was itself modified under ``p`` (axiom 3).

    A term ``x +M (s' *M p)`` inside the source disjunction is replaced by
    ``x`` together with the terms of ``s'``.
    """
    parts = _mod_parts(expr)
    if parts is None:
        return None
    tau, terms, p = parts
    new_terms: list[Expr] = []
    changed = False
    for t in terms:
        t_parts = _mod_parts(t)
        if t_parts is not None and t_parts[2] is p:
            new_terms.append(t_parts[0])
            new_terms.extend(t_parts[1])
            changed = True
        else:
            new_terms.append(t)
    if not changed:
        return None
    return plus_m(tau, times_m(ssum(dict.fromkeys(new_terms)), p))


def rule_8_drop_deleted_source(expr: Expr) -> Expr | None:
    """Drop ``(b - p)`` terms from a source disjunction (axioms 5/12).

    Only fires when at least one other term remains; the all-deleted case is
    Rule 3.
    """
    parts = _mod_parts(expr)
    if parts is None:
        return None
    tau, terms, p = parts
    kept = tuple(t for t in terms if not (t.kind == MINUS and t.right is p))
    if not kept or len(kept) == len(terms):
        return None
    return plus_m(tau, times_m(ssum(kept), p))


#: All rules, in the order the normalizer tries them.
ALL_RULES: tuple[Rule, ...] = (
    rule_4_inserted_source,
    rule_5_insert_absorbs,
    rule_7_source_flatten,
    rule_8_drop_deleted_source,
    rule_3_deleted_sources,
    rule_6_target_factorize,
    rule_1_insert_collapse,
    rule_2_delete_collapse,
)


def apply_rules_once(expr: Expr) -> Expr | None:
    """Apply the first applicable rule at the root, or ``None``."""
    for rule in ALL_RULES:
        rewritten = rule(expr)
        if rewritten is not None and rewritten is not expr:
            return rewritten
    return None


def _local_fixpoint(expr: Expr, fuel: int = 10_000) -> Expr:
    while fuel > 0:
        rewritten = apply_rules_once(expr)
        if rewritten is None:
            return expr
        expr = rewritten
        fuel -= 1
    raise RuntimeError("rule application did not terminate")  # pragma: no cover


_RULES_MEMO = ExprMemo("normalize_with_rules")


def normalize_with_rules(expr: Expr, *, memo: bool | None = None) -> Expr:
    """Normalize by exhaustive bottom-up rule application.

    An independent implementation of Theorem 5.3 used to cross-check the
    replay normalizer; on construction-produced expressions both agree (see
    ``tests/core/test_normalize.py``).  Memoized per node across calls (see
    :mod:`repro.core.memo`).
    """
    use_memo = memoization_enabled() if memo is None else memo
    table = _RULES_MEMO if use_memo else CallMemo("rules:local")
    for node in table.pending_postorder(expr):
        if not node.children:
            table[node] = node
            continue
        children: tuple[Expr, ...] = tuple(table[c] for c in node.children)  # type: ignore[misc]
        if node.kind == SUM:
            rebuilt = ssum(children)
        elif node.kind == PLUS_I:
            rebuilt = plus_i(*children)
        elif node.kind == MINUS:
            rebuilt = minus(*children)
        elif node.kind == PLUS_M:
            rebuilt = plus_m(*children)
        else:
            rebuilt = times_m(*children)
        table[node] = _local_fixpoint(rebuilt)
    return table[expr]  # type: ignore[return-value]
