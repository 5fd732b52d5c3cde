"""Rewriting construction-produced expressions into normal form.

Theorem 5.3 states that every provenance expression obtained by applying a
sequence of hyperplane updates to an ``X``-database has an equivalent normal
form.  The incremental engine (:mod:`repro.engine`) never materializes the
naive expression, but for testing, for migrating stored provenance, and to
exhibit the theorem directly we also provide :func:`normalize`, which maps a
*naively constructed* expression to the :class:`~repro.core.normal_form.NormalForm`
the incremental computation would have produced.

The algorithm replays the update history that the expression records.  The
Section 3.1 construction only ever produces expressions of the grammar ::

    e ::= x | 0 | (e +I p) | (e - p) | (e +M (s *M p))
    s ::= e | e + ... + e

with ``p`` a query-annotation variable, and each outermost operator is the
*latest* update applied to the tuple.  We therefore walk the expression
bottom-up and push every recorded update through the normal-form state
machine.  Sub-expressions outside this grammar (hand-built formulas) are
treated as opaque bases, which keeps the function total.

The walk is iterative: naive chains are routinely deeper than Python's
recursion limit (that is precisely Proposition 5.1's point).
"""

from __future__ import annotations

from .expr import Expr, MINUS, PLUS_I, PLUS_M, SUM, TIMES_M, VAR, ZERO_KIND
from .memo import CallMemo, ExprMemo, memoization_enabled
from .normal_form import Contribution, NormalForm, Shape, merge_contributions

__all__ = ["normalize", "normalize_expr"]

#: Persistent node -> normal form memo; see repro.core.memo for the
#: invalidation contract.  An ``UNTOUCHED`` shape is stored as its bare
#: base expression: leaves, sums and opaque nodes normalize to
#: ``UNTOUCHED(node)``, and storing the node itself lets the memo keep it
#: as a self-marker instead of a value that pins its own key.
_NORMALIZE_MEMO = ExprMemo("normalize")


def normalize(expr: Expr, *, memo: bool | None = None) -> NormalForm:
    """Normal form of a construction-produced expression (Theorem 5.3).

    Equivalence guarantee: for every expression generated by the Section 3.1
    update semantics, ``normalize(e).to_expr()`` is UP[X]-equivalent to
    ``e`` (the rewrite only applies the Figure 6 rules, each of which is
    implied by the Figure 3 axioms).  For arbitrary expressions the function
    degrades gracefully to ``NormalForm.untouched(e)``.

    Results are memoized per node across calls (``memo=None`` follows the
    global :func:`repro.core.memo.memoization_enabled` switch), so
    re-normalizing after an update only rewrites the new outer layers.
    """
    use_memo = memoization_enabled() if memo is None else memo
    table = _NORMALIZE_MEMO if use_memo else CallMemo("normalize:local")
    for node in table.pending_postorder(expr):
        nf = _normalize_node(node, table)
        table[node] = nf.base if nf.shape is Shape.UNTOUCHED else nf
    return _cached(table, expr)


def normalize_expr(expr: Expr, *, memo: bool | None = None) -> Expr:
    """Convenience wrapper returning the normalized expression itself."""
    return normalize(expr, memo=memo).to_expr()


def _cached(memo: ExprMemo, node: Expr) -> NormalForm:
    """The memoized normal form of ``node`` (an ``UNTOUCHED`` one rebuilt)."""
    value = memo[node]
    return NormalForm.untouched(value) if isinstance(value, Expr) else value  # type: ignore[return-value]


def _normalize_node(node: Expr, memo: ExprMemo) -> NormalForm:
    kind = node.kind
    if kind in (VAR, ZERO_KIND):
        return NormalForm.untouched(node)
    if kind == PLUS_I:
        base, p = node.children
        if p.is_var:
            return _cached(memo, base).on_insert(p)
        return NormalForm.untouched(node)
    if kind == MINUS:
        base, p = node.children
        if p.is_var:
            return _cached(memo, base).on_delete(p)
        return NormalForm.untouched(node)
    if kind == PLUS_M:
        base, rhs = node.children
        if rhs.kind == TIMES_M and rhs.children[1].is_var:
            sources, p = rhs.children
            terms = sources.children if sources.kind == SUM else (sources,)
            contribution = merge_contributions(
                _source_contribution(term, p, memo) for term in terms
            )
            return _cached(memo, base).absorb(contribution, p)
        return NormalForm.untouched(node)
    if kind == TIMES_M and node.children[1].is_var:
        # ``0 +M (s *M p)`` zero-folds to a bare ``s *M p``: a modification
        # whose target was absent (base 0).
        sources, p = node.children
        terms = sources.children if sources.kind == SUM else (sources,)
        contribution = merge_contributions(_source_contribution(term, p, memo) for term in terms)
        return NormalForm.absent().absorb(contribution, p)
    # Remaining SUM / TIMES_M nodes are consumed by the PLUS_M case above;
    # if they appear elsewhere the expression is not construction-shaped.
    return NormalForm.untouched(node)


def _source_contribution(term: Expr, p: Expr, memo: ExprMemo) -> Contribution:
    """Contribution of one source term of a modification under ``p``."""
    return _cached(memo, term).contribution(p)
