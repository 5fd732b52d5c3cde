"""Hypothesis strategies shared by the property-based tests."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.expr import ZERO, minus, plus_i, plus_m, ssum, times_m, var
from repro.db.database import Database
from repro.queries.pattern import Pattern
from repro.queries.updates import Delete, Insert, Modify, Transaction

#: Small closed domain: collisions (and therefore interesting interactions
#: between updates) are the norm, not the exception.
VALUES = st.integers(min_value=0, max_value=3)
ARITY = 2
ANNOTATIONS = ("p", "q")

tuple_vars = st.sampled_from(["x1", "x2", "x3"]).map(var)
annotation_vars = st.sampled_from(list(ANNOTATIONS)).map(var)


def construction_exprs(max_updates: int = 5):
    """Expressions the Section 3.1 semantics can actually produce.

    A random update history replayed over a leaf: each step wraps the
    current expression in ``+I p``, ``- p`` or ``+M ((...) *M p)`` where
    the modification sources are themselves construction-shaped.
    """
    leaves = st.one_of(tuple_vars, st.just(ZERO))

    def extend(children):
        base = st.one_of(leaves, children)
        inserted = st.builds(plus_i, base, annotation_vars)
        deleted = st.builds(minus, base, annotation_vars)
        modified = st.builds(
            lambda b, sources, p: plus_m(b, times_m(ssum(sources), p)),
            base,
            st.lists(base, min_size=1, max_size=3),
            annotation_vars,
        )
        return st.one_of(inserted, deleted, modified)

    return st.recursive(leaves, extend, max_leaves=max_updates)


def arbitrary_exprs():
    """Arbitrary UP[X] expressions (not necessarily construction-shaped)."""
    leaves = st.one_of(tuple_vars, annotation_vars, st.just(ZERO))

    def extend(children):
        binary = st.sampled_from([plus_i, minus, plus_m, times_m])
        return st.one_of(
            st.builds(lambda f, a, b: f(a, b), binary, children, children),
            st.lists(children, min_size=1, max_size=3).map(ssum),
        )

    return st.recursive(leaves, extend, max_leaves=12)


patterns = st.builds(
    lambda eq, neq: Pattern(
        ARITY,
        eq=eq,
        neq={i: vals - {eq[i]} if i in eq else vals for i, vals in neq.items()},
    ),
    st.dictionaries(st.integers(0, ARITY - 1), VALUES, max_size=ARITY),
    st.dictionaries(
        st.integers(0, ARITY - 1), st.sets(VALUES, min_size=1, max_size=2), max_size=1
    ),
)

rows = st.tuples(VALUES, VALUES)

inserts = st.builds(lambda row: Insert("R", row), rows)
deletes = st.builds(lambda pattern: Delete("R", pattern), patterns)
modifies = st.builds(
    lambda pattern, assignments: Modify("R", pattern, assignments),
    patterns,
    st.dictionaries(st.integers(0, ARITY - 1), VALUES, min_size=1, max_size=ARITY),
)

queries = st.one_of(inserts, deletes, modifies)


def transactions(name: str = "p", max_queries: int = 5):
    return st.lists(queries, min_size=1, max_size=max_queries).map(
        lambda qs: Transaction(name, qs)
    )


def logs(max_transactions: int = 3, max_queries: int = 4):
    """A list of transactions with distinct annotations t0, t1, ..."""

    def build(query_lists):
        return [Transaction(f"t{i}", batch) for i, batch in enumerate(query_lists)]

    return st.lists(
        st.lists(queries, min_size=1, max_size=max_queries),
        min_size=1,
        max_size=max_transactions,
    ).map(build)


databases = st.sets(rows, min_size=0, max_size=8).map(
    lambda initial: Database.from_rows("R", ["a", "b"], list(initial))
)
