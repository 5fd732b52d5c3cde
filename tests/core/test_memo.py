"""The memoized rewrite engine: hits, sharing, and the invalidation contract.

The ``clear_intern_table()`` tests run in a subprocess: clearing the intern
table severs identity between pre- and post-clear expressions, and other
test modules hold expressions at module scope for the whole session.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
import weakref

import pytest

from ..conftest import subprocess_env

from repro.core import expr as E
from repro.core.equivalence import canonical
from repro.core.memo import (
    ExprMemo,
    clear_memos,
    memo_stats,
    memoization,
    memoization_enabled,
    set_memoization,
)
from repro.core.minimize import minimize
from repro.core.normalize import _NORMALIZE_MEMO, normalize, normalize_expr
from repro.core.rules import normalize_with_rules


@pytest.fixture(autouse=True)
def fresh_memos():
    """Each test starts from empty tables and ends with memoization on."""
    clear_memos()
    set_memoization(True)
    yield
    set_memoization(True)
    clear_memos()


def naive_chain(n: int, base: str = "x") -> E.Expr:
    """An n-update naive construction chain over one tuple annotation."""
    expr = E.var(base)
    for i in range(n):
        p = E.var(f"p{i}")
        if i % 3 == 0:
            expr = E.plus_i(expr, p)
        elif i % 3 == 1:
            expr = E.minus(expr, p)
        else:
            expr = E.plus_m(expr, E.times_m(expr, p))
    return expr


# ---------------------------------------------------------------------------
# Cache-hit behavior
# ---------------------------------------------------------------------------


def test_repeat_normalization_is_a_pure_hit():
    expr = naive_chain(9)
    first = normalize(expr)
    hits, misses = _NORMALIZE_MEMO.hits, _NORMALIZE_MEMO.misses
    second = normalize(expr)
    assert second is first
    assert _NORMALIZE_MEMO.hits == hits + 1
    assert _NORMALIZE_MEMO.misses == misses


def test_shared_subexpressions_are_normalized_once():
    base = naive_chain(6)
    normalize(base)
    misses = _NORMALIZE_MEMO.misses
    # Layer one more update on the shared base: only the new nodes miss.
    extended = E.minus(base, E.var("q"))
    normalize(extended)
    assert _NORMALIZE_MEMO.misses == misses + 2  # the new MINUS node and var q
    assert _NORMALIZE_MEMO.hits >= 1  # the shared base was pruned, not re-walked


def test_sharing_across_sibling_expressions():
    base = naive_chain(6)
    left = E.plus_i(base, E.var("q"))
    right = E.minus(base, E.var("r"))
    normalize(left)
    misses = _NORMALIZE_MEMO.misses
    normalize(right)
    # Only right's two fresh nodes are computed; base comes from the table.
    assert _NORMALIZE_MEMO.misses == misses + 2


def test_all_rewrites_agree_with_their_uncached_selves():
    for n in (1, 4, 11):
        expr = naive_chain(n)
        assert normalize(expr, memo=True) == normalize(expr, memo=False)
        assert normalize_with_rules(expr, memo=True) is normalize_with_rules(expr, memo=False)
        assert minimize(expr, memo=True) is minimize(expr, memo=False)
        assert canonical(expr, memo=True) is canonical(expr, memo=False)
        assert canonical(expr, False, memo=True) is canonical(expr, False, memo=False)


# ---------------------------------------------------------------------------
# Invalidation under clear_intern_table() (subprocess: severs identities)
# ---------------------------------------------------------------------------


def run_isolated(body: str) -> None:
    """Run ``body`` in a fresh interpreter with this repro on the path."""
    preamble = textwrap.dedent(
        """
        from repro.core import expr as E
        from repro.core.normalize import _NORMALIZE_MEMO, normalize, normalize_expr


        def naive_chain(n, base="x"):
            expr = E.var(base)
            for i in range(n):
                p = E.var(f"p{i}")
                if i % 3 == 0:
                    expr = E.plus_i(expr, p)
                elif i % 3 == 1:
                    expr = E.minus(expr, p)
                else:
                    expr = E.plus_m(expr, E.times_m(expr, p))
            return expr
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", preamble + textwrap.dedent(body)],
        env=subprocess_env(),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_clear_intern_table_invalidates_memos():
    run_isolated(
        """
        expr = naive_chain(5)
        nf_before = normalize(expr)
        assert len(_NORMALIZE_MEMO) > 0
        generation = E.intern_generation()

        E.clear_intern_table()
        assert E.intern_generation() == generation + 1

        rebuilt = naive_chain(5)  # structurally equal, new identities
        nf_after = normalize(rebuilt)
        # The stale table must not have answered: the result renders the
        # same but is built from post-clear nodes only.
        assert str(nf_after.to_expr()) == str(nf_before.to_expr())
        assert nf_after.to_expr() is not nf_before.to_expr()
        assert _NORMALIZE_MEMO.stats().invalidations >= 1
        """
    )


def test_post_clear_results_use_post_clear_identities():
    run_isolated(
        """
        expr = naive_chain(4)
        normalize_expr(expr)
        E.clear_intern_table()
        rebuilt = naive_chain(4)
        result = normalize_expr(rebuilt)
        # The normalized expression must share the *new* interning world:
        # rebuilding it through the constructors yields the identical object.
        again = normalize_expr(naive_chain(4))
        assert result is again
        """
    )


def test_memoized_nodes_still_die_after_del():
    """A memo never keeps its key alive, not even through its own value.

    The chain's normal form lives on its nodes; a leaf normalizes to
    ``UNTOUCHED(leaf)`` and minimizes to itself — values holding their own
    key, stored as a marker.  Dropping the last reference must free both
    by reference counting alone (no cyclic collection).
    """
    chain = naive_chain(7, base="mortal_x")
    leaf = E.var("mortal_leaf")
    for rewrite in (normalize, normalize_with_rules, minimize, canonical):
        rewrite(chain)
        rewrite(leaf)
    assert normalize(leaf) == normalize(leaf, memo=False)
    refs = [weakref.ref(chain), weakref.ref(leaf)]
    del chain, leaf
    assert [ref() for ref in refs] == [None, None]


def test_explicit_clear_memos_empties_tables():
    normalize(naive_chain(5))
    assert len(_NORMALIZE_MEMO) > 0
    clear_memos()
    assert len(_NORMALIZE_MEMO) == 0


# ---------------------------------------------------------------------------
# The global switch and stats surface
# ---------------------------------------------------------------------------


def test_memoization_switch_round_trips():
    assert memoization_enabled()
    with memoization(False):
        assert not memoization_enabled()
        expr = naive_chain(3)
        normalize(expr)
        assert len(_NORMALIZE_MEMO) == 0  # disabled: persistent table untouched
    assert memoization_enabled()


def test_memo_stats_reports_all_registered_tables():
    stats = memo_stats()
    for name in (
        "normalize",
        "normalize_with_rules",
        "minimize",
        "canonical:fold",
        "canonical:nofold",
        "canonical:key",
    ):
        assert name in stats
    expr = naive_chain(4)
    normalize(expr)
    assert memo_stats()["normalize"].entries > 0
    assert 0.0 <= memo_stats()["normalize"].hit_rate <= 1.0


def test_detached_memo_not_registered():
    before = set(memo_stats())
    ExprMemo("scratch", register=False)
    assert set(memo_stats()) == before
