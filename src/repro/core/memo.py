"""Identity-keyed memoization over the hash-consed expression DAG.

Every expression node is interned (:mod:`repro.core.expr`), so *object
identity is structural equality* and the result of any pure function of a
node is valid for as long as the node lives.  The rewrite layer —
:func:`~repro.core.normalize.normalize`,
:func:`~repro.core.rules.normalize_with_rules`,
:func:`~repro.core.equivalence.canonical` and
:func:`~repro.core.minimize.minimize` — exploits this through
:class:`ExprMemo`: a per-function memo whose entries persist *across
calls*, so shared sub-expressions (within one expression, across the rows
of a database, and across successive updates) are rewritten once, ever.

Where the entries live
----------------------

A memo must never keep its key alive: interned nodes die when the last
annotation, snapshot or caller holding them lets go, and a table holding
``node -> value`` would make every rewritten node immortal.  So a
persistent memo stores its value *on the key node*, in the node's
``_memo`` slot, and the entry dies with the node.  A value that would hold
its own key (``minimize(x) is x``, a leaf's untouched normal form) is
stored as a marker and rebuilt on read; otherwise node -> value -> node
would be a cycle only the cyclic collector could break.

Invalidation contract
---------------------

Each memo writes its entries under a *stamp*, a process-unique integer.
Entries under any other stamp are invisible to it, so invalidating a memo
is taking a fresh stamp:

* :func:`repro.core.expr.clear_intern_table` bumps the *interning
  generation*; each memo takes a fresh stamp the first time it is used in
  a newer generation (after a clear, structurally equal nodes no longer
  share identity with their pre-clear builds);
* :func:`clear_memos` takes fresh stamps for every registered memo without
  touching interning — for benchmarks that measure cold caches.  Stale
  entries stay on their nodes until the node is written again or dies.

User code never has to invalidate anything by hand.  The global switch
(:func:`set_memoization`, :func:`memoization` context manager) lets
benchmarks compare cached against uncached rewriting; with memoization
disabled the rewrite functions fall back to per-call :class:`CallMemo`
tables and behave exactly like the pre-memoization implementation.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from .expr import Expr, intern_generation

__all__ = [
    "CallMemo",
    "ExprMemo",
    "MemoStats",
    "memoization",
    "memoization_enabled",
    "set_memoization",
    "clear_memos",
    "memo_stats",
]


_ENABLED = True

#: Every persistent (registered) memo, for global stats / clearing.
_REGISTRY: list["ExprMemo"] = []

_STAMPS = itertools.count(1)
#: The stamp each memo currently writes under; any other key on a node's
#: ``_memo`` dict is stale.
_CURRENT_STAMPS: set[int] = set()

#: Stored in place of a value that is its own key.
_SELF = object()


def memoization_enabled() -> bool:
    """True if the rewrite functions consult their persistent memos."""
    return _ENABLED


def set_memoization(enabled: bool) -> bool:
    """Globally enable/disable rewrite memoization; returns the old value."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


@contextmanager
def memoization(enabled: bool):
    """Context manager form of :func:`set_memoization`."""
    previous = set_memoization(enabled)
    try:
        yield
    finally:
        set_memoization(previous)


def clear_memos() -> None:
    """Invalidate every registered memo (counts as an invalidation)."""
    for memo in _REGISTRY:
        memo.clear()


def memo_stats() -> dict[str, "MemoStats"]:
    """Per-memo statistics of every registered memo, keyed by name."""
    return {memo.name: memo.stats() for memo in _REGISTRY}


@dataclass(frozen=True)
class MemoStats:
    """Counters of one :class:`ExprMemo` (cumulative across generations)."""

    name: str
    #: values stored since the last invalidation (including entries whose
    #: node has died since: they are gone, but were written).
    entries: int
    hits: int
    misses: int
    invalidations: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ExprMemo:
    """A cache of one pure function of expressions, stored on the nodes.

    Mapping-style access is keyed by the node itself (``memo[node]``); the
    value sits in ``node._memo`` under this memo's current stamp, so a
    lookup never hashes expression structure and never pins the node.

    ``register=False`` creates a memo that does not appear in
    :func:`memo_stats` and is not touched by :func:`clear_memos`.
    """

    __slots__ = ("name", "hits", "misses", "invalidations", "entries", "_stamp", "_generation")

    def __init__(self, name: str, register: bool = True):
        self.name = name
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.entries = 0
        self._stamp = next(_STAMPS)
        _CURRENT_STAMPS.add(self._stamp)
        self._generation = intern_generation()
        if register:
            _REGISTRY.append(self)

    # -- invalidation ---------------------------------------------------------

    def sync(self) -> None:
        """Invalidate first if the interning generation moved on.

        Every public rewrite entry point must sync once before touching the
        memo; the per-node mapping operations below deliberately skip the
        generation check — a rewrite is single-threaded and
        ``clear_intern_table()`` cannot run between two node accesses of
        one call.  (:meth:`pending_postorder` syncs on first iteration.)
        """
        generation = intern_generation()
        if generation != self._generation:
            self.clear()

    def clear(self) -> None:
        if self.entries:
            self.invalidations += 1
        self.entries = 0
        _CURRENT_STAMPS.discard(self._stamp)
        self._stamp = next(_STAMPS)
        _CURRENT_STAMPS.add(self._stamp)
        self._generation = intern_generation()

    # -- mapping interface (non-counting, non-syncing; hot path) --------------

    def __contains__(self, node: Expr) -> bool:
        memo = node._memo
        return memo is not None and self._stamp in memo

    def __getitem__(self, node: Expr) -> object:
        value = node._memo[self._stamp]  # type: ignore[index]
        return node if value is _SELF else value

    def __setitem__(self, node: Expr, value: object) -> None:
        memo = node._memo
        if memo is None:
            memo = node._memo = {}
        else:
            # Only a node that already carries entries can carry stale ones.
            for stamp in [s for s in memo if s not in _CURRENT_STAMPS]:
                del memo[stamp]
        memo[self._stamp] = _SELF if value is node else value
        self.entries += 1

    def __len__(self) -> int:
        self.sync()
        return self.entries

    # -- the traversal the rewrite functions share ----------------------------

    def pending_postorder(self, expr: Expr) -> Iterator[Expr]:
        """Distinct uncached sub-nodes of ``expr``, children before parents.

        Prunes below cached nodes: a memoized sub-expression is a finished
        unit of work whose children need not be revisited.  Counts one hit
        per pruned (cached) node encountered and one miss per node yielded;
        the caller must store a value for every yielded node before asking
        for the next (parents consult their children's entries).
        """
        self.sync()
        seen: set[int] = set()
        stack: list[tuple[Expr, bool]] = [(expr, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                self.misses += 1
                yield node
                continue
            key = id(node)
            if key in seen:
                continue
            seen.add(key)
            if node in self:
                self.hits += 1
                continue
            stack.append((node, True))
            for child in reversed(node.children):
                if id(child) not in seen:
                    stack.append((child, False))

    # -- diagnostics ----------------------------------------------------------

    def stats(self) -> MemoStats:
        self.sync()
        return MemoStats(
            name=self.name,
            entries=self.entries,
            hits=self.hits,
            misses=self.misses,
            invalidations=self.invalidations,
        )

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"{type(self).__name__}({self.name!r}, entries={s.entries}, hits={s.hits}, "
            f"misses={s.misses}, invalidations={s.invalidations})"
        )


class CallMemo(ExprMemo):
    """A table for one call (the uncached fallback path), never registered.

    Its entries live in the table, pinning their nodes, and die with it —
    nothing is written onto the nodes.
    """

    __slots__ = ("_table",)

    def __init__(self, name: str):
        super().__init__(name, register=False)
        _CURRENT_STAMPS.discard(self._stamp)  # never writes under it
        self._table: dict[int, tuple[Expr, object]] = {}

    def __contains__(self, node: Expr) -> bool:
        return id(node) in self._table

    def __getitem__(self, node: Expr) -> object:
        return self._table[id(node)][1]

    def __setitem__(self, node: Expr, value: object) -> None:
        self._table[id(node)] = (node, value)
        self.entries += 1
