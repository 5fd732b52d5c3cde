"""The provenance normal form of Theorem 5.3 as an explicit state machine.

Theorem 5.3 shows that the provenance of every tuple after applying an
annotated transaction ``T^p`` to an ``X``-database can be rewritten into one
of five shapes (``a`` is the tuple's pre-transaction annotation, ``b_i``
source annotations, ``p`` the transaction annotation)::

    (1) a
    (2) a +I p
    (3) a -  p
    (4) a +M ((b_0 + ... + b_n) *M p)
    (5) (a - p) +M ((b_0 + ... + b_n) *M p)

:class:`NormalForm` represents exactly these shapes (``UNTOUCHED``, ``INS``,
``DEL``, ``MOD``, ``DELMOD``) and its transition methods implement the
rewrite rules of Figure 6 in O(1) time per update, which is how the paper's
"Normal form" configuration computes provenance *on-the-fly during query
evaluation* instead of first materializing the exponentially large naive
expression:

* insertion (Rule 1, via axioms 9/10): any shape collapses to ``INS(a)``;
* deletion (Rule 2, via axioms 2/4/7): any shape collapses to ``DEL(a)``;
* a modification source contributes (Rules 3/4/7/8): nothing if it was
  deleted by this very annotation, an *insertion marker* if it was inserted
  by it, its flattened sources if it was itself modified;
* a modification target absorbs contributions (Rules 5/6): an inserted
  tuple absorbs them, otherwise they are appended to the source disjunction.

Sequences of transactions carry *different* annotations; when a tuple in a
shape for annotation ``p`` is touched by a query annotated ``p' != p`` the
shape first *collapses* to ``UNTOUCHED`` with the whole current expression
as the new opaque base — this is what produces the nested expressions of the
paper's Figure 4 and keeps the total size linear in ``|D| + |T|``.
"""

from __future__ import annotations

import enum
from typing import Iterable

from .expr import Expr, ZERO, minus, plus_i, plus_m, ssum, times_m

__all__ = ["Shape", "NormalForm", "Contribution"]


class Shape(enum.Enum):
    """The five normal-form shapes of Theorem 5.3."""

    UNTOUCHED = "untouched"
    INS = "ins"
    DEL = "del"
    MOD = "mod"
    DELMOD = "delmod"


class Contribution:
    """What a modification source passes to its target.

    ``sources`` is the (deduplicated, order-preserving) tuple of expressions
    entering the target's source disjunction; ``inserted`` records that some
    source was freshly inserted *by the same annotation*, in which case the
    target becomes an insertion outright (Rule 4).
    """

    __slots__ = ("sources", "inserted")

    def __init__(self, sources: tuple[Expr, ...] = (), inserted: bool = False):
        self.sources = sources
        self.inserted = inserted

    def merge(self, other: "Contribution") -> "Contribution":
        """Combine contributions of several sources mapping to one target."""
        return Contribution(
            tuple(dict.fromkeys(self.sources + other.sources)),
            self.inserted or other.inserted,
        )

    @property
    def is_empty(self) -> bool:
        return not self.sources and not self.inserted

    def __repr__(self) -> str:
        return f"Contribution(sources={list(map(str, self.sources))}, inserted={self.inserted})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Contribution):
            return NotImplemented
        return self.inserted == other.inserted and set(self.sources) == set(other.sources)

    def __hash__(self) -> int:
        return hash((self.inserted, frozenset(self.sources)))


class NormalForm:
    """A tuple's provenance in one of the five Theorem 5.3 shapes.

    Instances are immutable; transitions return new objects.  ``base`` is
    the opaque pre-transaction annotation (shape 1's whole content),
    ``sources`` the ``b_i`` of shapes 4/5 and ``p`` the annotation variable
    of shapes 2-5 (``None`` for shape 1).
    """

    __slots__ = ("shape", "base", "sources", "p")

    def __init__(
        self,
        shape: Shape,
        base: Expr,
        sources: tuple[Expr, ...] = (),
        p: Expr | None = None,
    ):
        if shape is not Shape.UNTOUCHED:
            if p is None or not p.is_var:
                raise ValueError(f"shape {shape.value} requires a variable annotation, got {p!r}")
        elif p is not None:
            raise ValueError("UNTOUCHED carries no annotation")
        if shape not in (Shape.MOD, Shape.DELMOD) and sources:
            raise ValueError(f"shape {shape.value} carries no sources")
        self.shape = shape
        self.base = base
        self.sources = sources
        self.p = p

    # -- construction -------------------------------------------------------

    @classmethod
    def untouched(cls, expr: Expr) -> "NormalForm":
        """Shape (1): a tuple whose annotation is ``expr`` (possibly ``0``)."""
        return cls(Shape.UNTOUCHED, expr)

    @classmethod
    def absent(cls) -> "NormalForm":
        """A tuple that is not in the database (annotation ``0``)."""
        return cls(Shape.UNTOUCHED, ZERO)

    # -- inspection ---------------------------------------------------------

    def to_expr(self) -> Expr:
        """The UP[X] expression this shape denotes.

        The zero-related axioms are applied by the smart constructors, so
        this already performs the Proposition 5.5 post-processing: e.g. a
        ``MOD`` with base ``0`` renders as ``(b_0 + ... + b_n) *M p``.
        """
        if self.shape is Shape.UNTOUCHED:
            return self.base
        assert self.p is not None
        if self.shape is Shape.INS:
            return plus_i(self.base, self.p)
        if self.shape is Shape.DEL:
            return minus(self.base, self.p)
        contribution = times_m(ssum(self.sources), self.p)
        if self.shape is Shape.MOD:
            return plus_m(self.base, contribution)
        return plus_m(minus(self.base, self.p), contribution)

    def size(self) -> int:
        """Expanded size of the denoted expression."""
        return self.to_expr().size()

    def __repr__(self) -> str:
        return f"NormalForm({self.shape.value}: {self.to_expr()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NormalForm):
            return NotImplemented
        return (
            self.shape is other.shape
            and self.base is other.base
            and self.p is other.p
            and set(self.sources) == set(other.sources)
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.base, self.p, frozenset(self.sources)))

    # -- transitions (Figure 6 rules) ---------------------------------------

    def _collapsed(self, p: Expr) -> "NormalForm":
        """Re-anchor on annotation ``p``.

        Shapes for a different annotation become ``UNTOUCHED`` with the full
        current expression as base — the transaction-boundary collapse that
        nests normal forms across transactions (Figure 4).
        """
        if self.shape is Shape.UNTOUCHED or self.p is p:
            return self
        return NormalForm.untouched(self.to_expr())

    def on_insert(self, p: Expr) -> "NormalForm":
        """The tuple is (re-)inserted by a query annotated ``p`` (Rule 1)."""
        nf = self._collapsed(p)
        return NormalForm(Shape.INS, nf.base, (), p)

    def on_delete(self, p: Expr) -> "NormalForm":
        """The tuple is deleted — or modified away — by ``p`` (Rule 2)."""
        nf = self._collapsed(p)
        return NormalForm(Shape.DEL, nf.base, (), p)

    def contribution(self, p: Expr) -> Contribution:
        """What this tuple passes to a modification target under ``p``.

        Pre-state semantics: call this *before* applying :meth:`on_delete`
        to the source.  Implements Rules 3 (deleted source: nothing),
        4 (inserted source: insertion marker), 7 (modified source: its base
        and flattened sources) and 8 (delete-and-modified source: flattened
        sources only; the ``(a - p)`` spine cancels against ``*M p``).
        """
        if self.shape is Shape.UNTOUCHED or self.p is not p:
            expr = self.to_expr()
            if expr.is_zero:
                return Contribution()
            return Contribution((expr,), False)
        if self.shape is Shape.INS:
            return Contribution((), True)
        if self.shape is Shape.DEL:
            return Contribution()
        if self.shape is Shape.MOD:
            srcs = (self.base,) + self.sources if not self.base.is_zero else self.sources
            return Contribution(tuple(dict.fromkeys(srcs)), False)
        # DELMOD: Rule 8 drops the (a - p) part.
        return Contribution(self.sources, False)

    def absorb(self, contribution: Contribution, p: Expr) -> "NormalForm":
        """The tuple is the target of a modification under ``p``.

        Implements Rules 4 (an inserted source turns the target into an
        insertion), 5 (an inserted target absorbs all contributions) and
        6/7 (source disjunctions of successive modifications factorize).
        """
        nf = self._collapsed(p)
        if contribution.inserted:
            return NormalForm(Shape.INS, nf.base, (), p)
        if not contribution.sources:
            return nf
        if nf.shape is Shape.UNTOUCHED:
            return NormalForm(Shape.MOD, nf.base, contribution.sources, p)
        if nf.shape is Shape.INS:
            return nf
        merged = tuple(dict.fromkeys(nf.sources + contribution.sources))
        if nf.shape is Shape.DEL or nf.shape is Shape.DELMOD:
            return NormalForm(Shape.DELMOD, nf.base, merged, p)
        return NormalForm(Shape.MOD, nf.base, merged, p)

    # -- bounds -------------------------------------------------------------

    def added_size(self) -> int:
        """Nodes this shape adds on top of its base and sources.

        Bounded by a constant plus the number of sources — the per-update
        accounting behind Theorem 5.3's linear size bound.
        """
        return self.to_expr().size() - self.base.size() - sum(s.size() for s in self.sources)


def merge_contributions(contributions: Iterable[Contribution]) -> Contribution:
    """Merge the contributions of all sources mapping to one target tuple."""
    acc = Contribution()
    for c in contributions:
        acc = acc.merge(c)
    return acc
