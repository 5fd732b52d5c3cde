"""Standing views: pattern-scoped slices of the support, delta-maintained.

A :class:`StandingView` is a registered ``(relation, pattern)`` pair with
a materialized answer set — ``{row: (expr, live)}`` — kept current by
applying version-stamped :class:`~repro.views.deltas.DeltaBatch` streams
instead of re-reading the relation.  The owning service seeds it through
:meth:`~repro.engine.engine.Engine.match_rows` — the store's pattern
planner, so seeding is index-assisted and O(matched rows), not
O(relation).

The :class:`ViewRegistry` owns the set of standing views for one service
and fans each drained batch out to the views it touches, reporting per
view exactly the deltas that matched — the payload the server pushes to
that view's subscribers.
"""

from __future__ import annotations

from typing import Iterable

from ..queries.pattern import Pattern
from .deltas import DeltaBatch, RowDelta, apply_delta

__all__ = ["StandingView", "ViewRegistry"]


class StandingView:
    """One registered standing pattern with its maintained answer set.

    ``version`` is the snapshot version the answer set reflects: the seed
    version at registration, then the stamp of the last applied batch.
    Batches must be applied in version order (the registry guarantees
    this — there is one drain stream per service).
    """

    __slots__ = ("view_id", "relation", "pattern", "rows", "version")

    def __init__(self, view_id: int, relation: str, pattern: Pattern):
        self.view_id = view_id
        self.relation = relation
        self.pattern = pattern
        self.rows: dict[tuple, tuple] = {}
        self.version = -1

    # -- maintenance ------------------------------------------------------

    def apply(self, batch: DeltaBatch) -> list[RowDelta]:
        """Apply one batch; return the deltas that fell inside this view.

        The version advances to ``batch.version`` even when nothing
        matched — an empty result still means "current as of v".
        """
        matched = [
            delta
            for delta in batch
            if delta.relation == self.relation and self.pattern.matches(delta.row)
        ]
        for delta in matched:
            if delta.kind == "free":
                self.rows.pop(delta.row, None)
            else:
                self.rows[delta.row] = (delta.expr, delta.live)
        self.version = batch.version
        return matched

    def state(self) -> dict[tuple, tuple]:
        """A detached copy of the answer set (row -> (expr, live))."""
        return dict(self.rows)

    def describe(self) -> str:
        return f"{self.relation}[{self.pattern.describe()}]"


class ViewRegistry:
    """All standing views of one service, fanned out from one delta stream."""

    __slots__ = ("_views", "_next_id")

    def __init__(self):
        self._views: dict[int, StandingView] = {}
        self._next_id = 1

    def register(self, relation: str, pattern: Pattern) -> StandingView:
        view = StandingView(self._next_id, relation, pattern)
        self._views[view.view_id] = view
        self._next_id += 1
        return view

    def unregister(self, view_id: int) -> bool:
        return self._views.pop(view_id, None) is not None

    def views(self) -> Iterable[StandingView]:
        return self._views.values()

    def __len__(self) -> int:
        return len(self._views)

    def apply(self, batch: DeltaBatch) -> dict[int, list[RowDelta]]:
        """Advance every view past ``batch``; report who saw what.

        Views that matched nothing still advance their version but are
        omitted from the report — subscribers only hear about batches
        that touched their slice.
        """
        touched: dict[int, list[RowDelta]] = {}
        for view in self._views.values():
            matched = view.apply(batch)
            if matched:
                touched[view.view_id] = matched
        return touched
