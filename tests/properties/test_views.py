"""Property tests: delta-maintained views equal full recompute at every version.

The live-view contract (ISSUE 8), random-tested end to end: seed a
standing view from the initial state, apply a random transaction log one
transaction per version, drain the engine's change sets at each
quiescent point, and the maintained answer set must be
*bit-identical* — same rows, same liveness, and the **identical interned
expression object** per row — to a fresh pattern-filtered capture at the
same version.  Checked across every delta-capable policy, so coalescing
and deferred-normalization flushing both sit under the property.  Keeping
a view changes nothing the engine stores: it ends bit-identical to a twin
engine that ran the same log with no view attached.
"""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.engine.engine import Engine
from repro.engine.oracle import assert_bit_identical
from repro.queries.pattern import Pattern
from repro.views import ViewRegistry

from .strategies import ARITY, databases, logs, patterns

#: Engine flavors under the property: every delta-capable policy.
PLAIN_FLAVORS = {
    "naive": lambda db: Engine(db, policy="naive"),
    "normal_form": lambda db: Engine(db, policy="normal_form"),
    "normal_form_batch": lambda db: Engine(db, policy="normal_form_batch"),
}


def _assert_tracks(view, engine, version):
    """The view equals the pattern-filtered fresh capture — and so does the
    planner-backed seed a subscriber registering now would get."""
    expected = {
        row: payload
        for row, payload in engine.capture()["R"].items()
        if view.pattern.matches(row)
    }
    assert view.version == version
    # Expressions are interned: the delta stream must deliver the very
    # object a capture shows, not a structurally equal reconstruction.
    assert_bit_identical({"R": view.rows}, {"R": expected})
    assert_bit_identical({"R": engine.match_rows("R", view.pattern)}, {"R": expected})


def _check_views_track_recompute(engine, twin, log, pattern):
    engine.attach_deltas()
    registry = ViewRegistry()
    views = [
        registry.register("R", Pattern.any(ARITY)),  # the whole relation
        registry.register("R", pattern),  # a random selective slice
    ]
    for view in views:  # seeded the way the service does
        view.rows, view.version = engine.match_rows("R", view.pattern), 0

    for version, transaction in enumerate(log, start=1):
        engine.apply(transaction)
        twin.apply(transaction)
        # The quiescent point: deferred normalization materializes into
        # this batch, then the drain stamps it with the version.
        registry.apply(engine.drain_deltas(version))
        for view in views:
            _assert_tracks(view, engine, version)
    assert_bit_identical(engine, twin)


@pytest.mark.parametrize("flavor", sorted(PLAIN_FLAVORS))
@given(databases, logs(), patterns)
def test_view_equals_recompute_at_every_version(flavor, db, log, pattern):
    make = PLAIN_FLAVORS[flavor]
    _check_views_track_recompute(make(db), make(db), log, pattern)
