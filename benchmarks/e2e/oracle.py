"""The correctness oracle: served state must be bit-identical to direct replay.

Connections own disjoint relations, so any interleaving the server admitted
leaves the same final state as replaying each connection's sent prefix, in
order, through a direct in-process ``Engine``.  "Bit-identical" is the repo's
keel: same rows, same liveness, and — because client decoding re-interns
every expression in *this* process, where the oracle engine also runs — the
very same interned annotation objects.
"""

from __future__ import annotations

from repro.engine.engine import Engine

from .workloads import ConnectionStream, Spec, empty_database

__all__ = ["OracleMismatch", "check_rows_identical", "check_states_identical", "replay"]

State = dict[str, dict[tuple, tuple[object, bool]]]


class OracleMismatch(AssertionError):
    """A served observation disagrees with the reference."""


def replay(spec: Spec, streams: list[ConnectionStream]) -> State:
    """Replay every connection's sent prefix through a direct engine."""
    engine = Engine(empty_database(spec), policy="normal_form_batch")
    for stream in streams:
        engine.apply_batch(stream.sent)
    return {
        name: {row: (expr, live) for row, expr, live in engine.provenance(name)}
        for name in spec.relations
    }


def check_states_identical(label: str, observed: State, reference: State) -> None:
    """Raise :class:`OracleMismatch` unless the two states are bit-identical."""
    if observed.keys() != reference.keys():
        raise OracleMismatch(f"{label}: relations {sorted(observed)} != {sorted(reference)}")
    for name, rows in reference.items():
        check_rows_identical(f"{label}: {name}", observed[name], rows)


def check_rows_identical(label: str, observed: dict, reference: dict) -> None:
    if observed.keys() != reference.keys():
        missing = len(reference.keys() - observed.keys())
        extra = len(observed.keys() - reference.keys())
        raise OracleMismatch(f"{label}: {missing} rows missing, {extra} unexpected")
    for row, (expr, live) in reference.items():
        got_expr, got_live = observed[row]
        if got_live != live:
            raise OracleMismatch(f"{label}: row {row!r} liveness {got_live} != {live}")
        if got_expr is not expr:
            raise OracleMismatch(
                f"{label}: row {row!r} annotation is not the reference's interned "
                f"object ({got_expr} vs {expr})"
            )
