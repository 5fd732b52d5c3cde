"""The bit-identity oracle: the repo's keel, stated once.

Two backends agree when their captures —
:meth:`~repro.engine.engine.Engine.capture`, ``{relation: {row:
(expression, live)}}`` — hold the same relations, the same rows, the same
liveness, and annotations that are the *same interned objects* (``is``,
not ``==``: hash-consing makes equal expressions identical, even after a
wire round-trip through a re-interning decoder).  The vanilla policy
captures ``None`` annotations, which are identical to each other.

Either side may be an engine of any backend or an already-taken capture
(e.g. a client's decoded ``state()``).
"""

from __future__ import annotations

from typing import Mapping

__all__ = ["assert_bit_identical", "bit_identical"]


def _first_difference(a, b) -> str | None:
    """Where ``a`` and ``b`` first differ, or ``None`` if bit-identical."""
    a, b = (side if isinstance(side, Mapping) else side.capture() for side in (a, b))
    if a.keys() != b.keys():
        return f"relations differ: {sorted(a)} vs {sorted(b)}"
    for name, rows in a.items():
        others = b[name]
        if rows.keys() != others.keys():
            return f"{name}: row sets differ on {sorted(rows.keys() ^ others.keys(), key=repr)}"
        for row, (ann, live) in rows.items():
            other_ann, other_live = others[row]
            if live != other_live:
                return f"{name}{row}: live {live} vs {other_live}"
            if ann is not other_ann:
                return f"{name}{row}: annotation {ann} is not {other_ann}"
    return None


def bit_identical(a, b) -> bool:
    return _first_difference(a, b) is None


def assert_bit_identical(a, b) -> None:
    difference = _first_difference(a, b)
    if difference is not None:
        raise AssertionError(difference)
