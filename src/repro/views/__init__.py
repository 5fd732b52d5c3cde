"""Incremental live views: delta-maintained standing queries.

See :mod:`repro.views.deltas` for the delta vocabulary and codec,
:mod:`repro.views.registry` for standing views, and
``docs/ARCHITECTURE.md`` ("Live views") for the end-to-end push path.
"""

from .deltas import (
    DELTA_KINDS,
    DeltaBatch,
    RowDelta,
    apply_delta,
    apply_delta_batch,
    decode_delta_batch,
    encode_delta_batch,
)
from .registry import StandingView, ViewRegistry

__all__ = [
    "DELTA_KINDS",
    "DeltaBatch",
    "RowDelta",
    "StandingView",
    "ViewRegistry",
    "apply_delta",
    "apply_delta_batch",
    "decode_delta_batch",
    "encode_delta_batch",
]
