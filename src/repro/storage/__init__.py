"""Serialization: the expression codec, the snapshot value, CSV."""

from .csvio import dump_csv, load_csv
from .exprjson import expr_from_dict, expr_to_dict
from .snapshot import Capture, Snapshot

__all__ = [
    "Capture",
    "Snapshot",
    "dump_csv",
    "expr_from_dict",
    "expr_to_dict",
    "load_csv",
]
