"""Serialization and persistence: the expression codec, sqlite snapshots, CSV."""

from .csvio import dump_csv, load_csv
from .exprjson import expr_from_dict, expr_to_dict
from .snapshot import (
    AnnotatedSnapshot,
    load_snapshot,
    restore_executor,
    save_snapshot,
    store_from_snapshot,
)

__all__ = [
    "AnnotatedSnapshot",
    "dump_csv",
    "expr_from_dict",
    "expr_to_dict",
    "load_csv",
    "load_snapshot",
    "restore_executor",
    "save_snapshot",
    "store_from_snapshot",
]
