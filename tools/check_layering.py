#!/usr/bin/env python
"""Fail when code outside the engine classes switches on backend type or
reaches into an engine's private state.

Every backend answers one quiescent-point contract (``docs/ARCHITECTURE.md``,
"Engine contract"), so outside ``src/repro/engine/`` and ``wal/engine.py``
nothing may:

* test ``isinstance(x, JournaledEngine)`` (also inside a tuple of types)
  — ask the contract instead;
* read or write an underscore attribute of an engine (``engine._backend``,
  ``self.engine._rows_at_checkpoint``, ...);
* ``getattr`` its way to engine or executor internals by name
  (``getattr(engine, "journal", None)``, ``getattr(engine.executor,
  "_tuple_vars", {})``, ...).

"An engine" is recognised syntactically: a name or attribute whose last
component is ``engine``/``*_engine`` (``self`` excluded), or its
``.executor``.  The check walks the AST, so strings and comments never trip it.

Usage:  python tools/check_layering.py [src-root]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

BACKEND_CLASSES = {"JournaledEngine"}
#: attribute names no caller may ``getattr`` off an engine or its executor
#: (any underscore name is banned as well).
REACH_THROUGHS = {"executor", "store", "journal", "checkpoints", "stores_expressions"}
#: files (relative to the package root) that *are* the engine classes.
ENGINE_MODULES = ("engine/", "wal/engine.py")


def _last_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_engine(node: ast.expr) -> bool:
    name = _last_name(node)
    return name is not None and (name == "engine" or name.endswith("_engine"))


def _is_engine_or_executor(node: ast.expr) -> bool:
    if _is_engine(node):
        return True
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "executor"
        and _is_engine(node.value)
    )


def violations(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "isinstance" and len(node.args) == 2:
                types = node.args[1]
                names = {
                    _last_name(t)
                    for t in (types.elts if isinstance(types, ast.Tuple) else [types])
                }
                for name in sorted(names & BACKEND_CLASSES):
                    found.append((node.lineno, f"isinstance(_, {name}) backend switch"))
            elif (
                node.func.id == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
                and _is_engine_or_executor(node.args[0])
            ):
                attr = node.args[1].value
                if attr in REACH_THROUGHS or attr.startswith("_"):
                    found.append((node.lineno, f"getattr(<engine>, {attr!r}) reach-through"))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and _is_engine(node.value)
        ):
            found.append((node.lineno, f"<engine>.{node.attr} private access"))
    return sorted(found)


def main(argv: list[str]) -> int:
    root = (
        Path(argv[1])
        if len(argv) > 1
        else Path(__file__).resolve().parent.parent / "src" / "repro"
    )
    files = [
        path
        for path in sorted(root.rglob("*.py"))
        if not path.relative_to(root).as_posix().startswith(ENGINE_MODULES)
    ]
    total = 0
    for path in files:
        for lineno, message in violations(ast.parse(path.read_text(), str(path))):
            print(f"LAYERING  {path.relative_to(root)}:{lineno}: {message}")
            total += 1
    print(f"checked {len(files)} modules outside the engine classes: {total} violations")
    return 1 if total else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
