"""``model-purity`` — the Eq. 1-10 analytical models stay pure functions.

The optimizer exhaustively evaluates :mod:`repro.core.performance` and
:mod:`repro.core.resources` over the whole configuration space; those
modules must therefore be pure arithmetic: no I/O, no global mutation,
and **no imports of** ``repro.hw`` (the cycle-level simulator) — the
layering rule that keeps the model-vs-simulator validation meaningful
(``repro.core.validation`` is the single sanctioned bridge).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import Finding, dotted_call_name

#: modules whose every function the optimizer treats as a pure map
PURE_MODULES = {"repro.core.performance", "repro.core.resources"}

_IO_BUILTINS = {"open", "print", "input", "exec", "eval", "breakpoint", "__import__"}
_SIDE_EFFECT_MODULES = {
    "os", "sys", "subprocess", "shutil", "socket", "pathlib", "io",
    "tempfile", "logging",
}


def check(tree: ast.Module, module: str | None) -> Iterator[Finding]:
    """I/O, globals and simulator imports in the pure model modules."""
    if module not in PURE_MODULES:
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield from _check_import(node, alias.name)
        elif isinstance(node, ast.ImportFrom):
            yield from _check_import(node, node.module or "")
        elif isinstance(node, ast.Global):
            yield (
                node,
                f"global statement mutates module state "
                f"({', '.join(node.names)}); model functions must be "
                "pure maps from parameters to numbers",
            )
        elif isinstance(node, ast.Call):
            yield from _check_call(node)


def _check_import(node: ast.AST, module: str) -> Iterator[Finding]:
    if module == "repro.hw" or module.startswith("repro.hw."):
        yield (
            node,
            f"pure model module imports {module}; the analytical "
            "model must never depend on the simulator "
            "(repro.core.validation is the sanctioned bridge)",
        )
    elif module in _SIDE_EFFECT_MODULES:
        yield (
            node,
            f"pure model module imports {module}; Eq. 1-10 code "
            "performs no I/O or process interaction",
        )


def _check_call(node: ast.Call) -> Iterator[Finding]:
    dotted = dotted_call_name(node.func)
    if dotted is None:
        return
    parts = dotted.split(".")
    if len(parts) == 1 and parts[0] in _IO_BUILTINS:
        yield (
            node,
            f"{dotted}() in a pure model module; the optimizer calls "
            "these functions millions of times — no I/O",
        )
    elif len(parts) > 1 and parts[0] in _SIDE_EFFECT_MODULES:
        yield (
            node,
            f"{dotted}() touches the host environment from a pure "
            "model module",
        )
