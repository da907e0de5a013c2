"""``error-taxonomy`` — every raised error derives from ``BonsaiError``.

The public-API contract (and ``tests/test_public_api.py``) promises that
callers can catch :class:`repro.errors.BonsaiError` and get everything.
Raising a bare builtin (``ValueError``, ``RuntimeError``) in ``repro.*``
silently punches a hole in that promise.  Use the taxonomy:
``ConfigurationError`` (also a ``ValueError``) for parameter validation,
``SimulationError`` for protocol violations, ``LintError`` for linter
misuse, and so on.

``NotImplementedError`` is exempt — it marks abstract methods, not
error conditions callers should handle.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import Finding

_BARE_BUILTINS = {
    "ValueError", "TypeError", "RuntimeError", "Exception", "KeyError",
    "IndexError", "ArithmeticError", "ZeroDivisionError", "OSError",
    "AssertionError", "LookupError", "BaseException",
}


def check(tree: ast.Module, module: str | None) -> Iterator[Finding]:
    """Raises of bare builtin exceptions inside ``repro.*``."""
    if not (module or "").startswith("repro"):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        name = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name in _BARE_BUILTINS:
            yield (
                node,
                f"raises bare {name}; use the repro.errors hierarchy "
                "(ConfigurationError for bad parameters, "
                "SimulationError for protocol violations, ...) so "
                "callers can catch BonsaiError",
            )
