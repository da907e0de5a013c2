"""The local rules: per-file checks run during summary extraction.

Each rule is a plain function ``check(tree, module)`` yielding
``(node, message)`` findings.  ``module`` is the dotted module name
(``None`` outside the ``repro`` package), which each rule uses to scope
itself.  Rule names, descriptions and severities live in
:data:`repro.lint.graph.rules.CHECK_RULES` with every other rule.
"""

from __future__ import annotations

import ast

from repro.lint.rules import (
    clock_discipline,
    determinism,
    error_taxonomy,
    model_purity,
    unit_mix,
)

#: rule name -> the function that checks one file's tree for it
LOCAL_RULES = {
    "clock-discipline": clock_discipline.check,
    "determinism": determinism.check,
    "error-taxonomy": error_taxonomy.check,
    "model-purity": model_purity.check,
    "unit-mix": unit_mix.check,
}


def run_local_rules(tree: ast.Module, module: str | None) -> list[dict]:
    """Every local finding in one file as ``{"rule", "line", "col", "message"}``."""
    return [
        {
            "rule": name,
            "line": getattr(node, "lineno", 1),
            "col": getattr(node, "col_offset", 0),
            "message": message,
        }
        for name, check in LOCAL_RULES.items()
        for node, message in check(tree, module)
    ]
