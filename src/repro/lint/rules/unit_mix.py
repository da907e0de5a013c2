"""``unit-mix`` — keep decimal and binary byte units apart, and named.

The repo's unit contract (:mod:`repro.units`) is decimal GB for
bandwidths and array sizes, binary KiB/MiB for on-chip quantities.  Two
failure modes rot that contract:

* an arithmetic expression that *mixes* the two families (``2**30 *
  10**7`` — is that bytes-decimal or bytes-binary?), and
* magic power-of-ten / power-of-two literals where a ``repro.units``
  name exists (``8 * 10**9`` instead of ``8 * GB``).

The mixing check runs everywhere; the magic-literal check only inside
the ``repro`` package, because benchmarks legitimately use numeric
literals as key ranges (``randrange(1, 10**9)`` is a key bound, not a
byte count).
"""

# bonsai-lint: disable-file=unit-mix -- this module defines the literal
# tables the rule matches against; they cannot be written as unit names.

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import Finding, parent_map

DECIMAL_NAMES = {"KB", "MB", "GB", "TB", "PB"}
BINARY_NAMES = {"KiB", "MiB", "GiB", "TiB"}

#: exponents of 10**k / 2**k that have a repro.units name
DECIMAL_POWERS = {3: "KB", 6: "MB", 9: "GB", 12: "TB", 15: "PB"}
BINARY_POWERS = {10: "KiB", 20: "MiB", 30: "GiB", 40: "TiB"}

#: literal values that have a repro.units name (1000/1024 are excluded:
#: they are overwhelmingly counts, not byte quantities)
INT_LITERALS = {
    10**6: "MB", 10**9: "GB", 10**12: "TB", 10**15: "PB",
    2**20: "MiB", 2**30: "GiB", 2**40: "TiB",
}
FLOAT_LITERALS = {1e3: "KB", 1e6: "MB", 1e9: "GB", 1e12: "TB"}

_ARITHMETIC = (ast.BinOp, ast.UnaryOp)


def _power_exponent(node: ast.AST) -> tuple[int, int] | None:
    """``(base, exponent)`` for literal ``10**k`` / ``2**k`` nodes."""
    if (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and isinstance(node.left, ast.Constant)
        and isinstance(node.right, ast.Constant)
        and node.left.value in (2, 10)
        and isinstance(node.right.value, int)
    ):
        return node.left.value, node.right.value
    return None


def _flavor(node: ast.AST) -> str | None:
    """Classify a leaf node as decimal- or binary-unit flavoured."""
    if isinstance(node, ast.Name) and node.id in DECIMAL_NAMES:
        return "decimal"
    if isinstance(node, ast.Name) and node.id in BINARY_NAMES:
        return "binary"
    if isinstance(node, ast.Attribute):
        if node.attr in DECIMAL_NAMES:
            return "decimal"
        if node.attr in BINARY_NAMES:
            return "binary"
    power = _power_exponent(node)
    if power is not None:
        base, exponent = power
        if base == 10 and exponent >= 3:
            return "decimal"
        # Only the *named* binary exponents count: other 2**k literals
        # (2**16, 2**64, ...) are counts and masks, not byte units.
        if base == 2 and exponent in BINARY_POWERS:
            return "binary"
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool):
            return None
        if isinstance(node.value, int) and node.value in INT_LITERALS:
            return "decimal" if node.value % 10 == 0 else "binary"
        if isinstance(node.value, float) and node.value in FLOAT_LITERALS:
            return "decimal"
    return None


def _arithmetic_flavors(node: ast.AST) -> set[str]:
    """Unit flavours reachable through one arithmetic expression.

    Recursion stops at non-arithmetic boundaries (calls, subscripts):
    ``f(GB) + g(MiB)`` passes units *through* functions, which is not
    the in-expression mixing this rule polices.
    """
    flavor = _flavor(node)
    if flavor is not None:
        return {flavor}
    if isinstance(node, ast.BinOp):
        return _arithmetic_flavors(node.left) | _arithmetic_flavors(node.right)
    if isinstance(node, ast.UnaryOp):
        return _arithmetic_flavors(node.operand)
    return set()


def check(tree: ast.Module, module: str | None) -> Iterator[Finding]:
    """Mixed-family expressions everywhere; magic literals in ``repro.*``."""
    parents = parent_map(tree)
    mixed_roots: list[ast.AST] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.BinOp):
            continue
        if isinstance(parents.get(node), _ARITHMETIC):
            continue  # report at the arithmetic expression root only
        flavors = _arithmetic_flavors(node)
        if "decimal" in flavors and "binary" in flavors:
            mixed_roots.append(node)
            yield (
                node,
                "expression mixes decimal (KB/MB/GB/...) and binary "
                "(KiB/MiB/GiB/...) byte units; pick one family "
                "(repro.units documents which applies where)",
            )
    if not (module or "").startswith("repro"):
        return
    mixed_nodes = {child for root in mixed_roots for child in ast.walk(root)}
    for node in ast.walk(tree):
        if node in mixed_nodes:
            continue  # already reported as part of a mixed expression
        suggestion = _literal_suggestion(node)
        if suggestion is not None:
            yield (
                node,
                f"magic byte-unit literal; use repro.units.{suggestion} "
                "(or the matching frequency constant if this is Hz)",
            )


def _literal_suggestion(node: ast.AST) -> str | None:
    power = _power_exponent(node)
    if power is not None:
        base, exponent = power
        if base == 10:
            return DECIMAL_POWERS.get(exponent)
        return BINARY_POWERS.get(exponent)
    if isinstance(node, ast.Constant) and not isinstance(node.value, bool):
        if isinstance(node.value, int):
            return INT_LITERALS.get(node.value)
        if isinstance(node.value, float):
            return FLOAT_LITERALS.get(node.value)
    return None
