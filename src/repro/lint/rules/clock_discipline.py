"""``clock-discipline`` — the simulator's one-register-per-stage contract.

:mod:`repro.hw.clock` components may communicate *only* through FIFOs:
a ``tick()`` that reaches into a sibling component's state couples two
pipeline stages inside one cycle, which is exactly the cycle-accounting
drift the paper's one-tuple-per-cycle claims depend on avoiding.  Two
checks run inside every ``tick`` method of a ``repro.hw`` class:

* **sibling state access** — writes to ``self.<sub>.<attr>``, and calls
  of ``self.<sub>.<method>()`` outside the FIFO protocol (push/pop/peek/
  drain/free_slots), the hierarchical ``tick`` delegation, and plain
  container bookkeeping (append/extend/...).  The component's own
  ``stats`` object is exempt — statistics are observability, not
  datapath.
* **float arithmetic on cycle counters** — true division or float
  operands touching a ``cycle``/``*_cycles`` quantity.  Cycle counts
  must stay integral; a fractional cycle is a modelling bug, not a
  quantity to round.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import Finding, assignment_targets, self_attribute_chain

#: sub-objects of a component that tick() may freely mutate
OWN_STATE = {"stats"}

#: the FIFO handshake protocol plus hierarchical composition and
#: bookkeeping on a component's own containers
ALLOWED_CALLS = {
    "push", "pop", "peek", "drain", "free_slots",  # FIFO protocol
    "tick",                                        # child components
    "append", "extend", "clear", "items", "values", "keys", "get",
}


def _cycleish(name: str) -> bool:
    """Names that denote a cycle count (not a per-cycle rate)."""
    if "per_cycle" in name:
        return False
    return (
        name in ("cycle", "cycles")
        or name.endswith("_cycles")
        or name.startswith("cycles_")
    )


def _refers_to_cycles(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return _cycleish(node.id)
    if isinstance(node, ast.Attribute):
        return _cycleish(node.attr)
    return False


def check(tree: ast.Module, module: str | None) -> Iterator[Finding]:
    """Findings inside every ``tick`` method of a ``repro.hw`` class."""
    if not (module or "").startswith("repro.hw"):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "tick"
            ):
                for inner in ast.walk(item):
                    yield from _sibling_writes(node.name, inner)
                    yield from _sibling_calls(node.name, inner)
                    yield from _cycle_arithmetic(node.name, inner)


def _sibling_writes(class_name: str, node: ast.AST) -> Iterator[Finding]:
    for target in assignment_targets(node):
        chain = self_attribute_chain(target)
        if chain is None or len(chain) < 2 or chain[0] in OWN_STATE:
            continue
        yield (
            target,
            f"{class_name}.tick() writes self.{'.'.join(chain)} "
            "directly; components communicate only through FIFO "
            "push/pop (one-register-per-stage discipline)",
        )


def _sibling_calls(class_name: str, node: ast.AST) -> Iterator[Finding]:
    if not isinstance(node, ast.Call):
        return
    chain = self_attribute_chain(node.func)
    if chain is None or len(chain) < 2:
        return
    if chain[0] in OWN_STATE or chain[-1] in ALLOWED_CALLS:
        return
    yield (
        node,
        f"{class_name}.tick() calls self.{'.'.join(chain)}() which "
        "bypasses the FIFO protocol (allowed: "
        f"{', '.join(sorted(ALLOWED_CALLS))})",
    )


def _cycle_arithmetic(class_name: str, node: ast.AST) -> Iterator[Finding]:
    message = (
        f"{class_name}.tick() performs float arithmetic on a cycle "
        "counter; cycle accounting must stay integral"
    )
    if isinstance(node, ast.BinOp):
        operands = (node.left, node.right)
        touches_cycles = any(_refers_to_cycles(op) for op in operands)
        if touches_cycles and isinstance(node.op, ast.Div):
            yield node, message
        elif touches_cycles and any(
            isinstance(op, ast.Constant) and isinstance(op.value, float)
            for op in operands
        ):
            yield node, message
    elif isinstance(node, ast.AugAssign) and _refers_to_cycles(node.target):
        if isinstance(node.op, ast.Div) or (
            isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, float)
        ):
            yield node, message
