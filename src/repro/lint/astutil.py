"""Small AST helpers shared by the rules."""

from __future__ import annotations

import ast

#: what a local rule yields: the node a finding anchors to, and its message
Finding = tuple[ast.AST, str]


def parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    """Child-to-parent mapping for every node under ``tree``."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def self_attribute_chain(node: ast.AST) -> list[str] | None:
    """Attribute names hanging off ``self``, outermost last.

    ``self.output.push`` returns ``["output", "push"]``;
    ``self.cycle`` returns ``["cycle"]``; anything not rooted at a
    ``self`` name returns ``None``.
    """
    chain: list[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self":
        return chain[::-1]
    return None


def dotted_call_name(func: ast.AST) -> str | None:
    """Dotted name of a call target built from plain names.

    ``np.random.rand`` returns ``"np.random.rand"``; calls on computed
    expressions (subscripts, call results) return ``None``.
    """
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(parts[::-1])
    return None


def assignment_targets(node: ast.AST) -> list[ast.expr]:
    """Flattened assignment targets of Assign/AugAssign/AnnAssign."""
    if isinstance(node, ast.Assign):
        raw = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        raw = [node.target]
    else:
        return []
    flat: list[ast.expr] = []
    stack = raw
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        else:
            flat.append(target)
    return flat
