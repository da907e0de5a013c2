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


def attribute_chain(node: ast.AST) -> tuple[str, list[str]] | None:
    """``(root_name, [attr, ...])`` for a plain-name attribute chain."""
    dotted = dotted_call_name(node)
    if dotted is None or "." not in dotted:
        return None
    root, *attrs = dotted.split(".")
    return root, attrs


def call_target(func: ast.AST, is_method: bool) -> tuple:
    """Syntactic target of a call, resolved later by the symbol table.

    ``("name", f)``, ``("dotted", "a.b.c")``, ``("self", m)``,
    ``("selfattr", field, m)``, ``("new", "Cls", m)`` for a method called
    on a constructor call (``Cls(...).m()``), or ``("opaque",)``.
    """
    if isinstance(func, ast.Name):
        return ("name", func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Call):
        klass = dotted_call_name(func.value.func)
        return ("opaque",) if klass is None else ("new", klass, func.attr)
    chain = attribute_chain(func)
    if chain is None:
        return ("opaque",)
    root, attrs = chain
    if root == "self" and is_method:
        if len(attrs) == 1:
            return ("self", attrs[0])
        if len(attrs) == 2:
            return ("selfattr", attrs[0], attrs[1])
        return ("opaque",)
    return ("dotted", ".".join([root] + attrs))


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
