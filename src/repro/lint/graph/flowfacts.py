"""Per-function determinism-taint and exception-flow fact extraction.

A second, dedicated walk over one function body (the first walk in
:mod:`repro.lint.graph.summary` tracks unit families) producing the
facts the :mod:`detflow` and :mod:`exnflow` passes propagate over the
call graph.  Everything recorded here is *syntactic* — call targets,
exception names, taint atoms — so a cached summary stays valid when
other files change; resolution happens at pass time.

The ``flow`` dict attached to every :class:`FunctionSummary`:

``sources``
    direct nondeterminism introductions: ``{"kind", "detail", "line",
    "col"}`` with kind one of ``rng`` (unseeded RNG), ``clock`` (host
    wall-clock read), ``id`` (CPython object identity), ``fs-order``
    (directory-listing order), ``completion-order`` (parallel
    completion order), ``set-order`` (hash-order iteration of a set),
    or ``set-carrier`` (a set-valued expression — only hazardous once
    something iterates it, which is where ``set-order`` appears);
``calls``
    every call site with per-argument taint atoms and the enclosing
    ``try`` bodies (``guards``) for handler subtraction;
``returns`` / ``iters`` / ``self_sets``
    the places taint surfaces: ``return`` expressions, ``for``/
    comprehension iterables, and ``self.<attr> = ...`` writes;
``raises`` / ``tries``
    raise sites (syntactic exception name, ``None`` for a bare
    re-raise, plus the handler types it re-raises) and ``try``
    structure (handler types, swallow/re-raise shape).

Taint atoms are JSON-friendly lists::

    ["src", i]        # sources[i] of this function
    ["param", name]   # tainted iff the parameter is
    ["call", id]      # tainted iff calls[id]'s return value is
    ["self", attr]    # tainted iff the attribute is (class fixpoint)
    ["ordfree", atom] # atom with order-class taint laundered away

``sorted()`` (and the other order-insensitive reductions ``min``,
``max``, ``sum``, ``len``, ``any``, ``all``) wrap their argument atoms
in ``ordfree`` — the sanctioned way to consume a set — while value
taints (RNG, clock) survive the wrap: sorting random numbers fixes
their order, not their values.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import call_target, dotted_call_name
from repro.lint.rules.determinism import (
    _NOW_FNS,
    _NUMPY_LEGACY_FNS,
    _RANDOM_MODULE_FNS,
    _TIME_FNS,
)

#: builtins that reduce order-sensitivity away; their result carries the
#: argument's value taints but no order taint
LAUNDER_BUILTINS = frozenset({"sorted", "min", "max", "sum", "len", "any", "all"})

#: callables whose bare-name or dotted-tail call yields directory order
_FS_ORDER_CALLS = frozenset({"listdir", "scandir", "walk", "iglob", "glob"})

#: callables that yield results in task-completion order
_COMPLETION_ORDER_CALLS = frozenset({"as_completed", "imap_unordered"})

#: cap on atoms tracked per expression; beyond this the expression is
#: saturated and extra atoms add nothing a diagnostic would show
_MAX_ATOMS = 8


def _merge(*atom_lists: list) -> list:
    out: list = []
    for atoms in atom_lists:
        for atom in atoms:
            if atom not in out and len(out) < _MAX_ATOMS:
                out.append(atom)
    return out


def _exception_name(node: ast.AST | None) -> str | None:
    """Syntactic dotted name of a raised/caught exception type."""
    if node is None:
        return None
    if isinstance(node, ast.Call):
        node = node.func
    return dotted_call_name(node)


def _set_valued(node: ast.AST) -> bool:
    """Whether an expression is syntactically a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class _FlowExtractor:
    """One forward pass collecting taint and exception facts."""

    def __init__(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        params: list[str],
        is_method: bool,
    ) -> None:
        self.node = node
        self.params = params
        self.is_method = is_method
        self.env: dict[str, list] = {}
        self.sources: list[dict] = []
        self.calls: list[dict] = []
        self.returns: list[dict] = []
        self.iters: list[dict] = []
        self.self_sets: list[dict] = []
        self.raises: list[dict] = []
        self.tries: list[dict] = []
        #: try ids whose *body* lexically encloses the current statement
        self._try_stack: list[int] = []
        #: handler type-lists for the handlers we are lexically inside
        self._handler_stack: list[list[str]] = []

    def run(self) -> dict:
        for stmt in self.node.body:
            self._walk(stmt)
        out: dict = {}
        for key in ("sources", "calls", "returns", "iters", "self_sets",
                    "raises", "tries"):
            value = getattr(self, key)
            if value:
                out[key] = value
        return out

    # -- taint evaluation ----------------------------------------------
    def eval(self, node: ast.AST) -> list:
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            if node.id in self.params:
                return [["param", node.id]]
            return []
        if isinstance(node, ast.Attribute):
            if (
                self.is_method
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                return [["self", node.attr]]
            return self.eval(node.value)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, (ast.Set, ast.SetComp)):
            carrier = [["src", self._source("set-carrier", "set value", node)]]
            if isinstance(node, ast.Set):
                return _merge(carrier, *[self.eval(e) for e in node.elts])
            return _merge(carrier, self._comprehension(node))
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            return self._comprehension(node)
        if isinstance(node, ast.NamedExpr):
            atoms = self.eval(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = atoms
            return atoms
        if isinstance(node, ast.Lambda):
            return []
        if isinstance(node, ast.Constant):
            return []
        # every other expression: the union of its child expressions
        return _merge(*[
            self.eval(child)
            for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.expr)
        ])

    def _comprehension(self, node: ast.AST) -> list:
        atoms: list[list] = []
        for gen in getattr(node, "generators", []):
            atoms.append(self._iterate(gen.iter))
        for attr in ("elt", "key", "value"):
            child = getattr(node, attr, None)
            if child is not None:
                atoms.append(self.eval(child))
        return _merge(*atoms)

    def _iterate(self, iterable: ast.expr) -> list:
        """Atoms a loop variable picks up from iterating ``iterable``."""
        atoms = self.eval(iterable)
        if _set_valued(iterable) or self._has_local_carrier(atoms):
            src = self._source("set-order", "set iteration", iterable)
            atoms = _merge([["src", src]], atoms)
        elif atoms:
            # order taint from *another* function surfaces here; the
            # detflow pass resolves these at iteration sites
            self.iters.append({
                "line": iterable.lineno, "col": iterable.col_offset,
                "atoms": atoms,
            })
        return atoms

    def _has_local_carrier(self, atoms: list) -> bool:
        return any(
            atom[0] == "src"
            and self.sources[atom[1]]["kind"] == "set-carrier"
            for atom in atoms
        )

    def _source(self, kind: str, detail: str, node: ast.AST) -> int:
        self.sources.append({
            "kind": kind, "detail": detail,
            "line": node.lineno, "col": node.col_offset,
        })
        return len(self.sources) - 1

    # -- calls ---------------------------------------------------------
    def _call(self, node: ast.Call) -> list:
        target = call_target(node.func, self.is_method)
        if (
            target[0] == "name"
            and target[1] in LAUNDER_BUILTINS
            and node.args
        ):
            inner = _merge(*[self.eval(a) for a in node.args])
            return [["ordfree", atom] for atom in inner]
        if target[0] == "name" and target[1] in ("set", "frozenset"):
            carrier = [["src", self._source("set-carrier", f"{target[1]}()", node)]]
            return _merge(carrier, *[self.eval(a) for a in node.args])
        source = self._source_kind(node, target)
        if source is not None:
            kind, detail = source
            for arg in node.args:
                self.eval(arg)
            return [["src", self._source(kind, detail, node)]]
        args = [
            self.eval(a) for a in node.args if not isinstance(a, ast.Starred)
        ]
        kwargs = {
            kw.arg: self.eval(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        }
        call_id = len(self.calls)
        record = {
            "id": call_id, "line": node.lineno, "col": node.col_offset,
            "target": target, "args": args, "kwargs": kwargs,
            "guards": list(self._try_stack),
        }
        # method-call receiver atoms (``payload.encode()``): unresolved
        # calls pass them through to the result so taint survives
        # stdlib conversions
        if isinstance(node.func, ast.Attribute):
            recv = self.eval(node.func.value)
            if recv:
                record["recv"] = recv
        self.calls.append(record)
        return [["call", call_id]]

    def _source_kind(
        self, node: ast.Call, target: tuple
    ) -> tuple[str, str] | None:
        """``(kind, detail)`` when the call itself introduces taint."""
        seeded = bool(node.args or node.keywords)
        if target[0] == "name":
            name = target[1]
            if name == "id" and len(node.args) == 1:
                return ("id", "id()")
            if name in ("Random", "default_rng") and not seeded:
                return ("rng", f"{name}()")
            if name in _COMPLETION_ORDER_CALLS:
                return ("completion-order", f"{name}()")
            return None
        if target[0] != "dotted":
            return None
        dotted = target[1]
        parts = dotted.split(".")
        head, tail = parts[0], parts[-1]
        if head == "random" and len(parts) == 2 and tail in _RANDOM_MODULE_FNS:
            return ("rng", f"{dotted}()")
        if dotted == "random.Random" and not seeded:
            return ("rng", f"{dotted}()")
        if tail == "default_rng" and not seeded:
            return ("rng", f"{dotted}()")
        if "random" in parts[:-1] and tail in _NUMPY_LEGACY_FNS:
            return ("rng", f"{dotted}()")
        if head == "time" and len(parts) == 2 and tail in _TIME_FNS:
            return ("clock", f"{dotted}()")
        if tail in _NOW_FNS and len(parts) >= 2 and parts[-2] in (
            "datetime", "date",
        ):
            return ("clock", f"{dotted}()")
        if head in ("os", "glob") and tail in _FS_ORDER_CALLS:
            return ("fs-order", f"{dotted}()")
        if tail in _COMPLETION_ORDER_CALLS:
            return ("completion-order", f"{dotted}()")
        return None

    # -- statement walk ------------------------------------------------
    def _walk(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are summarised separately (or skipped)
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                self.env[local] = []
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                atoms = self.eval(stmt.value)
                if atoms:
                    self.returns.append({"line": stmt.lineno, "atoms": atoms})
            return
        if isinstance(stmt, ast.Assign):
            atoms = self.eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, atoms, stmt.lineno)
            return
        if isinstance(stmt, ast.AnnAssign):
            atoms = self.eval(stmt.value) if stmt.value is not None else []
            self._assign(stmt.target, atoms, stmt.lineno)
            return
        if isinstance(stmt, ast.AugAssign):
            atoms = self.eval(stmt.value)
            current = self.eval(stmt.target)
            self._assign(stmt.target, _merge(current, atoms), stmt.lineno)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            atoms = self._iterate(stmt.iter)
            self._bind(stmt.target, atoms)
            for inner in stmt.body + stmt.orelse:
                self._walk(inner)
            return
        if isinstance(stmt, (ast.While, ast.If)):
            self.eval(stmt.test)
            for inner in stmt.body + stmt.orelse:
                self._walk(inner)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                atoms = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, atoms)
            for inner in stmt.body:
                self._walk(inner)
            return
        if isinstance(stmt, ast.Try):
            self._walk_try(stmt)
            return
        if isinstance(stmt, ast.Raise):
            self._walk_raise(stmt)
            return
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
            return
        if isinstance(stmt, ast.Assert):
            self.eval(stmt.test)
            return
        # remaining statements (pass, del, global, ...) carry no facts

    def _walk_try(self, stmt: ast.Try) -> None:
        try_id = len(self.tries)
        handlers: list[dict] = []
        for handler in stmt.handlers:
            types: list[str] = []
            if isinstance(handler.type, ast.Tuple):
                types = [
                    name for name in map(_exception_name, handler.type.elts)
                    if name is not None
                ]
            else:
                name = _exception_name(handler.type)
                if name is not None:
                    types = [name]
            handlers.append({
                "types": types,
                "bare": handler.type is None,
                "line": handler.lineno, "col": handler.col_offset,
                "swallows": all(
                    isinstance(inner, (ast.Pass, ast.Continue))
                    or (
                        isinstance(inner, ast.Expr)
                        and isinstance(inner.value, ast.Constant)
                    )
                    for inner in handler.body
                ),
                "reraises": any(
                    isinstance(node, ast.Raise)
                    for inner in handler.body
                    for node in ast.walk(inner)
                ),
                # a bare ``raise`` re-raises what was caught, so the
                # handler must not subtract its types from the escapes
                "bare_reraise": any(
                    isinstance(node, ast.Raise) and node.exc is None
                    for inner in handler.body
                    for node in ast.walk(inner)
                ),
            })
        self.tries.append({
            "id": try_id, "line": stmt.lineno, "col": stmt.col_offset,
            "handlers": handlers,
        })
        self._try_stack.append(try_id)
        try:
            for inner in stmt.body:
                self._walk(inner)
        finally:
            self._try_stack.pop()
        # else/finally run outside the handlers' protection
        for inner in stmt.orelse + stmt.finalbody:
            self._walk(inner)
        for handler, record in zip(stmt.handlers, handlers):
            if handler.name is not None:
                self.env[handler.name] = []
            self._handler_stack.append(
                record["types"] if not record["bare"] else ["BaseException"]
            )
            try:
                for inner in handler.body:
                    self._walk(inner)
            finally:
                self._handler_stack.pop()

    def _walk_raise(self, stmt: ast.Raise) -> None:
        if stmt.exc is not None:
            self.eval(stmt.exc)
        name = _exception_name(stmt.exc)
        record = {
            "type": name,
            "line": stmt.lineno, "col": stmt.col_offset,
            "guards": list(self._try_stack),
        }
        if stmt.exc is None and self._handler_stack:
            # bare re-raise: escapes exactly what the handler caught
            record["caught"] = list(self._handler_stack[-1])
        self.raises.append(record)

    # -- bindings ------------------------------------------------------
    def _assign(self, target: ast.AST, atoms: list, line: int) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = atoms
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, atoms, line)
            return
        if (
            self.is_method
            and isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            if atoms:
                self.self_sets.append({
                    "attr": target.attr, "atoms": atoms, "line": line,
                })

    def _bind(self, target: ast.AST, atoms: list) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                self.env[node.id] = atoms


def extract_flow_facts(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    params: list[str],
    is_method: bool,
) -> dict:
    """The ``flow`` fact dict of one function body."""
    return _FlowExtractor(node, params, is_method).run()
