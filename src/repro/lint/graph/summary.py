"""Per-file extraction into serialisable summaries.

One pass over a file's AST produces a :class:`FileSummary`: imports,
classes, functions, and — per function — the facts the whole-program
analyses need (call sites, unit-flow abstract values, direct side
effects, peer-component accesses).  The same pass runs the local rules
(:mod:`repro.lint.rules`) on the tree and keeps their findings.
Summaries are plain JSON-friendly data, which is what makes the
content-hash cache possible: a warm run loads summaries (local findings
included) instead of re-parsing, and only the cheap propagation passes
re-run.

Abstract values (``AbsVal``) describe where a quantity's unit family
comes from without resolving it yet:

* ``("fam", family)`` — a known family (seeded from a ``repro.units``
  constant or a naming convention);
* ``("param", name)`` — the family of the enclosing function's
  parameter, whatever propagation decides it is;
* ``("ret", call_id)`` — the return family of call site ``call_id``;
* ``("unknown",)`` — dimensionless or untracked.

Call targets stay *syntactic* here (``("name", f)``, ``("dotted",
"a.b.c")``, ``("self", m)``, ``("selfattr", field, m)``); the symbol
table resolves them once all summaries are assembled, so a cached
summary stays valid when other files change.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.lint.astutil import attribute_chain, call_target, dotted_call_name
from repro.lint.context import module_name
from repro.lint.rules import run_local_rules
from repro.lint.suppressions import Directive, Suppressions

# --- unit families ---------------------------------------------------------

BYTES_DEC = "bytes-decimal"
BYTES_BIN = "bytes-binary"
BYTES_ANY = "bytes"  # compatible with both byte families
RECORDS = "records"
CYCLES = "cycles"
SECONDS = "seconds"
HERTZ = "hertz"

#: ``repro.units`` constants seed these families wherever they appear
UNIT_CONSTANT_FAMILIES: dict[str, str] = {
    "KB": BYTES_DEC, "MB": BYTES_DEC, "GB": BYTES_DEC,
    "TB": BYTES_DEC, "PB": BYTES_DEC,
    "KiB": BYTES_BIN, "MiB": BYTES_BIN, "GiB": BYTES_BIN, "TiB": BYTES_BIN,
    "MS": SECONDS, "US": SECONDS, "NS": SECONDS,
    "KHZ": HERTZ, "MHZ": HERTZ, "GHZ": HERTZ,
    "DEFAULT_FREQUENCY_HZ": HERTZ,
}


def family_from_name(name: str) -> str | None:
    """Unit family implied by a parameter/attribute naming convention.

    Rate names (``read_bytes_per_cycle``, ``ms_per_gb``) deliberately
    match nothing: a rate is its own dimension, not either operand's.
    """
    n = name.lower()
    if "per_" in n:
        return None
    if n.endswith(("_kib", "_mib", "_gib")) or "bram" in n:
        return BYTES_BIN
    if n in ("n_bytes", "bytes") or n.endswith("_bytes") or n.startswith("bytes_"):
        return BYTES_ANY
    if n in ("n_records", "records") or n.endswith("_records"):
        return RECORDS
    if n in ("cycle", "cycles") or n.endswith("_cycles") or n.startswith("cycles_"):
        return CYCLES
    if n == "seconds" or n.endswith("_seconds"):
        return SECONDS
    if n in ("hz", "hertz") or n.endswith(("_hz", "_hertz")):
        return HERTZ
    return None


# --- abstract values -------------------------------------------------------

AbsVal = tuple  # ("fam", f) | ("param", name) | ("ret", call_id) | ("unknown",)

UNKNOWN: AbsVal = ("unknown",)


def _is_unknown(value: AbsVal) -> bool:
    return value[0] == "unknown"


#: builtins whose single argument's family passes straight through
_PASSTHROUGH_CALLS = {"int", "float", "round", "abs"}
#: builtins whose arguments must share a family, like ``+``
_ADDITIVE_CALLS = {"min", "max"}

_IO_BUILTINS = {"open", "print", "input", "exec", "eval", "breakpoint", "__import__"}
_IO_MODULES = {
    "os", "sys", "subprocess", "shutil", "socket", "io",
    "tempfile", "logging", "pathlib",
}
_CLOCK_MODULES = {"time", "datetime"}


@dataclass
class FunctionSummary:
    """Everything the interprocedural passes need about one function."""

    name: str                 # qualname inside the module, e.g. "KMerger.tick"
    line: int
    col: int
    params: list[str] = field(default_factory=list)
    #: seeded unit families: parameter name -> family
    param_seeds: dict[str, str] = field(default_factory=dict)
    #: syntactic annotations: parameter name -> dotted type name
    param_annotations: dict[str, str] = field(default_factory=dict)
    #: abstract values of every ``return`` expression
    returns: list[AbsVal] = field(default_factory=list)
    #: call sites: {"id", "line", "col", "target", "args", "kwargs",
    #: "arg_names", "kwarg_names", "binds", "with"} (``with``: the call
    #: is a ``with`` statement's context expression)
    calls: list[dict] = field(default_factory=list)
    #: additive/comparison sites: {"line", "col", "op", "left", "right"}
    mixes: list[dict] = field(default_factory=list)
    #: direct side effects: {"kind", "detail", "line"}
    effects: list[dict] = field(default_factory=list)
    #: ``self.<field>.<attr>`` accesses: {"field","attr","tail","line","col","kind"}
    peer_accesses: list[dict] = field(default_factory=list)
    #: names bound by a function-body ``import``/``from import``
    local_imports: dict[str, str] = field(default_factory=dict)
    #: names that appear inside ``return`` expressions (ownership of a
    #: resource bound to one of these escapes to the caller)
    returned_names: list[str] = field(default_factory=list)
    #: names bound by unpacking a parameter (``a, b = task``): values
    #: whose type only the calls they feed reveal
    unpacked: list[str] = field(default_factory=list)
    #: determinism-taint and exception-flow facts (see
    #: :mod:`repro.lint.graph.flowfacts` for the shape)
    flow: dict = field(default_factory=dict)
    class_name: str | None = None

    def to_json(self) -> dict:
        return {
            "name": self.name, "line": self.line, "col": self.col,
            "params": self.params, "param_seeds": self.param_seeds,
            "param_annotations": self.param_annotations,
            "returns": [list(v) for v in self.returns],
            "calls": self.calls, "mixes": self.mixes,
            "effects": self.effects, "peer_accesses": self.peer_accesses,
            "local_imports": self.local_imports,
            "returned_names": self.returned_names,
            "unpacked": self.unpacked,
            "flow": self.flow,
            "class_name": self.class_name,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FunctionSummary":
        fn = cls(
            name=data["name"], line=data["line"], col=data["col"],
            params=list(data["params"]),
            param_seeds=dict(data["param_seeds"]),
            param_annotations=dict(data["param_annotations"]),
            returns=[tuple(v) for v in data["returns"]],
            calls=[_retuple_call(c) for c in data["calls"]],
            mixes=[_retuple_mix(m) for m in data["mixes"]],
            effects=list(data["effects"]),
            peer_accesses=list(data["peer_accesses"]),
            local_imports=dict(data["local_imports"]),
            returned_names=list(data["returned_names"]),
            unpacked=list(data["unpacked"]),
            flow=_retuple_flow(data["flow"]),
            class_name=data["class_name"],
        )
        return fn


def _retuple_call(call: dict) -> dict:
    call = dict(call)
    call["target"] = tuple(call["target"])
    call["args"] = [tuple(v) for v in call["args"]]
    call["kwargs"] = {k: tuple(v) for k, v in call["kwargs"].items()}
    return call


def _retuple_flow(flow: dict) -> dict:
    flow = dict(flow)
    if "calls" in flow:
        flow["calls"] = [dict(c) for c in flow["calls"]]
        for call in flow["calls"]:
            call["target"] = tuple(call["target"])
    return flow


def _retuple_mix(mix: dict) -> dict:
    mix = dict(mix)
    mix["left"] = tuple(mix["left"])
    mix["right"] = tuple(mix["right"])
    return mix


@dataclass
class ClassSummary:
    """One class: fields (with syntactic annotations), bases, methods."""

    name: str
    line: int
    bases: list[str] = field(default_factory=list)
    #: field name -> syntactic annotation (dotted string) or None
    fields: dict[str, str | None] = field(default_factory=dict)
    methods: dict[str, FunctionSummary] = field(default_factory=dict)

    @property
    def has_tick(self) -> bool:
        """Components are classes with a per-cycle ``tick`` method."""
        return "tick" in self.methods

    def to_json(self) -> dict:
        return {
            "name": self.name, "line": self.line, "bases": self.bases,
            "fields": self.fields,
            "methods": {k: m.to_json() for k, m in self.methods.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "ClassSummary":
        return cls(
            name=data["name"], line=data["line"], bases=list(data["bases"]),
            fields=dict(data["fields"]),
            methods={
                k: FunctionSummary.from_json(m)
                for k, m in data["methods"].items()
            },
        )


@dataclass
class FileSummary:
    """The serialisable whole-file fact base."""

    path: str
    module: str | None
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    #: module-level names seeded with a unit family (``CAP = 8 * GB``)
    constant_families: dict[str, str] = field(default_factory=dict)
    #: calls executed at import time: {"name", "line", "col"} per call
    #: found in module-level expression/assignment statements (decorators
    #: and class bodies excluded) — the worker-entry import-purity check
    module_calls: list[dict] = field(default_factory=list)
    #: inline suppression directives (:meth:`Directive.to_json` records)
    directives: list[dict] = field(default_factory=list)
    #: local-rule findings: {"rule", "line", "col", "message"} each
    local_findings: list[dict] = field(default_factory=list)
    #: module-level simple-name assignment targets (module globals a
    #: function could rebind or mutate through a class attribute)
    module_globals: list[str] = field(default_factory=list)

    def all_functions(self) -> Iterator[FunctionSummary]:
        """Module-level functions, then methods, in definition order."""
        yield from self.functions.values()
        for klass in self.classes.values():
            yield from klass.methods.values()

    def suppressions(self) -> Suppressions:
        """Fresh (usage-free) directive objects for one analysis run."""
        return Suppressions([Directive.from_json(d) for d in self.directives])

    def to_json(self) -> dict:
        return {
            "module": self.module,
            "imports": self.imports,
            "functions": {k: f.to_json() for k, f in self.functions.items()},
            "classes": {k: c.to_json() for k, c in self.classes.items()},
            "constant_families": self.constant_families,
            "module_calls": self.module_calls,
            "directives": self.directives,
            "local_findings": self.local_findings,
            "module_globals": self.module_globals,
        }

    @classmethod
    def from_json(cls, path: str, data: dict) -> "FileSummary":
        return cls(
            path=path,
            module=data["module"],
            imports=dict(data["imports"]),
            functions={
                k: FunctionSummary.from_json(f)
                for k, f in data["functions"].items()
            },
            classes={
                k: ClassSummary.from_json(c) for k, c in data["classes"].items()
            },
            constant_families=dict(data["constant_families"]),
            module_calls=list(data["module_calls"]),
            directives=list(data["directives"]),
            local_findings=list(data["local_findings"]),
            module_globals=list(data["module_globals"]),
        )


# --- extraction ------------------------------------------------------------

def _annotation_name(node: ast.AST | None) -> str | None:
    """Syntactic dotted name of an annotation, unwrapping ``X | None``.

    Container annotations (``list[Fifo]``) return ``None``: their
    element accesses go through subscripts the analyses do not track.
    """
    if node is None:
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_name(node.left)
        return left if left is not None else _annotation_name(node.right)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return _annotation_name(ast.parse(node.value, mode="eval").body)
        except SyntaxError:
            return None
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(parts[::-1])
    return None


class _FunctionExtractor:
    """Single forward pass over one function body."""

    def __init__(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        class_name: str | None,
    ) -> None:
        self.node = node
        self.out = FunctionSummary(
            name=qualname, line=node.lineno, col=node.col_offset,
            class_name=class_name,
        )
        self.is_method = class_name is not None
        self.env: dict[str, AbsVal] = {}
        args = node.args
        every = (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
        names = [a.arg for a in every]
        if self.is_method and names and names[0] in ("self", "cls"):
            names = names[1:]
            every = every[1:]
        self.out.params = names
        for arg in every:
            seeded = family_from_name(arg.arg)
            ann = _annotation_name(arg.annotation)
            if ann is not None:
                self.out.param_annotations[arg.arg] = ann
                if ann.split(".")[-1] in UNIT_CONSTANT_FAMILIES:
                    seeded = UNIT_CONSTANT_FAMILIES[ann.split(".")[-1]]
            if seeded is not None:
                self.out.param_seeds[arg.arg] = seeded

    # -- abstract evaluation ------------------------------------------
    def eval(self, node: ast.AST) -> AbsVal:
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            if node.id in self.out.params:
                return ("param", node.id)
            if node.id in UNIT_CONSTANT_FAMILIES:
                return ("fam", UNIT_CONSTANT_FAMILIES[node.id])
            return UNKNOWN
        if isinstance(node, ast.Attribute):
            chain = attribute_chain(node)
            if (
                chain is not None
                and chain[0] == "self"
                and self.is_method
                and len(chain[1]) >= 2
            ):
                self._record_peer(node, chain[1], kind="read")
            if node.attr in UNIT_CONSTANT_FAMILIES:
                return ("fam", UNIT_CONSTANT_FAMILIES[node.attr])
            implied = family_from_name(node.attr)
            if implied is not None:
                return ("fam", implied)
            return UNKNOWN
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.IfExp):
            body = self.eval(node.body)
            return body if not _is_unknown(body) else self.eval(node.orelse)
        if isinstance(node, ast.Compare):
            values = [self.eval(node.left)] + [self.eval(c) for c in node.comparators]
            self._record_mixes(node, "comparison", values)
            return UNKNOWN
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.NamedExpr):
            value = self.eval(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = value
            return value
        return UNKNOWN

    def _eval_binop(self, node: ast.BinOp) -> AbsVal:
        left = self.eval(node.left)
        right = self.eval(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub, ast.Mod)):
            self._record_mixes(node, node.op.__class__.__name__.lower(),
                               [left, right])
            return left if not _is_unknown(left) else right
        if isinstance(node.op, ast.Mult):
            if _is_unknown(left):
                return right
            if _is_unknown(right):
                return left
            return UNKNOWN  # family * family changes dimension
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            # dividing by a dimensionless quantity keeps the family;
            # dividing two dimensioned quantities makes a rate
            return left if _is_unknown(right) else UNKNOWN
        return UNKNOWN

    def _eval_call(self, node: ast.Call) -> AbsVal:
        target = self._target_ref(node.func)
        if target[0] == "new":
            self.eval(node.func.value)  # the constructor call itself
        args = [self.eval(a) for a in node.args if not isinstance(a, ast.Starred)]
        kwargs = {
            kw.arg: self.eval(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        }
        self._record_effects(node, target)
        if target[0] == "name" and target[1] in _PASSTHROUGH_CALLS and len(args) == 1:
            return args[0]
        if target[0] == "name" and target[1] in _ADDITIVE_CALLS:
            self._record_mixes(node, target[1], args)
            for value in args:
                if not _is_unknown(value):
                    return value
            return UNKNOWN
        call_id = len(self.out.calls)
        self.out.calls.append({
            "id": call_id, "line": node.lineno, "col": node.col_offset,
            "target": target,
            "args": [list(v) for v in args],
            "kwargs": {k: list(v) for k, v in kwargs.items()},
            "arg_names": [
                a.id if isinstance(a, ast.Name) else None
                for a in node.args
                if not isinstance(a, ast.Starred)
            ],
            "kwarg_names": {
                kw.arg: kw.value.id
                for kw in node.keywords
                if kw.arg is not None and isinstance(kw.value, ast.Name)
            },
            "binds": None,
            "with": False,
        })
        return ("ret", call_id)

    def _record_mixes(self, node: ast.AST, op: str, values: list[AbsVal]) -> None:
        known = [v for v in values if not _is_unknown(v)]
        for left, right in zip(known, known[1:]):
            self.out.mixes.append({
                "line": getattr(node, "lineno", self.node.lineno),
                "col": getattr(node, "col_offset", 0),
                "op": op, "left": list(left), "right": list(right),
            })

    # -- call targets and effects -------------------------------------
    def _target_ref(self, func: ast.AST) -> tuple:
        chain = attribute_chain(func)
        if (
            chain is not None
            and chain[0] == "self"
            and self.is_method
            and len(chain[1]) >= 2
        ):
            self._record_peer(func, chain[1], kind="call")
        return call_target(func, self.is_method)

    def _record_peer(self, node: ast.AST, attrs: list[str], kind: str) -> None:
        if attrs[0] == "stats":
            return
        self.out.peer_accesses.append({
            "field": attrs[0], "attr": attrs[1], "tail": ".".join(attrs[1:]),
            "line": getattr(node, "lineno", self.node.lineno),
            "col": getattr(node, "col_offset", 0),
            "kind": kind,
        })

    def _record_effects(self, node: ast.Call, target: tuple) -> None:
        if target[0] == "name" and target[1] in _IO_BUILTINS:
            self._effect("io", f"{target[1]}()", node.lineno)
        elif target[0] == "dotted":
            root = target[1].split(".")[0]
            dotted = target[1]
            if root in _IO_MODULES:
                self._effect("io", f"{dotted}()", node.lineno)
            elif root in _CLOCK_MODULES:
                self._effect("clock", f"{dotted}()", node.lineno)
            elif root == "random" or ".random." in f".{dotted}":
                self._effect("rng", f"{dotted}()", node.lineno)

    def _effect(self, kind: str, detail: str, line: int) -> None:
        self.out.effects.append({"kind": kind, "detail": detail, "line": line})

    # -- statement walk -----------------------------------------------
    def run(self) -> FunctionSummary:
        from repro.lint.graph.flowfacts import extract_flow_facts

        for stmt in self.node.body:
            self._walk(stmt)
        self.out.flow = extract_flow_facts(
            self.node, self.out.params, self.is_method
        )
        return self.out

    def _walk(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are summarised separately (or skipped)
        if isinstance(stmt, ast.Global):
            self._effect("global", ", ".join(stmt.names), stmt.lineno)
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                dotted = alias.name if alias.asname else alias.name.split(".")[0]
                self.out.local_imports[local] = dotted
                self.env[local] = UNKNOWN
            return
        if isinstance(stmt, ast.ImportFrom):
            if stmt.level == 0 and stmt.module:
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.out.local_imports[local] = f"{stmt.module}.{alias.name}"
                    self.env[local] = UNKNOWN
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.out.returns.append(self.eval(stmt.value))
                for node in ast.walk(stmt.value):
                    if (
                        isinstance(node, ast.Name)
                        and node.id not in self.out.returned_names
                    ):
                        self.out.returned_names.append(node.id)
            return
        if isinstance(stmt, ast.Assign):
            if (
                isinstance(stmt.value, ast.Name)
                and stmt.value.id in self.out.params
            ):
                self.out.unpacked.extend(
                    node.id
                    for target in stmt.targets
                    if isinstance(target, (ast.Tuple, ast.List))
                    for node in ast.walk(target)
                    if isinstance(node, ast.Name)
                )
            value = self.eval(stmt.value)
            if value[0] == "ret" and len(stmt.targets) == 1:
                self._record_binding(stmt.targets[0], value[1])
            for target in stmt.targets:
                self._assign(target, value, stmt.lineno)
            return
        if isinstance(stmt, ast.AnnAssign):
            value = self.eval(stmt.value) if stmt.value is not None else UNKNOWN
            ann = _annotation_name(stmt.annotation)
            if (
                _is_unknown(value)
                and ann is not None
                and ann.split(".")[-1] in UNIT_CONSTANT_FAMILIES
            ):
                value = ("fam", UNIT_CONSTANT_FAMILIES[ann.split(".")[-1]])
            self._assign(stmt.target, value, stmt.lineno)
            return
        if isinstance(stmt, ast.AugAssign):
            value = self.eval(stmt.value)
            current = self.eval(stmt.target) if isinstance(
                stmt.target, (ast.Name, ast.Attribute)
            ) else UNKNOWN
            if isinstance(stmt.op, (ast.Add, ast.Sub)):
                self._record_mixes(stmt, "augmented " +
                                   stmt.op.__class__.__name__.lower(),
                                   [current, value])
            self._assign(stmt.target, value, stmt.lineno, augmented=True)
            return
        if isinstance(stmt, ast.For):
            self.eval(stmt.iter)
            self._bind_names(stmt.target)
            for inner in stmt.body + stmt.orelse:
                self._walk(inner)
            return
        if isinstance(stmt, (ast.While, ast.If)):
            self.eval(stmt.test)
            for inner in stmt.body + stmt.orelse:
                self._walk(inner)
            return
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                value = self.eval(item.context_expr)
                if value[0] == "ret":
                    self.out.calls[value[1]]["with"] = True
                if item.optional_vars is not None:
                    self._bind_names(item.optional_vars)
            for inner in stmt.body:
                self._walk(inner)
            return
        if isinstance(stmt, ast.Try):
            for inner in stmt.body + stmt.orelse + stmt.finalbody:
                self._walk(inner)
            for handler in stmt.handlers:
                if handler.name is not None:
                    self.env[handler.name] = UNKNOWN
                for inner in handler.body:
                    self._walk(inner)
            return
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
            return
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)
            return
        # remaining statements (pass, import, del, ...) carry no facts

    def _bind_names(self, target: ast.AST) -> None:
        """Mark every plain name a binding construct introduces as local."""
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                self.env[node.id] = UNKNOWN

    def _record_binding(self, target: ast.AST, call_id: int) -> None:
        """Note which local name(s) a call's return value lands in."""
        call = self.out.calls[call_id]
        if isinstance(target, ast.Name):
            call["binds"] = target.id
        elif isinstance(target, (ast.Tuple, ast.List)) and all(
            isinstance(e, ast.Name) for e in target.elts
        ):
            call["binds"] = [e.id for e in target.elts]

    def _assign(
        self, target: ast.AST, value: AbsVal, line: int, augmented: bool = False
    ) -> None:
        if isinstance(target, ast.Name):
            if augmented and target.id in self.env:
                return  # keep the original binding's family
            self.env[target.id] = value
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, UNKNOWN, line)
            return
        if isinstance(target, ast.Subscript):
            node = target.value
            if (
                isinstance(node, ast.Name)
                and not self._is_local(node.id)
            ):
                self._effect("mutate-global", f"{node.id}[...]", line)
            return
        chain = attribute_chain(target)
        if chain is None:
            return
        root, attrs = chain
        if root == "self" and self.is_method:
            if len(attrs) == 1:
                self._effect("mutate-self", attrs[0], line)
            else:
                self._record_peer(target, attrs, kind="write")
                self._effect("mutate-field", f"{attrs[0]}:{attrs[1]}", line)
        elif root in self.out.params:
            self._effect("mutate-param", f"{root}:{attrs[0]}", line)
        elif not self._is_local(root):
            self._effect("mutate-global", f"{root}.{attrs[0]}", line)

    def _is_local(self, name: str) -> bool:
        """Whether ``name`` is bound inside this function (or is self)."""
        return (
            name in self.env
            or name in self.out.params
            or name in ("self", "cls")
        )


def _module_prefix(module: str | None, level: int) -> str:
    """Base package for a relative import of the given level."""
    if not module:
        return ""
    parts = module.split(".")
    # ``module`` already names the *module*; level 1 means its package
    if len(parts) < level:
        return ""
    return ".".join(parts[:-level])


def extract_summary(path: str, source: str, tree: ast.Module) -> FileSummary:
    """Build the :class:`FileSummary` of one parsed file."""
    from pathlib import Path

    module = module_name(Path(path))
    out = FileSummary(path=path, module=module)

    out.directives = [d.to_json() for d in Suppressions.scan(source).directives]
    out.local_findings = run_local_rules(tree, module)
    for node in tree.body:
        _extract_top_level(out, node, module)
    return out


def _record_module_calls(out: FileSummary, value: ast.AST) -> None:
    """Record every call a module-level statement executes at import."""
    for node in ast.walk(value):
        if isinstance(node, ast.Call):
            out.module_calls.append({
                "name": dotted_call_name(node.func) or "<expression>",
                "line": node.lineno,
                "col": node.col_offset,
            })


def _extract_top_level(out: FileSummary, node: ast.stmt, module: str | None) -> None:
    if isinstance(node, ast.Import):
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            out.imports[local] = alias.name if alias.asname else alias.name.split(".")[0]
    elif isinstance(node, ast.ImportFrom):
        base = node.module or ""
        if node.level:
            prefix = _module_prefix(module, node.level)
            base = f"{prefix}.{base}".strip(".") if base else prefix
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            out.imports[local] = f"{base}.{alias.name}" if base else alias.name
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        out.functions[node.name] = _FunctionExtractor(node, node.name, None).run()
    elif isinstance(node, ast.ClassDef):
        out.classes[node.name] = _extract_class(node)
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id not in out.module_globals:
                out.module_globals.append(target.id)
        _extract_constant(out, node)
        if node.value is not None:
            _record_module_calls(out, node.value)
    elif isinstance(node, ast.Expr):
        _record_module_calls(out, node.value)
    elif isinstance(node, (ast.If, ast.Try)):
        # TYPE_CHECKING guards and import fallbacks
        bodies: list[list[ast.stmt]] = []
        if isinstance(node, ast.If):
            bodies = [node.body, node.orelse]
        else:
            bodies = [node.body, node.orelse, node.finalbody] + [
                handler.body for handler in node.handlers
            ]
        for body in bodies:
            for inner in body:
                _extract_top_level(out, inner, module)


def _extract_class(node: ast.ClassDef) -> ClassSummary:
    out = ClassSummary(name=node.name, line=node.lineno)
    for base in node.bases:
        name = _annotation_name(base)
        if name is not None:
            out.bases.append(name)
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            out.fields[item.target.id] = _annotation_name(item.annotation)
        elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary = _FunctionExtractor(
                item, f"{node.name}.{item.name}", node.name
            ).run()
            out.methods[item.name] = summary
            if item.name == "__init__":
                _harvest_init_fields(out, item)
    return out


def _harvest_init_fields(out: ClassSummary, init: ast.FunctionDef) -> None:
    """Record ``self.x = Class(...)`` / annotated ``self.x`` as fields."""
    for node in ast.walk(init):
        targets: list[tuple[ast.AST, ast.AST | None]] = []
        if isinstance(node, ast.Assign):
            targets = [(t, node.value) for t in node.targets]
        elif isinstance(node, ast.AnnAssign):
            targets = [(node.target, None)]
        for target, value in targets:
            chain = attribute_chain(target)
            if chain is None or chain[0] != "self" or len(chain[1]) != 1:
                continue
            name = chain[1][0]
            annotation: str | None = None
            if isinstance(node, ast.AnnAssign):
                annotation = _annotation_name(node.annotation)
            elif isinstance(value, ast.Call):
                annotation = _annotation_name(value.func)
            out.fields.setdefault(name, annotation)


def _extract_constant(out: FileSummary, node: ast.Assign | ast.AnnAssign) -> None:
    """Seed module-level constants whose value has an obvious family."""
    if isinstance(node, ast.Assign):
        targets = node.targets
        value: ast.AST | None = node.value
    else:
        targets = [node.target]
        value = node.value
    if value is None:
        return
    probe = _FunctionExtractor(
        ast.FunctionDef(
            name="<module>", args=ast.arguments(
                posonlyargs=[], args=[], kwonlyargs=[], kw_defaults=[],
                defaults=[],
            ),
            body=[], decorator_list=[], lineno=node.lineno,
            col_offset=node.col_offset,
        ),
        "<module>", None,
    )
    abstract: Any = probe.eval(value)
    if abstract[0] != "fam":
        return
    for target in targets:
        if isinstance(target, ast.Name):
            out.constant_families[target.id] = abstract[1]
