"""Interprocedural exception-flow analysis.

The per-file ``error-taxonomy`` rule bans raising bare builtins; this
pass follows what actually *escapes*.  For every function it computes
the set of exception types that may propagate out — raise sites minus
the handlers lexically protecting them, plus everything escaping from
resolved callees minus the handlers around those call sites — with the
subtraction aware of the :mod:`repro.errors` taxonomy hierarchy (an
``except BonsaiError`` catches ``ConfigurationError``; an ``except
ValueError`` catches it too, through its dual inheritance) and of the
builtin exception hierarchy.

Rules:

``exn-escape``
    a known non-``BonsaiError`` type escapes a public CLI entry point
    (a ``main()`` in any ``repro.*`` module, or a ``_cmd_*`` handler in
    ``repro.cli``).  ``bonsai``'s contract is that every failure
    surfaces as a taxonomy error with exit code 2; anything else is a
    traceback in the user's face.
``exn-swallow``
    a handler catches an exception and drops it — its body is nothing
    but ``pass``/``continue``/docstring — without re-raising, logging,
    or computing a fallback.
``exn-broad-fallback``
    ``except Exception`` (or broader) inside ``repro.parallel``, where
    the serial-recompute fallback paths depend on *precise*
    catches: a broad catch there turns a real worker bug into a silent
    serial recompute.
``exn-dead-handler``
    a handler for a taxonomy type that no raise or resolved call in its
    ``try`` body can produce.  Only fires when the body's call closure
    is fully analysable (every call resolves in-project or is clearly
    stdlib/builtin) — an opaque callback could raise anything, so those
    try blocks are skipped rather than guessed at.

Two subtraction subtleties are deliberate: a handler containing a bare
``raise`` does not subtract its types (it re-raises what it caught),
and a raise of an *unresolvable* name (``raise err`` through a
variable) escapes as the unknown marker, which only ``except`` /
``except Exception``-or-broader handlers subtract and which suppresses
``exn-escape``/``exn-dead-handler`` findings it reaches — unknowns are
never reported, only known types are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.graph.symbols import ProjectIndex

#: the taxonomy root every public failure must derive from
BONSAI_ERROR = "repro.errors.BonsaiError"

#: escapes every entry point may pass through untranslated
ENTRY_ALLOWED = frozenset({"SystemExit", "KeyboardInterrupt", "GeneratorExit"})

#: modules whose broad catches are load-bearing-precise fallback paths
FALLBACK_PREFIX = "repro.parallel."

#: marker for a raise whose type the analysis cannot resolve
UNKNOWN = "?"

#: builtin exception -> its base, the slice of the stdlib hierarchy the
#: subtraction needs (anything absent is treated as a direct Exception)
BUILTIN_BASES: dict[str, str] = {
    "Exception": "BaseException",
    "SystemExit": "BaseException",
    "KeyboardInterrupt": "BaseException",
    "GeneratorExit": "BaseException",
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "BufferError": "Exception",
    "EOFError": "Exception",
    "ImportError": "Exception",
    "ModuleNotFoundError": "ImportError",
    "LookupError": "Exception",
    "IndexError": "LookupError",
    "KeyError": "LookupError",
    "MemoryError": "Exception",
    "NameError": "Exception",
    "UnboundLocalError": "NameError",
    "OSError": "Exception",
    "FileNotFoundError": "OSError",
    "FileExistsError": "OSError",
    "PermissionError": "OSError",
    "IsADirectoryError": "OSError",
    "NotADirectoryError": "OSError",
    "InterruptedError": "OSError",
    "TimeoutError": "OSError",
    "ConnectionError": "OSError",
    "BrokenPipeError": "ConnectionError",
    "ReferenceError": "Exception",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "StopIteration": "Exception",
    "StopAsyncIteration": "Exception",
    "SyntaxError": "Exception",
    "IndentationError": "SyntaxError",
    "SystemError": "Exception",
    "TypeError": "Exception",
    "ValueError": "Exception",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "Warning": "Exception",
}

#: builtin callables that cannot raise project taxonomy types, for the
#: dead-handler completeness judgement
_SAFE_BUILTIN_CALLS = frozenset({
    "int", "float", "str", "bytes", "bool", "len", "repr", "format",
    "sorted", "min", "max", "sum", "abs", "round", "list", "dict",
    "tuple", "set", "frozenset", "range", "enumerate", "zip", "map",
    "filter", "isinstance", "issubclass", "getattr", "setattr",
    "hasattr", "print", "open", "iter", "next", "divmod", "any", "all",
    "id", "hash", "vars", "type",
})


@dataclass
class ExceptionFlow:
    """Escaped-exception sets and their provenance over the call graph."""

    index: ProjectIndex
    #: function fq -> {type key -> origin}; origin is
    #: ``("raise", line, col)`` or ``("call", callee fq)``
    escapes: dict[str, dict[str, tuple]] = field(default_factory=dict)
    #: function fq -> whether its call closure is fully analysable
    complete: dict[str, bool] = field(default_factory=dict)

    def solve(self) -> None:
        seeds = {
            fq: self._seed(fq, fn)
            for fq, fn in self.index.functions.items()
        }
        for fq in self.index.functions:
            self.escapes[fq] = dict(seeds[fq])
        for component in self.index.sccs():
            for _ in range(2 if len(component) > 1 else 1):
                for fq in component:
                    self._propagate(fq)
        self._solve_complete()

    # -- type resolution ----------------------------------------------
    def canon(self, fq: str, name: str | None) -> str | None:
        """Canonical key of a syntactic exception name, ``UNKNOWN``
        for an unresolvable bare name, ``None`` for no name at all."""
        if name is None:
            return None
        summary = self.index.file_of.get(fq)
        module = summary.module if summary is not None else None
        fn = self.index.functions.get(fq)
        if fn is not None and name.split(".")[0] in fn.local_imports:
            parts = name.split(".")
            rebased = ".".join(
                [fn.local_imports[parts[0]]] + parts[1:]
            )
            resolved = self.index.resolve_class_name(module, rebased)
            if resolved is not None:
                return resolved
            name = rebased
        resolved = self.index.resolve_class_name(module, name)
        if resolved is not None:
            return resolved
        if name in BUILTIN_BASES or name == "BaseException":
            return name
        if "." in name:
            return name  # foreign but named (e.g. argparse.ArgumentTypeError)
        return UNKNOWN

    def bases(self, key: str) -> list[str]:
        if key in ("BaseException", UNKNOWN):
            return []
        klass = self.index.classes.get(key)
        if klass is not None:
            module = key.rsplit(".", 1)[0]
            out = []
            for base in klass.bases:
                resolved = self.index.resolve_class_name(module, base)
                out.append(resolved if resolved is not None else base)
            return out
        if key in BUILTIN_BASES:
            return [BUILTIN_BASES[key]]
        return ["Exception"]  # foreign dotted types

    def is_subtype(self, key: str, ancestor: str) -> bool:
        seen = set()
        frontier = [key]
        while frontier:
            current = frontier.pop()
            if current == ancestor:
                return True
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.bases(current))
        return False

    def _catches(self, fq: str, handler: dict, key: str) -> bool:
        if handler.get("bare_reraise"):
            return False  # re-raises what it caught; no subtraction
        if handler.get("bare"):
            return True
        for name in handler.get("types", []):
            caught = self.canon(fq, name)
            if caught is None or caught == UNKNOWN:
                continue
            if key == UNKNOWN:
                if caught in ("Exception", "BaseException"):
                    return True
            elif self.is_subtype(key, caught):
                return True
        return False

    def caught_by(self, fq: str, guards: list[int], key: str) -> bool:
        fn = self.index.functions.get(fq)
        tries = fn.flow.get("tries", []) if fn is not None else []
        for try_id in guards:
            if try_id >= len(tries):
                continue
            for handler in tries[try_id]["handlers"]:
                if self._catches(fq, handler, key):
                    return True
        return False

    # -- propagation ---------------------------------------------------
    def _seed(self, fq: str, fn) -> dict[str, tuple]:
        out: dict[str, tuple] = {}
        for record in fn.flow.get("raises", []):
            key = self.canon(fq, record["type"])
            if key is None:
                continue  # bare re-raise: covered by non-subtraction
            if self.caught_by(fq, record["guards"], key):
                continue
            out.setdefault(key, ("raise", record["line"], record["col"]))
        return out

    def _propagate(self, fq: str) -> None:
        fn = self.index.functions.get(fq)
        if fn is None:
            return
        mine = self.escapes[fq]
        for call in fn.flow.get("calls", []):
            callee = self.index.resolve_call(fq, call["target"])
            if callee is None:
                continue
            for key in self.escapes.get(callee, ()):
                if key in mine:
                    continue
                if self.caught_by(fq, call["guards"], key):
                    continue
                mine[key] = ("call", callee)

    def _solve_complete(self) -> None:
        for fq, fn in self.index.functions.items():
            self.complete[fq] = all(
                self._call_analysable(fq, fn, call)[0]
                for call in fn.flow.get("calls", [])
            )
        for _ in range(12):
            changed = False
            for fq, fn in self.index.functions.items():
                if not self.complete[fq]:
                    continue
                for call in fn.flow.get("calls", []):
                    callee = self.index.resolve_call(fq, call["target"])
                    if callee is not None and not self.complete.get(
                        callee, False
                    ):
                        self.complete[fq] = False
                        changed = True
                        break
            if not changed:
                break

    def _call_analysable(
        self, fq: str, fn, call: dict
    ) -> tuple[bool, str | None]:
        """``(analysable, resolved callee)`` for the dead-handler check."""
        callee = self.index.resolve_call(fq, call["target"])
        if callee is not None:
            return True, callee
        target = call["target"]
        if target[0] == "name":
            name = target[1]
            if name in fn.params:
                return False, None  # a callback could raise anything
            if name in _SAFE_BUILTIN_CALLS:
                return True, None
            binding = fn.local_imports.get(name)
            if binding is None:
                summary = self.index.file_of.get(fq)
                binding = (
                    summary.imports.get(name) if summary is not None else None
                )
            if binding is not None and not binding.startswith("repro"):
                return True, None  # resolved import outside the project
            return False, None
        if target[0] == "dotted":
            root = target[1].split(".")[0]
            summary = self.index.file_of.get(fq)
            binding = fn.local_imports.get(root) or (
                summary.imports.get(root) if summary is not None else None
            )
            if binding is not None and not binding.startswith("repro"):
                return True, None  # stdlib/third-party module call
            return False, None
        return False, None

    # -- provenance ----------------------------------------------------
    def trail(self, fq: str, key: str, limit: int = 8) -> list[tuple]:
        """``[(fq, origin), ...]`` hops from ``fq`` to the raise site."""
        steps: list[tuple] = []
        current = fq
        for _ in range(limit):
            origin = self.escapes.get(current, {}).get(key)
            if origin is None:
                break
            steps.append((current, origin))
            if origin[0] == "raise":
                break
            current = origin[1]
        return steps


def _is_entry(fq: str, module: str) -> bool:
    name = fq.rsplit(".", 1)[-1]
    if module == "repro.cli" and name.startswith("_cmd_"):
        return True
    return name == "main" and module.startswith("repro")


def _related_chain(
    index: ProjectIndex, flow: ExceptionFlow, fq: str, key: str
) -> tuple:
    related = []
    for hop_fq, origin in flow.trail(fq, key):
        path = index.paths.get(hop_fq)
        if path is None:
            continue
        if origin[0] == "raise":
            related.append({
                "path": path, "line": origin[1], "column": origin[2],
                "message": f"{key} raised here in {hop_fq}()",
            })
        else:
            fn = index.functions.get(hop_fq)
            if fn is not None:
                related.append({
                    "path": path, "line": fn.line, "column": fn.col,
                    "message": f"{key} passes through {hop_fq}()",
                })
    return tuple(related)


def check_exception_flow(index: ProjectIndex) -> list[Diagnostic]:
    """Emit ``exn-*`` diagnostics over the whole program."""
    flow = ExceptionFlow(index)
    flow.solve()
    out: list[Diagnostic] = []

    for fq, fn in index.functions.items():
        summary = index.file_of[fq]
        module = summary.module or ""
        if not module.startswith("repro"):
            continue
        path = index.paths[fq]
        facts = fn.flow

        if _is_entry(fq, module):
            for key in sorted(flow.escapes.get(fq, ())):
                if key == UNKNOWN or key in ENTRY_ALLOWED:
                    continue
                if flow.is_subtype(key, BONSAI_ERROR):
                    continue
                out.append(Diagnostic(
                    path=path, line=fn.line, column=fn.col,
                    rule="exn-escape",
                    message=(
                        f"non-taxonomy exception {key} can escape CLI "
                        f"entry point {fq}(); catch it or convert it to "
                        "a BonsaiError subclass so the CLI exits 2 with "
                        "a message instead of a traceback"
                    ),
                    severity=Severity.ERROR,
                    related=_related_chain(index, flow, fq, key),
                ))

        for record in facts.get("tries", []):
            for handler in record["handlers"]:
                what = (
                    "everything"
                    if handler["bare"] else ", ".join(handler["types"])
                )
                if handler["swallows"]:
                    out.append(Diagnostic(
                        path=path, line=handler["line"],
                        column=handler["col"], rule="exn-swallow",
                        message=(
                            f"handler catches {what} and drops it; "
                            "re-raise, log, or compute a fallback so "
                            "the failure leaves a trace"
                        ),
                        severity=Severity.WARNING,
                    ))
                if module.startswith(FALLBACK_PREFIX[:-1]) and (
                    handler["bare"] or any(
                        flow.canon(fq, name) in ("Exception", "BaseException")
                        for name in handler["types"]
                    )
                ):
                    out.append(Diagnostic(
                        path=path, line=handler["line"],
                        column=handler["col"], rule="exn-broad-fallback",
                        message=(
                            f"broad catch ({what}) in the parallel "
                            "fallback path masks real worker bugs as "
                            "timeouts; catch the precise failure types"
                        ),
                        severity=Severity.WARNING,
                    ))
            _check_dead_handlers(index, flow, fq, fn, record, out)

    return out


def _check_dead_handlers(
    index: ProjectIndex,
    flow: ExceptionFlow,
    fq: str,
    fn,
    record: dict,
    out: list[Diagnostic],
) -> None:
    taxonomy_handlers = []
    for handler in record["handlers"]:
        if handler["bare"] or len(handler["types"]) != 1:
            continue
        key = flow.canon(fq, handler["types"][0])
        if (
            key is not None
            and key in index.classes
            and flow.is_subtype(key, BONSAI_ERROR)
        ):
            taxonomy_handlers.append((handler, key))
    if not taxonomy_handlers:
        return

    try_id = record["id"]
    possible: set[str] = set()
    for raised in fn.flow.get("raises", []):
        if try_id not in raised["guards"]:
            continue
        key = flow.canon(fq, raised["type"])
        if key is None and "caught" in raised:
            return  # a bare re-raise inside the body: give up
        if key is not None:
            possible.add(key)
    for call in fn.flow.get("calls", []):
        if try_id not in call["guards"]:
            continue
        analysable, callee = flow._call_analysable(fq, fn, call)
        if not analysable:
            return
        if callee is None:
            continue
        if not flow.complete.get(callee, False):
            return
        possible.update(flow.escapes.get(callee, ()))
    if UNKNOWN in possible:
        return

    for handler, key in taxonomy_handlers:
        if any(flow.is_subtype(raised, key) for raised in possible):
            continue
        out.append(Diagnostic(
            path=index.paths[fq], line=handler["line"],
            column=handler["col"], rule="exn-dead-handler",
            message=(
                f"handler for {handler['types'][0]} is unreachable: no "
                "raise or resolved call in the try body can produce it; "
                "drop the handler or fix the type"
            ),
            severity=Severity.WARNING,
        ))
