"""Project symbol table and call graph.

Assembled fresh on every run from the (possibly cached) per-file
summaries — assembly is cheap; extraction is what the cache avoids.
Responsibilities:

* map dotted module names to summaries, and fully-qualified names to
  functions and classes;
* resolve the *syntactic* call targets recorded in summaries into
  fully-qualified function names, following imports and re-exports
  (``repro.hw.Fifo`` -> ``repro.hw.fifo.Fifo``), class constructors
  (``Fifo(...)`` -> ``Fifo.__init__``), ``self`` methods through base
  classes, and ``self.<field>.<method>()`` through field annotations;
* compute strongly-connected components of the call graph (Tarjan) so
  the propagation passes can run callees-before-callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.lint.graph.summary import ClassSummary, FileSummary, FunctionSummary


@dataclass
class ProjectIndex:
    """Whole-program lookup structure over file summaries."""

    files: list[FileSummary] = field(default_factory=list)
    modules: dict[str, FileSummary] = field(default_factory=dict)
    #: fully-qualified function name -> summary (methods included)
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    #: fully-qualified class name -> summary
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    #: function fq -> path of its file (diagnostics need positions)
    paths: dict[str, str] = field(default_factory=dict)
    #: function fq -> summary of its file (suppression lookups)
    file_of: dict[str, FileSummary] = field(default_factory=dict)

    @classmethod
    def build(cls, summaries: Iterable[FileSummary]) -> "ProjectIndex":
        index = cls()
        for summary in summaries:
            index.files.append(summary)
            if summary.module:
                index.modules[summary.module] = summary
            prefix = f"{summary.module}." if summary.module else f"{summary.path}::"
            for fn in summary.all_functions():
                fq = prefix + fn.name
                index.functions[fq] = fn
                index.paths[fq] = summary.path
                index.file_of[fq] = summary
            for klass in summary.classes.values():
                index.classes[prefix + klass.name] = klass
        return index

    # -- name resolution ----------------------------------------------
    def function_fq(self, fn: FunctionSummary) -> str | None:
        """Inverse lookup (only used by tests and error paths)."""
        for fq, candidate in self.functions.items():
            if candidate is fn:
                return fq
        return None

    def resolve_dotted(self, dotted: str, _depth: int = 0) -> str | None:
        """Resolve a dotted name to a function fq, following re-exports.

        ``repro.hw.Fifo`` lands on the ``Fifo`` import binding inside
        ``repro/hw/__init__.py`` and follows it to
        ``repro.hw.fifo.Fifo.__init__``.  Returns ``None`` for names
        outside the analysed project (stdlib, third-party).
        """
        if _depth > 8:
            return None
        if dotted in self.functions:
            return dotted
        if dotted in self.classes:
            return self._constructor(dotted)
        # split into the longest known module prefix plus a remainder
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            summary = self.modules.get(module)
            if summary is None:
                continue
            remainder = parts[cut:]
            head = remainder[0]
            if head in summary.imports:
                # a re-export: follow the import binding
                target = ".".join([summary.imports[head]] + remainder[1:])
                return self.resolve_dotted(target, _depth + 1)
            # the longest module prefix owns the name but does not define
            # it (the direct function/class cases were checked above)
            return None
        return None

    def _constructor(self, class_fq: str) -> str | None:
        """``__init__`` (or ``__post_init__``) of a class, if summarised."""
        klass = self.classes.get(class_fq)
        if klass is None:
            return None
        for name in ("__init__", "__post_init__"):
            if name in klass.methods:
                return f"{class_fq}.{name}"
        return None

    def resolve_class_name(self, module: str | None, name: str) -> str | None:
        """Resolve a syntactic class/annotation name used inside ``module``."""
        if not name:
            return None
        summary = self.modules.get(module or "")
        root = name.split(".")[0]
        rest = name.split(".")[1:]
        candidates: list[str] = []
        if summary is not None:
            if root in summary.imports:
                candidates.append(".".join([summary.imports[root]] + rest))
            if not rest and module and f"{module}.{name}" not in candidates:
                candidates.append(f"{module}.{name}")
        candidates.append(name)
        for candidate in candidates:
            resolved = self._follow_reexport(candidate)
            if resolved in self.classes:
                return resolved
        return None

    def _follow_reexport(self, dotted: str, _depth: int = 0) -> str:
        """Chase import bindings (``repro.hw.Fifo`` -> concrete class fq)."""
        if _depth > 8 or dotted in self.classes:
            return dotted
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            summary = self.modules.get(module)
            if summary is None:
                continue
            head = parts[cut]
            if head in summary.imports:
                target = ".".join([summary.imports[head]] + parts[cut + 1:])
                return self._follow_reexport(target, _depth + 1)
            break
        return dotted

    def method_fq(self, class_fq: str, method: str, _depth: int = 0) -> str | None:
        """Method lookup walking project-local base classes."""
        if _depth > 8:
            return None
        klass = self.classes.get(class_fq)
        if klass is None:
            return None
        if method in klass.methods:
            return f"{class_fq}.{method}"
        module = class_fq.rsplit(".", 1)[0] if "." in class_fq else None
        for base in klass.bases:
            base_fq = self.resolve_class_name(module, base)
            if base_fq is not None:
                found = self.method_fq(base_fq, method, _depth + 1)
                if found is not None:
                    return found
        return None

    def field_class(self, class_fq: str, field_name: str) -> str | None:
        """Resolved class fq of a field's annotation, if any."""
        klass = self.classes.get(class_fq)
        if klass is None:
            return None
        annotation = klass.fields.get(field_name)
        if annotation is None:
            return None
        module = class_fq.rsplit(".", 1)[0] if "." in class_fq else None
        return self.resolve_class_name(module, annotation)

    def resolve_call(self, caller_fq: str, target: tuple) -> str | None:
        """Fully-qualified callee of one recorded call site, or ``None``."""
        summary = self.file_of.get(caller_fq)
        module = summary.module if summary is not None else None
        caller = self.functions.get(caller_fq)
        local_imports = caller.local_imports if caller is not None else {}
        kind = target[0]
        if kind == "name":
            name = target[1]
            if name in local_imports:
                return self.resolve_dotted(local_imports[name])
            if summary is not None and name in summary.imports:
                return self.resolve_dotted(summary.imports[name])
            if module:
                local = f"{module}.{name}"
                if local in self.functions:
                    return local
                if local in self.classes:
                    return self._constructor(local)
            return None
        if kind == "dotted":
            dotted = target[1]
            parts = dotted.split(".")
            root = parts[0]
            if root in local_imports:
                rebased = ".".join([local_imports[root]] + parts[1:])
                return self.resolve_dotted(rebased)
            if summary is not None and root in summary.imports:
                rebased = ".".join([summary.imports[root]] + parts[1:])
                return self.resolve_dotted(rebased)
            resolved = self.resolve_dotted(dotted)
            if resolved is None and len(parts) == 2:
                # ``sim = Simulation(...); sim.run_until(...)`` — follow
                # the constructor binding recorded on the call site
                class_fq = self._bound_class(caller_fq, root)
                if class_fq is not None:
                    return self.method_fq(class_fq, parts[1])
            return resolved
        if kind == "new":
            class_fq = self.class_in_scope(caller_fq, target[1])
            return None if class_fq is None else self.method_fq(class_fq, target[2])
        if kind == "self":
            class_fq = self._owner_class(caller_fq)
            if class_fq is None:
                return None
            return self.method_fq(class_fq, target[1])
        if kind == "selfattr":
            class_fq = self._owner_class(caller_fq)
            if class_fq is None:
                return None
            field_fq = self.field_class(class_fq, target[1])
            if field_fq is None:
                return None
            return self.method_fq(field_fq, target[2])
        return None

    def class_in_scope(self, caller_fq: str, name: str) -> str | None:
        """Summarised class a (dotted) name denotes inside ``caller_fq``.

        Function-body imports shadow the module's own bindings.
        """
        caller = self.functions.get(caller_fq)
        root, _, rest = name.partition(".")
        if caller is not None and root in caller.local_imports:
            candidate = self._follow_reexport(
                ".".join(filter(None, [caller.local_imports[root], rest]))
            )
            if candidate in self.classes:
                return candidate
        summary = self.file_of.get(caller_fq)
        return self.resolve_class_name(
            summary.module if summary is not None else None, name
        )

    def _bound_class(self, caller_fq: str, name: str) -> str | None:
        """Class whose constructor's result ``name`` is bound to, if any.

        Scans the caller's recorded call sites for ``name = Klass(...)``
        and resolves ``Klass`` to a summarised class — the one form of
        local dataflow the call graph follows, because simulator drivers
        are invoked exactly this way from the worker entry points.
        """
        caller = self.functions.get(caller_fq)
        if caller is None:
            return None
        for call in caller.calls:
            if call["binds"] == name and call["target"][0] == "name":
                resolved = self.class_in_scope(caller_fq, call["target"][1])
                if resolved is not None:
                    return resolved
        return None

    def _owner_class(self, method_fq: str) -> str | None:
        fn = self.functions.get(method_fq)
        if fn is None or fn.class_name is None:
            return None
        # strip ".<Class>.<method>" and re-append the class
        head = method_fq.rsplit(".", 2)[0]
        return f"{head}.{fn.class_name}"

    # -- call graph ----------------------------------------------------
    def call_edges(self) -> dict[str, list[tuple[str, dict]]]:
        """``caller fq -> [(callee fq, call-site record), ...]``."""
        edges: dict[str, list[tuple[str, dict]]] = {}
        for fq, fn in self.functions.items():
            resolved: list[tuple[str, dict]] = []
            for call in fn.calls:
                callee = self.resolve_call(fq, call["target"])
                if callee is not None:
                    resolved.append((callee, call))
            edges[fq] = resolved
        return edges

    def sccs(self) -> list[list[str]]:
        """Strongly-connected components in reverse topological order.

        Tarjan's algorithm emits each component only after all the
        components it calls into, which is exactly the order the effect
        and unit-flow propagations want (callees first).  Iterative, so
        deep call chains cannot hit the recursion limit.
        """
        edges = {
            caller: [callee for callee, _ in callees]
            for caller, callees in self.call_edges().items()
        }
        index: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        components: list[list[str]] = []
        counter = 0

        for root in sorted(edges):
            if root in index:
                continue
            work: list[tuple[str, int]] = [(root, 0)]
            while work:
                node, child_index = work.pop()
                if child_index == 0:
                    index[node] = lowlink[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                children = edges.get(node, [])
                advanced = False
                for position in range(child_index, len(children)):
                    child = children[position]
                    if child not in edges:
                        continue
                    if child not in index:
                        work.append((node, position + 1))
                        work.append((child, 0))
                        advanced = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], index[child])
                if advanced:
                    continue
                if lowlink[node] == index[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        return components
