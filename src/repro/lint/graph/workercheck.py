"""Worker-entry hygiene for the process-pool execution layer.

``repro.parallel`` ships work to forked/spawned processes that import
worker entry functions by qualified name.  That only stays deterministic
and safe under three structural facts, which this pass enforces over the
package (see ``docs/performance.md``, "Parallel execution"):

* **entries are module-level** — a ``worker_*`` method (or nested
  function) cannot be pickled by reference, and would silently capture
  parent instance state a child process does not have;
* **the workers module is import-pure** — importing
  ``repro.parallel.workers`` must run no code beyond ``def``/``import``,
  so every pool process observes exactly the module the parent did and
  results cannot depend on import order or import-time side effects;
* **heavy subsystems are imported lazily** — binding ``repro.engine`` /
  ``repro.core`` / ``repro.hw`` at module scope would both slow every
  worker start-up and close an import cycle (the engine itself imports
  ``repro.parallel.plan``); entries import them inside the body instead.

Entries also take exactly one task argument: ``ParallelPlan.map`` ships
one picklable tuple per task, so a second parameter can only ever be
dead or defaulted — either way a latent divergence between the serial
and the pooled call.
"""

from __future__ import annotations

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.graph.symbols import ProjectIndex

#: the package whose files this pass inspects (the one that ships work
#: to pool processes)
PACKAGE = "repro.parallel"
#: the module holding the pool entry points
WORKERS_MODULE = "repro.parallel.workers"
#: naming convention marking a function as a pool entry
ENTRY_PREFIX = "worker_"

#: definition-time machinery allowed at module scope in the workers
#: module (pure, deterministic, no observable import-order effects)
DEF_TIME_CALLS = {"TypeVar", "dataclass", "field", "namedtuple", "frozenset"}

#: ``repro`` subtrees a worker module may import eagerly; everything
#: else in ``repro`` must be imported inside the entry body
EAGER_IMPORT_OK = ("repro.parallel", "repro.errors", "repro.units")


def _in_package(module: str | None) -> bool:
    return module is not None and (
        module == PACKAGE or module.startswith(PACKAGE + ".")
    )


def _eager_import_allowed(dotted: str) -> bool:
    if not dotted.startswith("repro"):
        return True  # stdlib and numpy are cheap and fork-safe
    return any(
        dotted == prefix or dotted.startswith(prefix + ".")
        for prefix in EAGER_IMPORT_OK
    )


def check_worker_entries(index: ProjectIndex) -> list[Diagnostic]:
    """Emit ``worker-entry`` diagnostics over ``repro.parallel``."""
    out: list[Diagnostic] = []
    for summary in index.files:
        if not _in_package(summary.module):
            continue
        # Entries must be module-level wherever they appear in the
        # package: a method cannot be imported by qualified name from a
        # pool process.
        for klass in summary.classes.values():
            for method in klass.methods.values():
                name = method.name.split(".")[-1]
                if name.startswith(ENTRY_PREFIX):
                    out.append(Diagnostic(
                        path=summary.path, line=method.line,
                        column=method.col, rule="worker-entry",
                        message=(
                            f"worker entry {name}() is a method of "
                            f"{klass.name}; pool processes import entries "
                            "by module-level qualified name, so entries "
                            "must be top-level functions"
                        ),
                        severity=Severity.ERROR,
                    ))
        if summary.module != WORKERS_MODULE:
            continue
        for fn in summary.functions.values():
            if fn.name.startswith(ENTRY_PREFIX) and len(fn.params) != 1:
                out.append(Diagnostic(
                    path=summary.path, line=fn.line, column=fn.col,
                    rule="worker-entry",
                    message=(
                        f"worker entry {fn.name}() takes "
                        f"{len(fn.params)} parameters; "
                        "ParallelPlan.map ships exactly one task "
                        "tuple per call"
                    ),
                    severity=Severity.ERROR,
                ))
        for call in summary.module_calls:
            if call["name"] in DEF_TIME_CALLS:
                continue
            out.append(Diagnostic(
                path=summary.path, line=call["line"], column=call["col"],
                rule="worker-entry",
                message=(
                    f"module-level call {call['name']}() runs at import "
                    "time; the workers module must stay import-pure so "
                    "every pool process observes identical module state"
                ),
                severity=Severity.ERROR,
            ))
        for local, dotted in sorted(summary.imports.items()):
            if _eager_import_allowed(dotted):
                continue
            out.append(Diagnostic(
                path=summary.path, line=1, column=0, rule="worker-entry",
                message=(
                    f"module-scope import of {dotted} (as {local}); "
                    "worker entries import heavy subsystems lazily "
                    "inside the function body (cheap worker start-up, "
                    "no engine<->parallel import cycle)"
                ),
                severity=Severity.ERROR,
            ))
    return out
