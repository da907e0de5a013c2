"""Process-safety analysis for the parallel execution layer.

``repro.parallel`` ships tasks to pool processes; anything a worker
writes outside its task result silently diverges between serial and
pooled runs, and anything unpicklable in a task blows up only at
dispatch time.  From the worker-entry roots established by the
worker-entry pass, this pass walks the call graph (conservatively
including every ``repro.hw`` component's per-cycle methods once a
simulator driver is reachable — the simulator dispatches to components
dynamically) and reports:

``proc-global-write``
    worker-reachable code rebinds a module global (``global`` statement)
    or writes through a module-level name / class attribute.  The
    sanctioned escape hatch for cross-process state is the
    ``repro.obs`` ``worker_observation``/``absorb`` payload path, so
    that package is exempt.
``proc-unpicklable``
    a worker-reachable function's parameter annotation resolves to a
    class holding known-unpicklable members (thread locks, open file
    handles, shared-memory blocks, tracers), or a value it unpacks from
    a parameter (a worker's ``task: tuple``) feeds a call parameter or
    dataclass field declared as such a class.
``proc-shm-lifetime``
    shared-memory lifetime bugs, on either side of the fork: an owning
    allocation (``SharedMemory(create=...)`` or the project allocators
    ``pack_arrays``) that is neither released,
    unlinked, nor returned to the caller; an owning allocation whose
    result is not even bound; any call through a block name after
    that block's ``close()``; and an arena lease
    (:func:`repro.parallel.plan.lease`) taken anywhere but as a ``with``
    statement's context expression, where an exception before its exit
    would leave the warm arena held.

Known approximations, kept deliberately: ownership tracking is
name-based within one function (returning the block transfers
ownership to the caller, which is the documented false-positive
guard), and use-after-``close`` compares source line order, so a
re-open inside a loop below the ``close`` would be missed rather than
misreported.
"""

from __future__ import annotations

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.graph.symbols import ProjectIndex
from repro.lint.graph.workercheck import ENTRY_PREFIX, WORKERS_MODULE

#: packages allowed to manage cross-process state: the observability
#: runtime implements the sanctioned worker_observation/absorb path
SANCTIONED_PREFIXES: tuple[str, ...] = ("repro.obs.",)

#: reaching any of these pulls every hw component's per-cycle methods
#: into the worker-reachable set (dynamic dispatch via Simulation)
SIMULATOR_DRIVERS: tuple[str, ...] = (
    "repro.hw.clock.Simulation.run",
    "repro.hw.clock.Simulation.step",
    "repro.hw.clock.Simulation.run_until",
)

#: class-member annotations (matched on the last dotted component) that
#: do not survive pickling into a pool process
UNPICKLABLE_MEMBERS: frozenset[str] = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "Event", "Barrier", "Thread", "SharedMemory", "open",
    "TextIOWrapper", "BufferedReader", "BufferedWriter", "FileIO",
    "Popen", "socket", "Tracer", "JsonlSink",
})

#: project-level owning allocators: the caller receives an unlinked
#: shared-memory block and must release() it or pass it on
OWNING_ALLOCATORS: frozenset[str] = frozenset({
    "repro.parallel.shm.pack_arrays",
})

RELEASE_FUNCTION = "repro.parallel.shm.release"

#: hands out the process's shared-memory arena; a ``with`` statement is
#: the only accepted proof that the lease is returned on every path
LEASE_FUNCTION = "repro.parallel.plan.lease"

#: component methods the simulator dispatches to dynamically, which a
#: static call graph cannot follow
COMPONENT_ROOT_METHODS: tuple[str, ...] = ("tick",)


def _component_roots(index: ProjectIndex) -> set[str]:
    """Per-cycle methods of every ``repro.hw`` component class."""
    roots: set[str] = set()
    for class_fq, klass in index.classes.items():
        module = class_fq.rsplit(".", 1)[0]
        if not module.startswith("repro.hw"):
            continue
        if not klass.has_tick:
            continue
        for method in COMPONENT_ROOT_METHODS:
            if method in klass.methods:
                roots.add(f"{class_fq}.{method}")
    return roots


def _worker_reachable(index: ProjectIndex) -> set[str]:
    """Closure of the call graph from the ``worker_*`` entry points."""
    roots = {
        fq for fq, fn in index.functions.items()
        if index.file_of[fq].module == WORKERS_MODULE
        and fq.rsplit(".", 1)[-1].startswith(ENTRY_PREFIX)
        and fn.class_name is None
    }
    edges = index.call_edges()
    seen = set(roots)
    frontier = list(roots)
    while frontier:
        fq = frontier.pop()
        for callee, _ in edges.get(fq, ()):
            if callee not in seen:
                seen.add(callee)
                frontier.append(callee)
    if any(driver in seen for driver in SIMULATOR_DRIVERS):
        for root in sorted(_component_roots(index)):
            if root not in seen:
                seen.add(root)
                frontier.append(root)
        while frontier:
            fq = frontier.pop()
            for callee, _ in edges.get(fq, ()):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
    return seen


def _sanctioned(module: str | None) -> bool:
    return module is not None and module.startswith(SANCTIONED_PREFIXES)


def _is_shared_memory_call(call: dict) -> bool:
    target = call["target"]
    if target[0] == "name":
        return target[1] == "SharedMemory"
    if target[0] == "dotted":
        return target[1].split(".")[-1] == "SharedMemory"
    return False


def _global_write_findings(
    index: ProjectIndex, reachable: set[str]
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for fq in sorted(reachable):
        fn = index.functions.get(fq)
        summary = index.file_of.get(fq)
        if fn is None or summary is None or _sanctioned(summary.module):
            continue
        known = (
            set(summary.module_globals)
            | set(summary.classes)
            | set(summary.imports)
        )
        short = fq[len("repro."):] if fq.startswith("repro.") else fq
        for effect in fn.effects:
            if effect["kind"] == "global":
                message = (
                    f"worker-reachable {short}() rebinds module "
                    f"global(s) {effect['detail']} via a global "
                    "statement; pool processes never ship that state "
                    "back — route it through the worker_observation/"
                    "absorb payload instead"
                )
            elif effect["kind"] == "mutate-global":
                root = effect["detail"].split(".")[0].split("[")[0]
                if root not in known:
                    continue
                message = (
                    f"worker-reachable {short}() writes module-level "
                    f"state {effect['detail']}; each pool process "
                    "mutates its own copy, so serial and pooled runs "
                    "diverge — route cross-process state through the "
                    "worker_observation/absorb payload"
                )
            else:
                continue
            out.append(Diagnostic(
                path=index.paths[fq], line=effect["line"], column=0,
                rule="proc-global-write", message=message,
                severity=Severity.ERROR,
            ))
    return out


def _unpicklable_findings(
    index: ProjectIndex, reachable: set[str]
) -> list[Diagnostic]:
    tainted: dict[str, tuple[str, str]] = {}
    for class_fq, klass in index.classes.items():
        for field_name, annotation in sorted(klass.fields.items()):
            if annotation is None:
                continue
            if annotation.split(".")[-1] in UNPICKLABLE_MEMBERS:
                tainted.setdefault(class_fq, (field_name, annotation))
    if not tainted:
        return []
    out: list[Diagnostic] = []
    for fq in sorted(reachable):
        fn = index.functions.get(fq)
        summary = index.file_of.get(fq)
        if fn is None or summary is None:
            continue
        short = fq[len("repro."):] if fq.startswith("repro.") else fq
        typed = [
            (f"takes {param}: {annotation}", summary.module, annotation)
            for param, annotation in sorted(fn.param_annotations.items())
        ] + _unpacked_types(index, fq, fn)
        for how, module, annotation in typed:
            resolved = index.resolve_class_name(module, annotation)
            if resolved is None or resolved not in tainted:
                continue
            field_name, member = tainted[resolved]
            out.append(Diagnostic(
                path=index.paths[fq], line=fn.line, column=fn.col,
                rule="proc-unpicklable",
                message=(
                    f"worker-reachable {short}() {how}, whose member "
                    f"'{field_name}' ({member}) cannot be pickled into a "
                    "pool process; pass a picklable descriptor and "
                    "rebuild the object inside the worker"
                ),
                severity=Severity.ERROR,
            ))
    return out


def _declared_parameters(
    index: ProjectIndex, fq: str, target: tuple
) -> tuple[str | None, list[str], dict[str, str | None]] | None:
    """``(module, params, annotations)`` a call's arguments bind to.

    A function's (or ``__init__``'s) parameters; for a class whose
    constructor takes no parameters of its own (a dataclass), its fields.
    """
    callee = index.resolve_call(fq, target)
    fn = index.functions.get(callee) if callee is not None else None
    if fn is not None and fn.params:
        return index.file_of[callee].module, fn.params, fn.param_annotations
    if target[0] not in ("name", "dotted"):
        return None
    klass = index.class_in_scope(fq, target[1])
    if klass is None:
        return None
    fields = index.classes[klass].fields
    return klass.rsplit(".", 1)[0], list(fields), fields


def _unpacked_types(
    index: ProjectIndex, fq: str, fn
) -> list[tuple[str, str | None, str]]:
    """``(how, module, annotation)`` for each unpacked name a call types.

    A name unpacked from a parameter (a worker's ``task: tuple``) has no
    annotation of its own; the parameter or field it is passed to
    declares its type.
    """
    out: list[tuple[str, str | None, str]] = []
    for call in fn.calls:
        passed = list(enumerate(call["arg_names"]))
        passed += sorted(call["kwarg_names"].items())
        passed = [(slot, name) for slot, name in passed if name in fn.unpacked]
        declared = (
            _declared_parameters(index, fq, call["target"]) if passed else None
        )
        if declared is None:
            continue
        module, params, annotations = declared
        for slot, name in passed:
            if isinstance(slot, int):
                slot = params[slot] if slot < len(params) else None
            annotation = annotations.get(slot)
            if annotation is not None:
                out.append((
                    f"unpacks {name} from a parameter and passes it as "
                    f"{slot}: {annotation}", module, annotation,
                ))
    return out


def _shm_lifetime_findings(index: ProjectIndex) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for fq in sorted(index.functions):
        fn = index.functions[fq]
        summary = index.file_of.get(fq)
        if summary is None or not (summary.module or "").startswith("repro."):
            continue
        short = fq[len("repro."):] if fq.startswith("repro.") else fq
        returned_ids = {
            value[1] for value in fn.returns if value[0] == "ret"
        }
        block_names: set[str] = set()
        for call in fn.calls:
            resolved = index.resolve_call(fq, call["target"])
            if resolved == LEASE_FUNCTION and not call["with"]:
                if call["id"] in returned_ids:
                    continue  # the caller takes the lease
                out.append(Diagnostic(
                    path=index.paths[fq], line=call["line"],
                    column=call["col"], rule="proc-shm-lifetime",
                    message=(
                        f"{short}() takes an arena lease outside a "
                        "`with` statement; an exception before it is "
                        "returned leaves the shared-memory arena held "
                        "— write `with lease() as arena:`"
                    ),
                    severity=Severity.ERROR,
                ))
                continue
            owning = False
            if _is_shared_memory_call(call):
                if isinstance(call["binds"], str):
                    block_names.add(call["binds"])
                owning = "create" in call["kwargs"]
            elif resolved in OWNING_ALLOCATORS:
                owning = True
            if not owning:
                continue
            binds = call["binds"]
            block = binds[0] if isinstance(binds, list) and binds else binds
            if block is None:
                if call["id"] in returned_ids:
                    continue  # ownership escapes with the return value
                out.append(Diagnostic(
                    path=index.paths[fq], line=call["line"],
                    column=call["col"], rule="proc-shm-lifetime",
                    message=(
                        f"{short}() creates an owning shared-memory "
                        "block without binding it; nothing can ever "
                        "close or unlink it"
                    ),
                    severity=Severity.ERROR,
                ))
                continue
            if isinstance(block, str) and block in fn.returned_names:
                continue  # ownership transferred to the caller
            released = False
            for other in fn.calls:
                other_target = other["target"]
                if (
                    other_target[0] == "dotted"
                    and other_target[1] == f"{block}.unlink"
                ):
                    released = True
                    break
                if (
                    block in other["arg_names"]
                    and index.resolve_call(fq, other_target)
                    == RELEASE_FUNCTION
                ):
                    released = True
                    break
            if not released:
                out.append(Diagnostic(
                    path=index.paths[fq], line=call["line"],
                    column=call["col"], rule="proc-shm-lifetime",
                    message=(
                        f"{short}() owns shared-memory block "
                        f"'{block}' but never unlinks or releases it "
                        "and does not return it; the segment leaks "
                        "past process exit"
                    ),
                    severity=Severity.ERROR,
                ))
        for block in sorted(block_names):
            close_lines = [
                call["line"] for call in fn.calls
                if call["target"][0] == "dotted"
                and call["target"][1] == f"{block}.close"
            ]
            if not close_lines:
                continue
            closed_at = min(close_lines)
            for call in fn.calls:
                if call["line"] <= closed_at:
                    continue
                target = call["target"]
                if (
                    target[0] == "dotted"
                    and target[1].startswith(f"{block}.")
                    and target[1] not in (f"{block}.close", f"{block}.unlink")
                ) or block in call["arg_names"]:
                    out.append(Diagnostic(
                        path=index.paths[fq], line=call["line"],
                        column=call["col"], rule="proc-shm-lifetime",
                        message=(
                            f"{short}() uses shared-memory block "
                            f"'{block}' after its close() on line "
                            f"{closed_at}; the mapping is gone"
                        ),
                        severity=Severity.ERROR,
                    ))
    return out


def check_process_safety(index: ProjectIndex) -> list[Diagnostic]:
    """Emit ``proc-*`` diagnostics over the worker-reachable closure."""
    reachable = _worker_reachable(index)
    out: list[Diagnostic] = []
    out.extend(_global_write_findings(index, reachable))
    out.extend(_unpicklable_findings(index, reachable))
    out.extend(_shm_lifetime_findings(index))
    return out
