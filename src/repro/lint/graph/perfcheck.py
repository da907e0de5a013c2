"""Hot-path performance analysis.

The simulator's inner loop runs once per cycle and the merge kernels
once per record, so a constant-factor regression there multiplies by
``n log n``.  This pass computes the set of *hot* functions — everything
call-graph-reachable from a committed root set (the simulator tick
loop, the fastpath quiescence kernel, the merge kernels, FIFO ops, and
the gensort record codec) — and flags per-record anti-patterns inside
them:

``hot-loop-alloc``
    container allocation (literal or comprehension) inside a loop;
``hot-loop-attr``
    the same attribute chain loaded :data:`ATTR_THRESHOLD`+ times in
    one loop scope (bind it to a local once);
``hot-fifo-op``
    single-element ``push``/``pop``/``peek`` inside a loop where the
    bulk ``*_many`` counterparts exist;
``hot-format``
    f-strings, ``.format()``, ``print`` or logging on the hot path;
``hot-try``
    a ``try``/``except`` entered once per loop iteration.

Functions whose whole body *is* the per-cycle loop (``tick`` methods
and their private helpers on components) are treated as loop scope even
at nesting depth 0 — the simulator supplies the loop around them.  The
fastpath scheduler is *not* in that set: it carries its own cycle loop,
so plain loop scoping already separates its wiring prologue from the
per-cycle work.

Two false-positive guards are deliberate and documented: facts inside
``raise``/``assert`` are never collected (error paths leave the hot
loop), and a straight-line container *literal* in a per-cycle body is
tolerated (one small allocation per cycle, not per record) — only
comprehensions and generator expressions fire there.

A ``bonsai report`` trace can widen the root set (``--profile``): any
phase whose self-time share reaches :data:`PROFILE_SHARE_THRESHOLD`
maps through :data:`PROFILE_SPAN_ROOTS` to the modules implementing it,
so profile-proven cost centres are analysed even when they sit outside
the committed roots.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.graph.symbols import ProjectIndex

#: individually named hot entry points; the codec roots name the
#: per-record pack/unpack/key functions and deliberately leave out the
#: workload *generator* (runs once per dataset, not per record)
HOT_ROOT_FUNCTIONS: tuple[str, ...] = (
    "repro.hw.clock.Simulation.step",
    "repro.hw.clock.Simulation.run",
    "repro.hw.clock.Simulation.run_until",
    "repro.hw.fastpath.run_event_driven",
    "repro.records.gensort.packed_sort_key",
    "repro.records.gensort.pack_records",
    "repro.records.gensort.unpack_sorted",
)

#: fully-qualified prefixes whose every function is a hot root
HOT_ROOT_PREFIXES: tuple[str, ...] = (
    "repro.hw.fifo.Fifo.",         # per-record FIFO ops
    "repro.engine.stage.",         # merge kernels
    "repro.records.keyhash.",      # per-record key hashing
)

#: component methods seeded as roots (the simulator dispatches to them
#: dynamically, which a static call graph cannot follow)
COMPONENT_ROOT_METHODS: tuple[str, ...] = (
    "tick", "next_event_cycle", "stall_tag", "apply_stall",
)

#: minimum loads of one attribute chain in one loop scope to fire
ATTR_THRESHOLD = 3

#: a profiled phase at or above this self-time share widens the roots
PROFILE_SHARE_THRESHOLD = 0.10

#: span-name prefix (as emitted by ``repro.obs``) -> module prefixes
#: that implement the phase
PROFILE_SPAN_ROOTS: dict[str, tuple[str, ...]] = {
    "hw.": ("repro.hw.tree.", "repro.hw.clock."),
    "sorter.": ("repro.engine.sorter.",),
    "unrolled.": ("repro.engine.unrolled.",),
    "sort.": ("repro.records.",),
    "optimizer.": ("repro.core.optimizer.",),
    "parallel.": ("repro.parallel.",),
    "ssd.": ("repro.engine.ssd_sorter.",),
}


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


def profile_root_prefixes(rows: Iterable[Mapping]) -> list[str]:
    """Module prefixes a trace profile adds to the hot root set."""
    prefixes: list[str] = []
    for row in rows:
        if row.get("share", 0.0) < PROFILE_SHARE_THRESHOLD:
            continue
        name = str(row.get("name", ""))
        for span_prefix, modules in PROFILE_SPAN_ROOTS.items():
            if name.startswith(span_prefix):
                for module in modules:
                    if module not in prefixes:
                        prefixes.append(module)
    return prefixes


_CONSTRUCTORS = (".__init__", ".__post_init__")


def _construction_only(index: ProjectIndex) -> set[str]:
    """Functions whose every in-index caller is a constructor.

    Prefix seeding (committed or profile-widened) sweeps in whole
    modules, including build helpers that only ever run while a
    component is constructed; those are setup cost, the same class of
    edge :func:`_reachable` already refuses to follow.  A function with
    no in-index callers stays eligible — it may be an entry point the
    call graph cannot see.
    """
    callers: dict[str, set[str]] = {}
    for fq, edges in index.call_edges().items():
        for callee, _call in edges:
            callers.setdefault(callee, set()).add(fq)
    return {
        fq
        for fq, sites in callers.items()
        if sites and all(site.endswith(_CONSTRUCTORS) for site in sites)
    }


def _seed_roots(
    index: ProjectIndex, extra_prefixes: Sequence[str]
) -> set[str]:
    roots = {fq for fq in HOT_ROOT_FUNCTIONS if fq in index.functions}
    prefixes = tuple(HOT_ROOT_PREFIXES) + tuple(extra_prefixes)
    setup_only = _construction_only(index)
    for fq in index.functions:
        if not fq.startswith(prefixes):
            continue
        if fq.endswith(_CONSTRUCTORS) or fq in setup_only:
            continue
        roots.add(fq)
    roots |= _component_roots(index)
    return roots


def _reachable(index: ProjectIndex, roots: set[str]) -> set[str]:
    """Hot closure: call-graph descendants of the roots.

    Two edge classes are excluded as *not hot*: calls made while
    constructing a raised exception (error paths leave the hot loop —
    the stall-report formatter is reachable only this way), and calls
    into constructors (``__init__``/``__post_init__`` run per simulation
    arm, not per cycle, so the component-building helpers behind them
    are setup cost, not per-record cost).
    """
    edges = index.call_edges()
    seen = set(roots)
    frontier = list(roots)
    while frontier:
        fq = frontier.pop()
        for callee, call in edges.get(fq, ()):
            if call.get("in_raise") or callee.endswith(_CONSTRUCTORS):
                continue
            if callee not in seen:
                seen.add(callee)
                frontier.append(callee)
    return seen


def _per_cycle(index: ProjectIndex, fq: str) -> bool:
    """Whether the simulator supplies the loop around this function."""
    fn = index.functions[fq]
    module = index.file_of[fq].module or ""
    name = fq.rsplit(".", 1)[-1]
    if fn.class_name is None or not module.startswith("repro.hw"):
        return False
    owner = index.classes.get(f"{module}.{fn.class_name}")
    if owner is None or not owner.has_tick:
        return False
    if name == "tick":
        return True
    return name.startswith("_") and not name.startswith("__")


def _attr_findings(
    fn_perf: list[dict], per_cycle: bool, imports: Mapping[str, str]
) -> list[dict]:
    """Qualifying attr facts, shortest chain per scope reported first.

    A chain is dropped when a strict prefix of it also qualifies — the
    prefix binding hoists both — and when its root is an imported name
    (module attribute loads are cheap relative to the per-record work
    this rule targets, and rebinding them obscures more than it saves).
    """
    qualifying: dict[int, list[dict]] = {}
    for fact in fn_perf:
        if fact["kind"] != "attr" or fact["count"] < ATTR_THRESHOLD:
            continue
        if fact["scope"] == 0 and not per_cycle:
            continue
        if fact["chain"].split(".")[0] in imports:
            continue
        qualifying.setdefault(fact["scope"], []).append(fact)
    out: list[dict] = []
    for scope_facts in qualifying.values():
        chains = {fact["chain"] for fact in scope_facts}
        for fact in scope_facts:
            prefix_parts = fact["chain"].split(".")
            has_shorter = any(
                ".".join(prefix_parts[:depth]) in chains
                for depth in range(2, len(prefix_parts))
            )
            if not has_shorter:
                out.append(fact)
    return out


def check_hot_paths(
    index: ProjectIndex, profile_rows: Iterable[Mapping] | None = None
) -> list[Diagnostic]:
    """Emit ``hot-*`` diagnostics over the hot-function closure."""
    extra = profile_root_prefixes(profile_rows) if profile_rows else []
    hot = _reachable(index, _seed_roots(index, extra))
    out: list[Diagnostic] = []
    for fq in sorted(hot):
        fn = index.functions.get(fq)
        summary = index.file_of.get(fq)
        if fn is None or summary is None:
            continue
        module = summary.module or ""
        if not module.startswith("repro."):
            continue
        per_cycle = _per_cycle(index, fq)
        path = index.paths[fq]
        short = fq[len("repro."):] if fq.startswith("repro.") else fq

        def emit(rule: str, fact: dict, message: str) -> None:
            out.append(Diagnostic(
                path=path, line=fact["line"], column=fact["col"],
                rule=rule, message=message, severity=Severity.WARNING,
            ))

        for fact in fn.perf:
            in_loop = fact["scope"] > 0
            effective = in_loop or per_cycle
            kind = fact["kind"]
            if kind == "alloc" and effective:
                # a straight-line literal once per cycle is tolerated;
                # only per-record (in-loop) work or comprehensions fire
                if not in_loop and "literal" in fact["what"]:
                    continue
                where = "a loop" if in_loop else "the per-cycle body"
                emit("hot-loop-alloc", fact, (
                    f"{fact['what']} allocated in {where} of hot "
                    f"function {short}(); hoist it out of the loop or "
                    "reuse a buffer"
                ))
            elif kind == "fifo" and in_loop:
                emit("hot-fifo-op", fact, (
                    f"single-element {fact['op']}() on "
                    f"{fact['recv']} inside a loop of hot function "
                    f"{short}(); use {fact['op']}_many() to amortise "
                    "the per-call overhead"
                ))
            elif kind == "format" and effective:
                where = "a loop" if in_loop else "the per-cycle body"
                emit("hot-format", fact, (
                    f"{fact['what']} formatting in {where} of hot "
                    f"function {short}(); error paths may format "
                    "freely (raise/assert are exempt) but the success "
                    "path must not"
                ))
            elif kind == "try" and in_loop:
                emit("hot-try", fact, (
                    f"try/except entered once per iteration in hot "
                    f"function {short}(); hoist the handler around "
                    "the loop or test the condition instead"
                ))
        for fact in _attr_findings(fn.perf, per_cycle, summary.imports):
            where = (
                "one loop" if fact["scope"] > 0 else "the per-cycle body"
            )
            emit("hot-loop-attr", fact, (
                f"attribute chain {fact['chain']} loaded "
                f"{fact['count']}x in {where} of hot function "
                f"{short}(); bind it to a local once"
            ))
    return out
