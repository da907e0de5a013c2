"""Interprocedural determinism-taint analysis.

Every claim this reproduction makes — cycle counts, output digests,
the parallel layer's bit-identity guarantee — is an assertion about a
deterministic computation.  The per-file ``determinism`` rule flags
*direct* nondeterminism (an unseeded RNG, a wall-clock read, a set
iteration) in the file that contains it; this pass follows the value.
Taint introduced by a source propagates through returns, parameters and
``self`` attributes over the call graph until it either dies locally or
*surfaces* — at a sink, at a ``return``, or at an iteration site — and
only surfacing taint is reported:

``det-taint-sink``
    a tainted value reaches a sink argument: a call into ``repro.obs``
    (trace/record payloads), a ``hashlib`` digest, or any callee whose
    name contains ``digest``/``fingerprint``.  Reported at the sink call
    (or at the call handing the tainted argument to a function that
    forwards it to a sink), with the source as a related location.
``det-unseeded-flow``
    a deterministic-contract module (``repro.engine``, ``repro.hw``,
    ``repro.core``, ``repro.records``, ``repro.parallel``) consumes a
    call result carrying *value* taint (RNG, clock, ``id()``).  Those
    layers' outputs are the paper's claims; they must not observe
    nondeterministic values at all, sink or no sink.
``det-order-leak``
    *order* taint (set hash order, directory-listing order, parallel
    completion order) crosses a function boundary unsorted: a function
    returns order-tainted data produced elsewhere, or iterates a
    set/listing built by another function.  Same-function order hazards
    stay with the file-local rule.

Three sanctions keep the pass quiet on legitimate code (the documented
false-positive guards):

* a *seeded* RNG — ``random.Random(seed)`` / ``default_rng(seed)`` with
  any argument — is never a source, so seeds threaded from config flow
  freely;
* ``sorted()`` (and the order-insensitive reductions ``min``/``max``/
  ``sum``/``len``/``any``/``all``) launder order taint — sorting fixes
  the order but deliberately keeps value taint, because sorting random
  numbers does not make them reproducible;
* wall-clock reads inside ``repro.obs`` and ``repro.lint`` are
  sanctioned: observability spans and the analyzer's own run timer
  measure the *host*, not the simulated machine, and are never
  compared across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.graph.symbols import ProjectIndex

#: taint kinds whose *values* differ across runs
VALUE_KINDS = frozenset({"rng", "clock", "id"})
#: taint kinds whose iteration/element *order* differs across runs
ORDER_KINDS = frozenset({"set-order", "fs-order", "completion-order"})
#: a set-valued expression: hazardous only once something iterates it
CARRIER_KIND = "set-carrier"

#: modules whose wall-clock reads are sanctioned (they time the host,
#: not the simulated machine, and their readings gate nothing replayed).
#: ``repro.distributed.executor`` joins the list because the executed
#: cluster sort's figure of merit *is* host wall-clock (Table I's
#: ``elapsed x nodes / GB``), measured around phases whose outputs are
#: separately oracle-verified and digest-gated — the timings annotate
#: the run, they never gate replay.
#: ``repro.serve.server``/``client``/``smoke`` are wall-clock territory
#: by nature (an asyncio event loop, socket timeouts, signal-driven
#: drain); everything they *execute* goes through the deterministic
#: :mod:`repro.serve.session`, which is deliberately NOT sanctioned.
CLOCK_SANCTIONED_PREFIXES = (
    "repro.obs.", "repro.lint.",
    "repro.distributed.executor.",
    "repro.serve.server.", "repro.serve.client.", "repro.serve.smoke.",
)

#: modules under the deterministic-computation contract
DETERMINISTIC_ZONES = (
    "repro.engine.", "repro.hw.", "repro.core.", "repro.records.",
    "repro.parallel.", "repro.serve.session.", "repro.serve.queue.",
    "repro.serve.protocol.",
)

#: resolved-callee prefixes that persist cross-run evidence
SINK_PREFIXES = ("repro.obs.",)
#: syntactic dotted heads that fingerprint their arguments
DIGEST_ROOTS = ("hashlib",)
#: callee-name fragments marking evidence sinks wherever they live
SINK_NAME_HINTS = ("digest", "fingerprint")

_KIND_LABEL = {
    "rng": "an unseeded RNG", "clock": "a wall-clock read",
    "id": "object identity (id())", "set-order": "set hash order",
    "fs-order": "directory-listing order",
    "completion-order": "parallel completion order",
    CARRIER_KIND: "a set's hash order",
}


@dataclass
class TaintAnalysis:
    """Fixpoint of taint facts over the call graph.

    ``ret[fq]`` holds the concrete taints a function's return value may
    carry; ``passthru[fq]`` maps parameters whose taint reaches the
    return to ``"full"`` or ``"ordfree"`` (through a launderer);
    ``sinkp[fq]`` maps parameters that reach a sink inside ``fq`` (or
    transitively through its callees) to ``(sink label, mode)``;
    ``attr[(class fq, attr)]`` accumulates taints written into ``self``
    attributes by any method of the class.
    """

    index: ProjectIndex
    ret: dict[str, set] = field(default_factory=dict)
    passthru: dict[str, dict[str, str]] = field(default_factory=dict)
    sinkp: dict[str, dict[str, tuple]] = field(default_factory=dict)
    attr: dict[tuple[str, str], set] = field(default_factory=dict)

    _MAX_ROUNDS = 12

    def solve(self) -> None:
        for fq in self.index.functions:
            self.ret[fq] = set()
            self.passthru[fq] = {}
            self.sinkp[fq] = {}
        for _ in range(self._MAX_ROUNDS):
            if not self._round():
                break

    def _round(self) -> bool:
        changed = False
        for fq, fn in self.index.functions.items():
            flow = fn.flow
            owner = self._owner(fq)
            if owner is not None:
                for write in flow.get("self_sets", []):
                    key = (owner, write["attr"])
                    taints = self.concrete(fq, write["atoms"])
                    have = self.attr.setdefault(key, set())
                    if not taints <= have:
                        have |= taints
                        changed = True
            for record in flow.get("returns", []):
                taints = self.concrete(fq, record["atoms"])
                if not taints <= self.ret[fq]:
                    self.ret[fq] |= taints
                    changed = True
                if self._merge_modes(
                    self.passthru[fq], self.param_modes(fq, record["atoms"])
                ):
                    changed = True
            for call in flow.get("calls", []):
                callee = self.index.resolve_call(fq, call["target"])
                label = self.sink_label(fq, call, callee)
                if label is not None:
                    for atoms in self._all_args(call):
                        for param, mode in self.param_modes(fq, atoms).items():
                            if param not in self.sinkp[fq]:
                                self.sinkp[fq][param] = (label, mode)
                                changed = True
                elif callee is not None and self.sinkp.get(callee):
                    for param, atoms in self.arg_params(call, callee).items():
                        hit = self.sinkp[callee].get(param)
                        if hit is None:
                            continue
                        for own, mode in self.param_modes(fq, atoms).items():
                            if own not in self.sinkp[fq]:
                                combined = (
                                    "ordfree"
                                    if "ordfree" in (mode, hit[1]) else "full"
                                )
                                self.sinkp[fq][own] = (hit[0], combined)
                                changed = True
        return changed

    # -- resolution ----------------------------------------------------
    def concrete(self, fq: str, atoms: list, depth: int = 0) -> set:
        """Taint tuples ``(kind, origin fq, line, col, detail)``."""
        if depth > 6:
            return set()
        fn = self.index.functions.get(fq)
        if fn is None:
            return set()
        flow = fn.flow
        out: set = set()
        for atom in atoms:
            tag = atom[0]
            if tag == "src":
                source = flow.get("sources", [])[atom[1]]
                if self._sanctioned(fq, source):
                    continue
                out.add((
                    source["kind"], fq, source["line"], source["col"],
                    source["detail"],
                ))
            elif tag == "call":
                call = flow.get("calls", [])[atom[1]]
                callee = self.index.resolve_call(fq, call["target"])
                if callee is None:
                    # unknown callee (builtin, stdlib, foreign): assume
                    # it passes its inputs through to its result, so
                    # taint survives str()/encode()/join() conversions
                    for inputs in self._all_inputs(call):
                        out |= self.concrete(fq, inputs, depth + 1)
                    continue
                out |= self.ret.get(callee, set())
                for param, arg_atoms in self.arg_params(call, callee).items():
                    mode = self.passthru.get(callee, {}).get(param)
                    if mode is None:
                        continue
                    through = self.concrete(fq, arg_atoms, depth + 1)
                    if mode == "ordfree":
                        through = {t for t in through if t[0] in VALUE_KINDS}
                    out |= through
            elif tag == "self":
                owner = self._owner(fq)
                if owner is not None:
                    out |= self.attr.get((owner, atom[1]), set())
            elif tag == "ordfree":
                out |= {
                    t for t in self.concrete(fq, [atom[1]], depth + 1)
                    if t[0] in VALUE_KINDS
                }
        return out

    def param_modes(
        self, fq: str, atoms: list, depth: int = 0, laundered: bool = False
    ) -> dict[str, str]:
        """Own parameters feeding ``atoms``, with their laundering mode."""
        if depth > 6:
            return {}
        fn = self.index.functions.get(fq)
        if fn is None:
            return {}
        flow = fn.flow
        out: dict[str, str] = {}
        mode = "ordfree" if laundered else "full"
        for atom in atoms:
            tag = atom[0]
            if tag == "param":
                self._merge_modes(out, {atom[1]: mode})
            elif tag == "ordfree":
                self._merge_modes(out, self.param_modes(
                    fq, [atom[1]], depth + 1, laundered=True
                ))
            elif tag == "call":
                call = flow.get("calls", [])[atom[1]]
                callee = self.index.resolve_call(fq, call["target"])
                if callee is None:
                    for inputs in self._all_inputs(call):
                        self._merge_modes(out, self.param_modes(
                            fq, inputs, depth + 1, laundered=laundered,
                        ))
                    continue
                for param, arg_atoms in self.arg_params(call, callee).items():
                    inner = self.passthru.get(callee, {}).get(param)
                    if inner is None:
                        continue
                    self._merge_modes(out, self.param_modes(
                        fq, arg_atoms, depth + 1,
                        laundered=laundered or inner == "ordfree",
                    ))
        return out

    @staticmethod
    def _merge_modes(have: dict[str, str], new: dict[str, str]) -> bool:
        changed = False
        for param, mode in new.items():
            current = have.get(param)
            if current is None or (current == "ordfree" and mode == "full"):
                have[param] = mode
                changed = True
        return changed

    def arg_params(self, call: dict, callee: str) -> dict[str, list]:
        """Callee parameter -> caller-side atoms for one call site."""
        fn = self.index.functions.get(callee)
        if fn is None:
            return {}
        out: dict[str, list] = {}
        for position, atoms in enumerate(call.get("args", [])):
            if position < len(fn.params):
                out[fn.params[position]] = atoms
        for name, atoms in call.get("kwargs", {}).items():
            if name in fn.params:
                out[name] = atoms
        return out

    @staticmethod
    def _all_args(call: dict) -> list:
        return list(call.get("args", [])) + list(call.get("kwargs", {}).values())

    @staticmethod
    def _all_inputs(call: dict) -> list:
        """Args, kwargs *and* the method-call receiver's atoms."""
        out = TaintAnalysis._all_args(call)
        recv = call.get("recv")
        if recv:
            out.append(recv)
        return out

    def sink_label(
        self, fq: str, call: dict, callee: str | None
    ) -> str | None:
        """A human-readable sink name when this call persists evidence."""
        if callee is not None:
            if callee.startswith(SINK_PREFIXES):
                return f"{callee}()"
            tail = callee.rsplit(".", 1)[-1]
            if any(hint in tail for hint in SINK_NAME_HINTS):
                return f"{callee}()"
        target = call["target"]
        if target[0] == "dotted":
            dotted = target[1]
            if dotted.split(".")[0] in DIGEST_ROOTS:
                return f"{dotted}()"
            tail = dotted.rsplit(".", 1)[-1]
            if any(hint in tail for hint in SINK_NAME_HINTS):
                return f"{dotted}()"
        if target[0] == "name" and any(
            hint in target[1] for hint in SINK_NAME_HINTS
        ):
            return f"{target[1]}()"
        return None

    def _sanctioned(self, fq: str, source: dict) -> bool:
        if source["kind"] != "clock":
            return False
        summary = self.index.file_of.get(fq)
        module = summary.module if summary is not None else None
        return bool(module) and (module + ".").startswith(
            CLOCK_SANCTIONED_PREFIXES
        )

    def _owner(self, fq: str) -> str | None:
        fn = self.index.functions.get(fq)
        if fn is None or fn.class_name is None:
            return None
        summary = self.index.file_of.get(fq)
        module = summary.module if summary is not None else None
        if module is None:
            return None
        return f"{module}.{fn.class_name}"


def _pick(taints: set, keep) -> tuple | None:
    """The taint a diagnostic shows: deterministic choice, values first.

    Takes the raw set plus a predicate (rather than a pre-filtered set)
    so the selection is a single order-insensitive ``min`` reduction —
    which is also why this pass's own set consumption never trips its
    ``det-order-leak`` rule.
    """
    kept = [t for t in taints if keep(t)]
    if not kept:
        return None
    return min(
        kept,
        key=lambda t: (t[0] not in VALUE_KINDS, t[0], t[1], t[2], t[3]),
    )


def _source_note(index: ProjectIndex, taint: tuple) -> str:
    kind, origin, line, _col, detail = taint
    return (
        f"{_KIND_LABEL.get(kind, kind)} from {detail} in "
        f"{origin}() (line {line})"
    )


def _related(index: ProjectIndex, taint: tuple) -> tuple:
    kind, origin, line, col, detail = taint
    path = index.paths.get(origin)
    if path is None:
        return ()
    return ({
        "path": path, "line": line, "column": col,
        "message": f"{_KIND_LABEL.get(kind, kind)} introduced here ({detail})",
    },)


def check_determinism_flow(index: ProjectIndex) -> list[Diagnostic]:
    """Emit ``det-*`` diagnostics over the whole program."""
    analysis = TaintAnalysis(index)
    analysis.solve()
    out: list[Diagnostic] = []
    seen: set[tuple] = set()

    def emit(
        rule: str, fq: str, line: int, col: int, message: str,
        taint: tuple, severity: Severity = Severity.ERROR,
    ) -> None:
        key = (rule, index.paths[fq], line, taint[0], taint[1], taint[2])
        if key in seen:
            return
        seen.add(key)
        out.append(Diagnostic(
            path=index.paths[fq], line=line, column=col, rule=rule,
            message=message, severity=severity,
            related=_related(index, taint),
        ))

    for fq, fn in index.functions.items():
        summary = index.file_of[fq]
        module = summary.module or ""
        if not module.startswith("repro."):
            continue
        flow = fn.flow
        in_zone = (module + ".").startswith(DETERMINISTIC_ZONES)
        for call in flow.get("calls", []):
            callee = index.resolve_call(fq, call["target"])
            label = analysis.sink_label(fq, call, callee)
            if label is not None:
                taints: set = set()
                for atoms in analysis._all_args(call):
                    taints |= analysis.concrete(fq, atoms)
                taint = _pick(taints, lambda t: t[0] != CARRIER_KIND)
                if taint is not None:
                    emit(
                        "det-taint-sink", fq, call["line"], call["col"],
                        f"{_source_note(index, taint)} reaches evidence "
                        f"sink {label}; thread a config seed or sort "
                        "before recording",
                        taint,
                    )
            elif callee is not None and analysis.sinkp.get(callee):
                for param, atoms in analysis.arg_params(call, callee).items():
                    hit = analysis.sinkp[callee].get(param)
                    if hit is None:
                        continue
                    ordfree = hit[1] == "ordfree"
                    taint = _pick(
                        analysis.concrete(fq, atoms),
                        lambda t: t[0] != CARRIER_KIND
                        and (not ordfree or t[0] in VALUE_KINDS),
                    )
                    if taint is not None:
                        emit(
                            "det-taint-sink", fq, call["line"], call["col"],
                            f"{_source_note(index, taint)} is handed to "
                            f"{callee}() parameter '{param}', which "
                            f"forwards it to evidence sink {hit[0]}",
                            taint,
                        )
            if in_zone and callee is not None:
                taint = _pick(
                    analysis.ret.get(callee, set()),
                    lambda t: t[0] in VALUE_KINDS,
                )
                if taint is not None:
                    emit(
                        "det-unseeded-flow", fq, call["line"], call["col"],
                        f"{fq}() consumes the return value of {callee}(), "
                        f"which carries {_source_note(index, taint)}; "
                        "deterministic-contract code must thread a seed "
                        "from config instead",
                        taint,
                    )
        for record in flow.get("returns", []):
            taint = _pick(
                analysis.concrete(fq, record["atoms"]),
                lambda t: t[0] in ORDER_KINDS and t[1] != fq,
            )
            if taint is not None:
                emit(
                    "det-order-leak", fq, record["line"], fn.col,
                    f"{fq}() returns data carrying "
                    f"{_source_note(index, taint)} across a function "
                    "boundary; wrap it in sorted(...) before returning",
                    taint, severity=Severity.WARNING,
                )
        for site in flow.get("iters", []):
            taint = _pick(
                analysis.concrete(fq, site["atoms"]),
                lambda t: (t[0] in ORDER_KINDS or t[0] == CARRIER_KIND)
                and t[1] != fq,
            )
            if taint is not None:
                emit(
                    "det-order-leak", fq, site["line"], site["col"],
                    f"{fq}() iterates data carrying "
                    f"{_source_note(index, taint)} built in another "
                    "function; wrap the iterable in sorted(...)",
                    taint, severity=Severity.WARNING,
                )
    return out
