"""The ``bonsai check`` rule table.

Kept in a leaf module (no analyzer imports) so the package
``__init__``, the analyzer and the reporters can all read it.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.lint.diagnostics import Severity


class CheckRule(NamedTuple):
    """One rule's ``--list-analyses``/SARIF description and severity."""

    description: str
    severity: Severity = Severity.ERROR


#: every diagnostic rule this analyzer can emit.  The first five are
#: local rules (``repro.lint.rules``), checked per file during summary
#: extraction; the rest are whole-program passes over the project index.
CHECK_RULES: dict[str, CheckRule] = {
    "unit-mix": CheckRule(
        "decimal and binary byte units mixed in one expression, or magic "
        "byte literals where a repro.units name exists",
        Severity.WARNING,
    ),
    "clock-discipline": CheckRule(
        "tick() must talk to siblings only through FIFOs and keep cycle "
        "arithmetic integral"
    ),
    "determinism": CheckRule(
        "unseeded RNGs, wall-clock reads, and set iteration in repro.* "
        "modules"
    ),
    "model-purity": CheckRule(
        "repro.core.performance/resources must stay pure: no I/O, no "
        "globals, no repro.hw imports"
    ),
    "error-taxonomy": CheckRule(
        "raise repro.errors subclasses, not bare builtin exceptions, "
        "inside repro.*"
    ),
    "unit-flow-mix": CheckRule(
        "arithmetic combines two different unit families reached "
        "through the interprocedural unit-flow analysis"
    ),
    "unit-flow-call": CheckRule(
        "call argument's unit family contradicts the callee "
        "parameter's family"
    ),
    "transitive-purity": CheckRule(
        "pure model function transitively reaches I/O, RNG, clock, or "
        "repro.hw state mutation"
    ),
    "fifo-discipline": CheckRule(
        "repro.hw component reaches into a peer component's state "
        "outside the FIFO/bus/coupler port protocol"
    ),
    "worker-entry": CheckRule(
        "repro.parallel pool entry is not a module-level single-task "
        "function, or its workers module does import-time work or "
        "eager heavy imports"
    ),
    "proc-global-write": CheckRule(
        "worker-reachable code writes module-global or class-level "
        "state outside the sanctioned worker_observation/absorb path"
    ),
    "proc-unpicklable": CheckRule(
        "worker-reachable function receives an object whose class "
        "holds known-unpicklable members (locks, open files, shared "
        "memory handles, tracers)"
    ),
    "proc-shm-lifetime": CheckRule(
        "shared-memory buffer lifetime bug: an owning block is never "
        "unlinked/released, or a block is used after close()"
    ),
    "det-taint-sink": CheckRule(
        "a nondeterministic value (unseeded RNG, wall clock, id(), "
        "directory order) flows interprocedurally into a record "
        "payload, digest, or baseline sink"
    ),
    "det-unseeded-flow": CheckRule(
        "a deterministic-zone function (engine, hw, core, records, "
        "parallel) consumes the return value of a transitively "
        "nondeterministic helper"
    ),
    "det-order-leak": CheckRule(
        "set/dict/directory iteration order from another function "
        "surfaces unlaundered (no sorted()) in a return or iteration"
    ),
    "exn-escape": CheckRule(
        "a non-BonsaiError exception type can escape a public CLI "
        "entry point instead of surfacing as a taxonomy error"
    ),
    "exn-swallow": CheckRule(
        "a handler catches an exception and drops it without "
        "re-raising, logging, or computing a fallback"
    ),
    "exn-broad-fallback": CheckRule(
        "except Exception (or broader) in the repro.parallel "
        "timeout/serial-recompute fallback paths where precise "
        "catches are load-bearing"
    ),
    "exn-dead-handler": CheckRule(
        "handler for a taxonomy exception type that no raise or "
        "resolved call in the try body can produce"
    ),
}

