"""bonsai-check: the repo's one static analyzer.

Each file is parsed once into a :class:`FileSummary`.  The same pass
runs the local rules of :mod:`repro.lint.rules` on the tree and stores
their findings in the summary.  The summaries then form a project
symbol table and call graph, and the interprocedural passes run on top
of them:

========================  ==================================================
``unit-mix``              local: decimal and binary byte units mixed in one
                          expression, or magic byte literals in ``repro``
``clock-discipline``      local: a ``repro.hw`` ``tick()`` touches a sibling
                          outside the FIFO protocol, or does float cycle
                          arithmetic
``determinism``           local: unseeded RNGs, wall-clock reads and set
                          iteration in ``repro.*``
``model-purity``          local: I/O, globals or ``repro.hw`` imports in the
                          Eq. 1-10 model modules
``error-taxonomy``        local: a bare builtin exception raised in
                          ``repro.*``
``unit-flow-mix``         additive/comparison arithmetic combines two
                          different unit families (decimal bytes, binary
                          bytes, records, cycles, seconds, hertz), where at
                          least one family arrived through a call chain
``unit-flow-call``        a call argument's inferred unit family contradicts
                          the callee parameter's declared family
``transitive-purity``     an Eq. 1-10 model function transitively reaches
                          I/O, RNG, wall-clock, or mutation of ``repro.hw``
                          simulator state
``fifo-discipline``       a ``repro.hw`` component touches a peer
                          component's state other than through the
                          FIFO/bus/coupler port protocol
``worker-entry``          a ``repro.parallel`` pool entry is not a
                          module-level single-task function, or the
                          workers module does work at import time
``proc-global-write``     worker-reachable code writes shared state outside
``proc-unpicklable``      the sanctioned obs payload path, captures
``proc-shm-lifetime``     unpicklable objects, or leaks/reuses shared-
                          memory blocks (see ``procsafety``)
``det-taint-sink``        nondeterministic values (unseeded RNG, wall
``det-unseeded-flow``     clock, hash/listing order) flow through the call
``det-order-leak``        graph into evidence sinks, deterministic-contract
                          zones, or across function boundaries without
                          ``sorted(...)`` laundering (see ``detflow``)
``exn-escape``            per-function escaped-exception sets: non-taxonomy
``exn-swallow``           escapes from CLI entry points, handlers that drop
``exn-broad-fallback``    failures, broad worker fallbacks, and taxonomy
``exn-dead-handler``      handlers that can never fire (see ``exnflow``)
========================  ==================================================

Every finding, local or interprocedural, goes through one filter path:

* ``--select``/``--ignore`` per-rule filtering;
* inline ``# bonsai-lint: disable=<rule> -- why`` suppressions, audited
  in the same run: a directive that silenced nothing is a
  ``useless-suppression`` warning, and one without a reason is an
  ``unjustified-suppression`` warning.

A content-hash summary cache (``--cache-dir``) keyed on each file's
module name and source plus a fingerprint of the analyzer's own code
lets warm runs re-extract zero unchanged files, local findings
included, and misses wholesale after any analyzer edit.
``--statistics`` prints run counters, and ``--format sarif``/
``--sarif-file`` emit one SARIF 2.1.0 log with stable
``partialFingerprints`` and provenance ``relatedLocations``.

Run via ``bonsai check [paths...]``.  Every rule is pinned by a seeded
mutation of shipped code in ``tests/lint/test_self_clean.py``.
"""

from __future__ import annotations

from repro.lint.graph.analyzer import CheckResult, analyze
from repro.lint.graph.rules import CHECK_RULES
from repro.lint.graph.summary import FileSummary, extract_summary
from repro.lint.graph.symbols import ProjectIndex

__all__ = [
    "CHECK_RULES",
    "CheckResult",
    "FileSummary",
    "ProjectIndex",
    "analyze",
    "extract_summary",
]
