"""Static analysis of the repo's cross-cutting contracts (``bonsai check``).

Several conventions in this codebase are load-bearing but invisible to
the type system: the hw simulator's FIFO-only communication discipline,
the decimal-vs-binary unit split of :mod:`repro.units`, the purity of
the Eq. 1-10 analytical models the optimizer sweeps, determinism, and
the error taxonomy.  One analyzer checks them all:

* :mod:`repro.lint.rules` holds the *local* rules (``unit-mix``,
  ``clock-discipline``, ``determinism``, ``model-purity``,
  ``error-taxonomy``), plain functions run on each file's AST while its
  summary is extracted;
* :mod:`repro.lint.graph` builds the whole-program symbol table and
  call graph from those summaries and runs the interprocedural passes,
  then filters every finding through one rule selection and one inline
  suppression audit.

Run via ``bonsai check [paths...]``; suppress intentional findings inline with
``# bonsai-lint: disable=<rule> -- why``.  See
``docs/static-analysis.md`` for the rule list and rationale.
"""

from __future__ import annotations

from repro.lint.diagnostics import Diagnostic, Severity

__all__ = ["Diagnostic", "Severity"]
