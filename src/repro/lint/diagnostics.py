"""Diagnostic records emitted by lint rules.

A diagnostic pins one finding to a file position.  Diagnostics sort by
``(path, line, column, rule)`` so reports are stable across runs and
machines — the linter itself must satisfy the determinism contract it
enforces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How seriously a finding should be taken.

    Both severities fail the run (``bonsai check`` exits non-zero on any
    finding); the split exists so reports separate contract violations
    (``ERROR``) from convention drift (``WARNING``).
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: a rule fired at a file position.

    Parameters
    ----------
    path:
        File the finding is in, as given on the command line.
    line / column:
        1-based line and 0-based column of the offending node.
    rule:
        Registry name of the rule that fired (e.g. ``unit-mix``).
    message:
        Human-readable explanation with a suggested fix.
    severity:
        :class:`Severity` of the finding.
    related:
        Optional provenance chain — a tuple of ``{"path", "line",
        "column", "message"}`` dicts tracing how the finding arose
        (taint source -> sink, raise -> escape).  Excluded from
        ordering and equality so reports stay stable.
    """

    path: str
    line: int
    column: int
    rule: str = field(compare=True)
    message: str = field(compare=False)
    severity: Severity = field(compare=False, default=Severity.ERROR)
    related: tuple = field(compare=False, default=())

    def render(self) -> str:
        """The canonical one-line text form of this finding."""
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.rule} {self.severity.value}: {self.message}"
        )

    def to_json(self) -> dict:
        """JSON-serialisable form used by the JSON reporter."""
        out = {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.related:
            out["related"] = [dict(r) for r in self.related]
        return out
