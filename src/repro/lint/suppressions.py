"""Inline suppression directives.

Two forms are recognised, mirroring the pylint/ruff convention but
namespaced so foreign tools ignore them:

* ``# bonsai-lint: disable=rule-a,rule-b`` — on a code line, suppresses
  those rules for that line; on a comment-only line, suppresses them for
  the next *code* line (comments, blank lines and decorators in between
  are skipped, so a directive can sit above a decorated ``def``).
* ``# bonsai-lint: disable-file=rule-a`` — anywhere in the file,
  suppresses the rule for the whole file (used by ``repro/units.py``,
  which *defines* the unit constants the unit-mix rule points at).

``disable=all`` suppresses every rule.  Anything after `` -- `` in the
directive is a free-form justification.  Every suppression must carry
one: a directive without it is an ``unjustified-suppression`` warning.

Every :class:`Directive` records which rules it actually silenced
during a run; directives that silenced nothing come back as
``useless-suppression`` warnings so suppressions cannot outlive the
finding they were written for.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.lint.diagnostics import Diagnostic

_DIRECTIVE = re.compile(
    r"#\s*bonsai-lint:\s*(?P<kind>disable-file|disable)\s*="
    r"\s*(?P<rules>[A-Za-z0-9_,\- ]+?)\s*"
    r"(?:--\s*(?P<reason>.*\S)?\s*)?$"
)


def _parse_rules(text: str) -> frozenset[str]:
    return frozenset(part.strip() for part in text.split(",") if part.strip())


def _paren_depth(line: str) -> int:
    return line.count("(") - line.count(")") + line.count("[") - line.count("]")


def _shield_target(lines: list[str], number: int) -> int:
    """Line a comment-only directive at ``number`` shields.

    Skips trailing comments, blank lines and decorators (including
    multi-line decorator calls) so the directive lands on the code line
    a rule would anchor its diagnostic to.
    """
    index = number  # 0-based index of the line after the directive
    while index < len(lines):
        stripped = lines[index].strip()
        if not stripped or stripped.startswith("#"):
            index += 1
            continue
        if stripped.startswith("@"):
            depth = _paren_depth(stripped)
            index += 1
            while depth > 0 and index < len(lines):
                depth += _paren_depth(lines[index])
                index += 1
            continue
        return index + 1
    return number + 1


@dataclass
class Directive:
    """One parsed suppression directive and its runtime usage."""

    line: int
    kind: str  # "disable" | "disable-file"
    rules: frozenset[str]
    justified: bool
    #: shielded line for ``disable`` directives; None for file-level
    target: int | None
    #: rule names this directive actually silenced during the run
    used: set[str] = field(default_factory=set)

    def to_json(self) -> dict:
        """The parsed directive (without usage) as JSON-friendly data."""
        return {
            "line": self.line, "kind": self.kind, "rules": sorted(self.rules),
            "justified": self.justified, "target": self.target,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Directive":
        return cls(
            line=data["line"], kind=data["kind"],
            rules=frozenset(data["rules"]), justified=data["justified"],
            target=data["target"],
        )

    def matches(self, diagnostic: Diagnostic) -> bool:
        """True when this directive silences the diagnostic."""
        if self.kind == "disable" and diagnostic.line != self.target:
            return False
        return "all" in self.rules or diagnostic.rule in self.rules


@dataclass
class Suppressions:
    """Parsed suppression directives of one file."""

    directives: list[Directive] = field(default_factory=list)

    @classmethod
    def scan(cls, source: str) -> "Suppressions":
        """Collect directives from raw source text."""
        directives: list[Directive] = []
        lines = source.splitlines()
        for number, line in enumerate(lines, start=1):
            match = _DIRECTIVE.search(line)
            if not match:
                continue
            kind = match.group("kind")
            reason = match.group("reason")
            target: int | None = None
            if kind == "disable":
                comment_only = line.lstrip().startswith("#")
                target = _shield_target(lines, number) if comment_only else number
            directives.append(Directive(
                line=number,
                kind=kind,
                rules=_parse_rules(match.group("rules")),
                justified=bool(reason),
                target=target,
            ))
        return cls(directives=directives)

    def covers(self, diagnostic: Diagnostic) -> bool:
        """True when the diagnostic is silenced; records directive usage."""
        hit = False
        for directive in self.directives:
            if directive.matches(diagnostic):
                directive.used.add(diagnostic.rule)
                hit = True
        return hit
