"""Orchestration of one ``bonsai check`` run.

Pipeline: collect files -> extract (or cache-load) summaries, which
carry the local-rule findings -> build the project index -> run the
interprocedural analyses -> filter every finding, local or
interprocedural, through rule selection and inline suppressions ->
audit the suppression directives -> one :class:`CheckResult`.

Unreadable or unparseable files become ``parse-error`` diagnostics —
a whole-program analysis with a silent hole in its call graph would
understate every transitive property, so a broken file must fail the
run visibly.
"""

from __future__ import annotations

# bonsai-lint: disable-file=determinism -- the analyzer times its own
# wall-clock run for reporting; nothing simulated depends on it

import ast
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import LintError
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.graph.cache import SummaryCache
from repro.lint.graph.detflow import check_determinism_flow
from repro.lint.graph.exnflow import check_exception_flow
from repro.lint.graph.fifocheck import check_fifo_discipline
from repro.lint.graph.procsafety import check_process_safety
from repro.lint.graph.purity import check_purity
from repro.lint.graph.rules import CHECK_RULES
from repro.lint.graph.summary import FileSummary, extract_summary
from repro.lint.graph.symbols import ProjectIndex
from repro.lint.graph.unitflow import check_unit_flow
from repro.lint.graph.workercheck import check_worker_entries
from repro.lint.suppressions import Directive, Suppressions

#: rule name attached to unreadable/unparseable files (not in the rule
#: table; it cannot be ignored, because a broken file can hide anything)
PARSE_ERROR_RULE = "parse-error"

#: warning for directives that silenced nothing this run
USELESS_SUPPRESSION_RULE = "useless-suppression"

#: warning for directives without a ``-- reason`` justification
UNJUSTIFIED_SUPPRESSION_RULE = "unjustified-suppression"

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist", "results"}


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one whole-program analysis run."""

    diagnostics: tuple[Diagnostic, ...]
    files_scanned: int
    reanalyzed: int
    suppressed: int
    rules: tuple[str, ...]
    elapsed_seconds: float = 0.0

    @property
    def exit_code(self) -> int:
        """0 when nothing was found; 1 otherwise."""
        return 1 if self.diagnostics else 0

    @property
    def from_cache(self) -> int:
        """Files whose summaries were loaded instead of re-extracted."""
        return self.files_scanned - self.reanalyzed

    def count(self, severity: Severity) -> int:
        """Number of findings at one severity."""
        return sum(1 for d in self.diagnostics if d.severity is severity)


def collect_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files and directories into a sorted list of ``.py`` files."""
    if not paths:
        raise LintError("no paths given to check")
    found: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.update(
                candidate
                for candidate in path.rglob("*.py")
                if not _SKIP_DIRS.intersection(candidate.parts)
            )
        elif path.is_file():
            if path.suffix != ".py":
                raise LintError(f"not a Python file: {path}")
            found.add(path)
        else:
            raise LintError(f"no such file or directory: {path}")
    return sorted(found)


@dataclass
class _Collected:
    summaries: list[FileSummary] = field(default_factory=list)
    parse_errors: list[Diagnostic] = field(default_factory=list)
    reanalyzed: int = 0
    total: int = 0


def _collect_summaries(
    paths: Sequence[str | Path], cache: SummaryCache
) -> _Collected:
    out = _Collected()
    for path in collect_files(paths):
        out.total += 1
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            out.parse_errors.append(Diagnostic(
                path=str(path), line=1, column=0, rule=PARSE_ERROR_RULE,
                message=f"cannot read file: {error}", severity=Severity.ERROR,
            ))
            continue
        cached = cache.load(str(path), source)
        if cached is not None:
            out.summaries.append(cached)
            continue
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as error:
            out.parse_errors.append(Diagnostic(
                path=str(path), line=error.lineno or 1,
                column=(error.offset or 1) - 1, rule=PARSE_ERROR_RULE,
                message=f"file does not parse: {error.msg}",
                severity=Severity.ERROR,
            ))
            continue
        except ValueError as error:
            out.parse_errors.append(Diagnostic(
                path=str(path), line=1, column=0, rule=PARSE_ERROR_RULE,
                message=f"file does not parse: {error}",
                severity=Severity.ERROR,
            ))
            continue
        summary = extract_summary(str(path), source, tree)
        cache.store(source, summary)
        out.summaries.append(summary)
        out.reanalyzed += 1
    return out


def resolve_rule_selection(
    select: Iterable[str] | None, ignore: Iterable[str] | None
) -> tuple[str, ...]:
    """Active rule names after ``--select``/``--ignore`` filtering."""
    selected = list(select) if select else sorted(CHECK_RULES)
    ignored = set(ignore) if ignore else set()
    for name in list(selected) + sorted(ignored):
        if name not in CHECK_RULES:
            known = ", ".join(sorted(CHECK_RULES))
            raise LintError(f"unknown check rule '{name}' (known: {known})")
    return tuple(name for name in selected if name not in ignored)


def _local_findings(summaries: Sequence[FileSummary]) -> list[Diagnostic]:
    """The local-rule findings stored in each summary, as diagnostics."""
    return [
        Diagnostic(
            path=summary.path, line=found["line"], column=found["col"],
            rule=found["rule"], message=found["message"],
            severity=CHECK_RULES[found["rule"]].severity,
        )
        for summary in summaries
        for found in summary.local_findings
    ]


def _directive_findings(
    path: str,
    directives: Iterable[Directive],
    active: frozenset[str],
) -> list[Diagnostic]:
    """Meta-findings about one file's suppression directives.

    A directive without a ``-- reason`` is unjustified.  A directive
    that silenced nothing is stale, judged only against rules that
    actually ran: ``--select``/``--ignore`` runs do not flag directives
    for the rules they skipped, and ``disable=all`` is stale only when
    every rule ran and the directive still silenced nothing.
    """
    out: list[Diagnostic] = []
    full_set = active >= frozenset(CHECK_RULES)

    def finding(directive: Directive, rule: str, message: str) -> None:
        out.append(Diagnostic(
            path=path, line=directive.line, column=0, rule=rule,
            message=message, severity=Severity.WARNING,
        ))

    for directive in directives:
        scope = "file" if directive.kind == "disable-file" else "line"
        stale = sorted(
            rule for rule in directive.rules - {"all"}
            if rule in active and rule not in directive.used
        )
        if "all" in directive.rules and full_set and not directive.used:
            stale.append("all")
        for rule in stale:
            finding(
                directive, USELESS_SUPPRESSION_RULE,
                f"suppression of '{rule}' ({scope} scope) matched no "
                "finding; remove the stale directive",
            )
        if not directive.justified:
            finding(
                directive, UNJUSTIFIED_SUPPRESSION_RULE,
                "suppression directive has no '-- reason' justification; "
                "say why the finding is acceptable",
            )
    return out


def analyze(
    paths: Sequence[str | Path],
    *,
    cache_dir: str | Path | None = None,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> CheckResult:
    """Run the whole-program analyses over ``paths``."""
    started = time.perf_counter()
    active = resolve_rule_selection(select, ignore)
    cache = SummaryCache(cache_dir)
    collected = _collect_summaries(paths, cache)
    index = ProjectIndex.build(collected.summaries)

    raw = _local_findings(collected.summaries)
    raw.extend(check_unit_flow(index))
    raw.extend(check_purity(index))
    raw.extend(check_fifo_discipline(index))
    raw.extend(check_worker_entries(index))
    raw.extend(check_process_safety(index))
    raw.extend(check_determinism_flow(index))
    raw.extend(check_exception_flow(index))

    active_set = frozenset(active)
    suppressions: dict[str, Suppressions] = {
        summary.path: summary.suppressions()
        for summary in collected.summaries
    }
    kept: list[Diagnostic] = []
    inline_suppressed = 0
    for diagnostic in raw:
        if diagnostic.rule not in active_set:
            continue
        file_suppressions = suppressions.get(diagnostic.path)
        if file_suppressions is not None and file_suppressions.covers(diagnostic):
            inline_suppressed += 1
        else:
            kept.append(diagnostic)
    for path, file_suppressions in suppressions.items():
        kept.extend(_directive_findings(
            path, file_suppressions.directives, active_set,
        ))
    kept.extend(collected.parse_errors)

    return CheckResult(
        diagnostics=tuple(sorted(kept)),
        files_scanned=collected.total,
        reanalyzed=collected.reanalyzed,
        suppressed=inline_suppressed,
        rules=tuple(active),
        elapsed_seconds=time.perf_counter() - started,
    )
