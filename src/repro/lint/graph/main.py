"""Argument wiring and report rendering for ``bonsai check``."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.lint.diagnostics import Severity
from repro.lint.graph.analyzer import (
    PARSE_ERROR_RULE,
    UNJUSTIFIED_SUPPRESSION_RULE,
    USELESS_SUPPRESSION_RULE,
    CheckResult,
    analyze,
)
from repro.lint.graph.rules import CHECK_RULES
from repro.lint.sarif import render_sarif

#: directories analysed when no paths are given and they exist
DEFAULT_PATHS = ("src", "benchmarks")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the check options to a (sub)parser."""
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to analyse (default: src benchmarks)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="summary cache directory (warm runs re-extract only changed files)",
    )
    parser.add_argument(
        "--sarif-file", default=None, metavar="FILE",
        help="additionally write a SARIF 2.1.0 log to FILE",
    )
    parser.add_argument(
        "--select", action="append", default=None, metavar="RULES",
        help="comma-separated rules to run (default: all); repeatable",
    )
    parser.add_argument(
        "--ignore", action="append", default=None, metavar="RULES",
        help="comma-separated rules to skip; repeatable",
    )
    parser.add_argument(
        "--statistics", action="store_true",
        help="print per-rule finding counts, cache counters and wall "
        "time after the findings",
    )
    parser.add_argument(
        "--list-analyses", action="store_true",
        help="print every rule with its severity and exit",
    )


def _split_rules(values: list[str] | None) -> list[str] | None:
    if values is None:
        return None
    return [
        part.strip()
        for text in values
        for part in text.split(",")
        if part.strip()
    ]


def render_text(result: CheckResult) -> str:
    """Compiler-style findings plus a one-line run summary."""
    lines = [diagnostic.render() for diagnostic in result.diagnostics]
    if result.diagnostics:
        lines.append("")
    lines.append(
        f"{len(result.diagnostics)} finding(s) "
        f"({result.count(Severity.ERROR)} error(s), "
        f"{result.count(Severity.WARNING)} warning(s)), "
        f"{result.suppressed} suppressed, "
        f"{result.files_scanned} file(s) scanned "
        f"({result.reanalyzed} analyzed, {result.from_cache} from cache) "
        f"in {result.elapsed_seconds:.2f}s"
    )
    return "\n".join(lines)


def rule_counts(result: CheckResult) -> dict[str, int]:
    """Finding count per rule, sorted by rule name."""
    counts: dict[str, int] = {}
    for diagnostic in result.diagnostics:
        counts[diagnostic.rule] = counts.get(diagnostic.rule, 0) + 1
    return dict(sorted(counts.items()))


def render_statistics(result: CheckResult) -> str:
    """The ``--statistics`` block printed after the findings."""
    lines = ["statistics:"]
    counts = rule_counts(result)
    for rule, count in counts.items():
        lines.append(f"  {rule:<24} {count}")
    if not counts:
        lines.append("  (no findings)")
    lines.append(f"  files scanned            {result.files_scanned}")
    lines.append(f"  re-analyzed              {result.reanalyzed}")
    lines.append(f"  from cache               {result.from_cache}")
    lines.append(f"  wall time                {result.elapsed_seconds:.2f}s")
    return "\n".join(lines)


def statistics_properties(result: CheckResult) -> dict:
    """The same counters as a SARIF run-level ``properties`` bag."""
    return {
        "filesScanned": result.files_scanned,
        "reanalyzed": result.reanalyzed,
        "fromCache": result.from_cache,
        "elapsedSeconds": round(result.elapsed_seconds, 3),
        "ruleCounts": rule_counts(result),
    }


def render_json(result: CheckResult) -> str:
    """Stable machine-readable report (schema version 2)."""
    payload = {
        "version": 2,
        "files_scanned": result.files_scanned,
        "reanalyzed": result.reanalyzed,
        "from_cache": result.from_cache,
        "rules": list(result.rules),
        "diagnostics": [d.to_json() for d in result.diagnostics],
        "summary": {
            "error": result.count(Severity.ERROR),
            "warning": result.count(Severity.WARNING),
            "suppressed": result.suppressed,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_sarif_report(
    result: CheckResult, *, statistics: bool = False
) -> str:
    """The run as a SARIF 2.1.0 log."""
    descriptions = {
        name: (rule.description, rule.severity.value)
        for name, rule in CHECK_RULES.items()
    }
    descriptions[PARSE_ERROR_RULE] = (
        "file could not be read or parsed; the whole-program call graph "
        "would be incomplete", "error",
    )
    descriptions[USELESS_SUPPRESSION_RULE] = (
        "suppression directive that silenced nothing this run", "warning",
    )
    descriptions[UNJUSTIFIED_SUPPRESSION_RULE] = (
        "suppression directive without a '-- reason' justification",
        "warning",
    )
    # parse-error can always fire, so it is always "enabled"; the
    # directive audits are listed when they fire
    enabled = tuple(result.rules) + (PARSE_ERROR_RULE,)
    return render_sarif(
        result.diagnostics,
        rule_descriptions=descriptions,
        enabled_rules=enabled,
        properties=statistics_properties(result) if statistics else None,
    )


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a check run described by parsed arguments."""
    if args.list_analyses:
        for name, rule in sorted(CHECK_RULES.items()):
            print(f"{name:18} [{rule.severity.value:7}] {rule.description}")
        return 0
    paths = args.paths or [p for p in DEFAULT_PATHS if Path(p).is_dir()]
    result = analyze(
        paths,
        cache_dir=args.cache_dir,
        select=_split_rules(args.select),
        ignore=_split_rules(args.ignore),
    )
    statistics = args.statistics
    if args.sarif_file:
        Path(args.sarif_file).write_text(
            render_sarif_report(result, statistics=statistics) + "\n",
            encoding="utf-8",
        )
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif_report(result, statistics=statistics))
    else:
        print(render_text(result))
        if statistics:
            print()
            print(render_statistics(result))
    return result.exit_code

