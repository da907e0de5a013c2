"""SARIF 2.1.0 reporter for ``bonsai check``.

SARIF (Static Analysis Results Interchange Format, OASIS standard) is
what CI systems ingest to annotate pull-request diffs.  One ``run`` is
emitted per invocation, with the full rule table in the tool driver and
one ``result`` per diagnostic.

The emitted subset is pinned by ``tests/lint/test_sarif.py`` against a
vendored 2.1.0 schema extract; widen the schema when widening the
output.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping, Sequence

from repro._version import __version__
from repro.lint.diagnostics import Diagnostic, Severity

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: the SARIF ``tool.driver.name``
TOOL_NAME = "bonsai-check"

_LEVELS = {Severity.ERROR: "error", Severity.WARNING: "warning"}


def _rule_entry(name: str, description: str, severity: str) -> dict:
    return {
        "id": name,
        "shortDescription": {"text": description},
        "defaultConfiguration": {"level": severity},
    }


#: partialFingerprints key; bump the suffix when the hashed inputs change
FINGERPRINT_KEY = "bonsaiFingerprint/v1"


def _fingerprint(diagnostic: Diagnostic, occurrence: int) -> str:
    """Stable identity of one finding across pushes.

    Content-addressed (path, rule, message, occurrence index), so GitHub
    code scanning dedupes a finding even when unrelated edits shift its
    line number.
    """
    payload = "\x00".join((
        diagnostic.path.replace("\\", "/"),
        diagnostic.rule,
        diagnostic.message,
        str(occurrence),
    ))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def _location(path: str, line: int, column: int) -> dict:
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": path.replace("\\", "/")},
            "region": {
                "startLine": max(1, line),
                "startColumn": column + 1,
            },
        }
    }


def _result(diagnostic: Diagnostic, occurrence: int) -> dict:
    entry: dict = {
        "ruleId": diagnostic.rule,
        "level": _LEVELS[diagnostic.severity],
        "message": {"text": diagnostic.message},
        "locations": [
            _location(diagnostic.path, diagnostic.line, diagnostic.column)
        ],
        "partialFingerprints": {
            FINGERPRINT_KEY: _fingerprint(diagnostic, occurrence),
        },
    }
    if diagnostic.related:
        entry["relatedLocations"] = [
            {
                **_location(hop["path"], hop["line"], hop["column"]),
                "message": {"text": hop["message"]},
            }
            for hop in diagnostic.related
        ]
    return entry


def render_sarif(
    diagnostics: Sequence[Diagnostic],
    *,
    rule_descriptions: Mapping[str, tuple[str, str]],
    enabled_rules: Sequence[str] | None = None,
    properties: Mapping | None = None,
) -> str:
    """Serialise findings as a SARIF 2.1.0 log.

    Parameters
    ----------
    diagnostics:
        Findings that fail the run.
    rule_descriptions:
        ``rule name -> (one-line description, default level)`` for the
        driver's rule table; rules that fired but are not listed (e.g.
        ``parse-error``) get a generated entry.
    enabled_rules:
        Rules active in this run.  When given, the driver rule table
        lists only rules that are enabled or actually fired — a SARIF
        consumer then sees the run's real rule surface instead of the
        whole rule table.  ``None`` keeps the full table.
    properties:
        Optional run-level ``properties`` bag (the ``--statistics``
        counters).
    """
    rules = {
        name: _rule_entry(name, description, level)
        for name, (description, level) in sorted(rule_descriptions.items())
        if enabled_rules is None or name in set(enabled_rules)
    }
    for diagnostic in diagnostics:
        if diagnostic.rule not in rules:
            description, level = rule_descriptions.get(
                diagnostic.rule,
                (
                    "diagnostic outside the registered rule set",
                    _LEVELS[diagnostic.severity],
                ),
            )
            rules[diagnostic.rule] = _rule_entry(
                diagnostic.rule, description, level
            )
    occurrences: dict[tuple, int] = {}
    results = []
    for diagnostic in diagnostics:
        key = (diagnostic.path, diagnostic.rule, diagnostic.message)
        occurrence = occurrences.get(key, 0)
        occurrences[key] = occurrence + 1
        results.append(_result(diagnostic, occurrence))
    run: dict = {
        "tool": {
            "driver": {
                "name": TOOL_NAME,
                "version": __version__,
                "informationUri": (
                    "https://github.com/bonsai-repro/bonsai"
                ),
                "rules": [rules[name] for name in sorted(rules)],
            }
        },
        "columnKind": "utf16CodeUnits",
        "results": results,
    }
    if properties:
        run["properties"] = dict(properties)
    payload = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [run],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
