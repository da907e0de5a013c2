"""Content-hash summary cache.

Extraction (parse + one AST pass) dominates a cold ``bonsai check``;
the whole-program propagation passes are linear in the summary sizes
and always re-run.  The cache therefore stores one JSON summary per
*content hash*: a warm run with unchanged sources re-extracts zero
files, and an edit invalidates exactly the entries whose content
changed — the call-graph SCCs touching them are recomputed from the
freshly assembled index, which is the cheap part.

Entries are keyed ``sha256(source) + module name + SUMMARY_VERSION +
rule-set hash``.  The module name is part of the key because a summary
depends on it: relative imports resolve against it, and the local rules
scope themselves by it.  Analyzer upgrades — a bumped summary version
*or* an added/changed rule — miss the cache wholesale.
Content hash alone would be wrong: a warm cache from before a new pass
landed would silently skip the facts that pass needs.  The cache is
advisory: any read/decode error falls back to re-extraction.

The version and rule table are read through their modules on every
call (not imported as values) so tests can monkeypatch a bump and
assert the forced re-extraction.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.lint.context import module_name
from repro.lint.graph import rules as _rules
from repro.lint.graph import summary as _summary
from repro.lint.graph.summary import FileSummary


def content_key(source: str, module: str | None) -> str:
    """Cache key of one module's contents under the current analyzer."""
    digest = hashlib.sha256(
        f"{module}\x00{source}".encode("utf-8")
    ).hexdigest()
    return (
        f"{digest}-v{_summary.SUMMARY_VERSION}-r{_rules.ruleset_hash()}"
    )


class SummaryCache:
    """Directory of serialized :class:`FileSummary` objects."""

    def __init__(self, directory: str | Path | None) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.hits = 0
        self.misses = 0
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    @property
    def enabled(self) -> bool:
        return self.directory is not None

    def load(self, path: str, source: str) -> FileSummary | None:
        """Cached summary for ``source``, or ``None`` on a miss."""
        if self.directory is None:
            return None
        entry = self.directory / f"{content_key(source, module_name(Path(path)))}.json"
        try:
            data = json.loads(entry.read_text(encoding="utf-8"))
            summary = (
                FileSummary.from_json(path, data)
                if data.get("version") == _summary.SUMMARY_VERSION else None
            )
        except (OSError, ValueError, KeyError, TypeError):
            summary = None
        if summary is None:
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def store(self, source: str, summary: FileSummary) -> None:
        """Persist one freshly extracted summary (best effort)."""
        if self.directory is None:
            return
        entry = self.directory / f"{content_key(source, summary.module)}.json"
        try:
            entry.write_text(
                json.dumps(summary.to_json(), sort_keys=True),
                encoding="utf-8",
            )
        except OSError:  # bonsai-lint: disable=exn-swallow -- a read-only cache dir degrades to cold runs; the analysis result is unaffected
            pass
