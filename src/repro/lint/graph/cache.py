"""Content-hash summary cache.

Extraction (parse + one AST pass) dominates a cold ``bonsai check``;
the whole-program propagation passes are linear in the summary sizes
and always re-run.  The cache therefore stores one JSON summary per
*content hash*: a warm run with unchanged sources re-extracts zero
files, and an edit invalidates exactly the entries whose content
changed — the call-graph SCCs touching them are recomputed from the
freshly assembled index, which is the cheap part.

Entries are keyed ``sha256(module name + source)`` plus the analyzer
fingerprint: the sha256 of every ``repro/lint/**/*.py`` file, computed
once per run.  The module name is part of the key because a summary
depends on it: relative imports resolve against it, and the local rules
scope themselves by it.  The fingerprint covers everything else a
summary depends on — the extraction code, the local rules and the rule
table — so any edit to the analyzer misses the cache wholesale, with no
version to bump by hand.  Opening a cache directory deletes every
entry written under another fingerprint, so analyzer edits do not pile
up generations of dead summaries; entries left behind by source edits
under the current fingerprint still accumulate.  The cache is advisory:
any read/decode error falls back to re-extraction.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.lint.context import module_name
from repro.lint.graph.summary import FileSummary

#: the analyzer package whose sources every cache key depends on
ANALYZER_ROOT = Path(__file__).resolve().parents[1]


def analyzer_fingerprint() -> str:
    """sha256 over the path and bytes of every analyzer source file."""
    digest = hashlib.sha256()
    for path in sorted(ANALYZER_ROOT.rglob("*.py")):
        digest.update(f"{path.relative_to(ANALYZER_ROOT).as_posix()}\x00".encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class SummaryCache:
    """Directory of serialized :class:`FileSummary` objects."""

    def __init__(self, directory: str | Path | None) -> None:
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self.fingerprint = analyzer_fingerprint()[:16]
            self._prune()

    def _prune(self) -> None:
        """Delete the entries no run of this analyzer can ever read."""
        for entry in self.directory.glob("*-*.json"):
            if entry.stem.rpartition("-")[2] == self.fingerprint:
                continue
            try:
                entry.unlink()
            except OSError:  # bonsai-lint: disable=exn-swallow -- a read-only or concurrently pruned cache dir keeps its stale entries; they are never read, so the analysis result is unaffected
                pass

    def _entry(self, source: str, module: str | None) -> Path | None:
        if self.directory is None:
            return None
        digest = hashlib.sha256(f"{module}\x00{source}".encode("utf-8")).hexdigest()
        return self.directory / f"{digest}-{self.fingerprint}.json"

    def load(self, path: str, source: str) -> FileSummary | None:
        """Cached summary for ``source``, or ``None`` on a miss."""
        entry = self._entry(source, module_name(Path(path)))
        if entry is None:
            return None
        try:
            return FileSummary.from_json(
                path, json.loads(entry.read_text(encoding="utf-8"))
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def store(self, source: str, summary: FileSummary) -> None:
        """Persist one freshly extracted summary (best effort)."""
        entry = self._entry(source, summary.module)
        if entry is None:
            return
        try:
            entry.write_text(
                json.dumps(summary.to_json(), sort_keys=True),
                encoding="utf-8",
            )
        except OSError:  # bonsai-lint: disable=exn-swallow -- a read-only cache dir degrades to cold runs; the analysis result is unaffected
            pass
