"""Reporter contracts: the ``bonsai check`` JSON schema is pinned here."""

from __future__ import annotations

import json

from repro.lint.graph import analyze
from repro.lint.graph.main import render_json, render_text

TOP_LEVEL_KEYS = {
    "version", "files_scanned", "reanalyzed", "from_cache", "rules",
    "diagnostics", "summary",
}
DIAGNOSTIC_KEYS = {"path", "line", "column", "rule", "severity", "message"}
SUMMARY_KEYS = {"error", "warning", "suppressed"}


def _dirty_result(tmp_path):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "bad.py").write_text(
        "import time\n\nraise ValueError(time.time() * 2**30 * 10**7)\n"
    )
    return analyze([tmp_path])


class TestJsonReporter:
    def test_schema_shape(self, tmp_path):
        result = _dirty_result(tmp_path)
        payload = json.loads(render_json(result))
        assert set(payload) == TOP_LEVEL_KEYS
        assert payload["version"] == 2
        assert payload["files_scanned"] == 1
        assert set(payload["summary"]) == SUMMARY_KEYS
        assert payload["diagnostics"], "fixture should produce findings"
        for diagnostic in payload["diagnostics"]:
            assert set(diagnostic) <= DIAGNOSTIC_KEYS | {"related"}
            assert DIAGNOSTIC_KEYS <= set(diagnostic)
            assert diagnostic["severity"] in ("error", "warning")
            assert diagnostic["line"] >= 1

    def test_summary_counts_match_diagnostics(self, tmp_path):
        payload = json.loads(render_json(_dirty_result(tmp_path)))
        by_severity = {"error": 0, "warning": 0}
        for diagnostic in payload["diagnostics"]:
            by_severity[diagnostic["severity"]] += 1
        assert by_severity["warning"] == 1  # unit-mix
        assert payload["summary"]["error"] == by_severity["error"]
        assert payload["summary"]["warning"] == by_severity["warning"]

    def test_rules_lists_the_active_rule_set(self, tmp_path):
        payload = json.loads(render_json(_dirty_result(tmp_path)))
        assert "determinism" in payload["rules"]
        assert "error-taxonomy" in payload["rules"]
        assert "det-taint-sink" in payload["rules"]

    def test_clean_run_payload(self, tmp_path):
        (tmp_path / "clean.py").write_text("x = 1\n")
        payload = json.loads(render_json(analyze([tmp_path])))
        assert payload["diagnostics"] == []
        assert payload["summary"] == {
            "error": 0, "warning": 0, "suppressed": 0,
        }


class TestTextReporter:
    def test_findings_then_summary_line(self, tmp_path):
        text = render_text(_dirty_result(tmp_path))
        lines = text.splitlines()
        assert any("determinism" in line for line in lines)
        assert "1 file(s) scanned" in lines[-1]
        assert "finding(s)" in lines[-1]

    def test_clean_run_is_one_summary_line(self, tmp_path):
        (tmp_path / "clean.py").write_text("x = 1\n")
        text = render_text(analyze([tmp_path]))
        assert text.startswith(
            "0 finding(s) (0 error(s), 0 warning(s)), 0 suppressed, "
            "1 file(s) scanned (1 analyzed, 0 from cache) in "
        )
        assert "\n" not in text
