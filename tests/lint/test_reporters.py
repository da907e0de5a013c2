"""Reporter contracts: the ``bonsai check`` JSON schema is pinned here."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.lint.graph import analyze
from repro.lint.graph.main import (
    render_json,
    render_sarif_report,
    render_statistics,
    render_text,
    statistics_properties,
)

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


class TestStatistics:
    @pytest.fixture
    def result(self, tmp_path):
        source = tmp_path / "src" / "repro"
        source.mkdir(parents=True)
        (source / "__init__.py").write_text('"""pkg."""\n', encoding="utf-8")
        (source / "engine.py").write_text(
            textwrap.dedent("""
                import random


                def helper():
                    return random.random()


                def advance(cycle):
                    return cycle + helper()
            """),
            encoding="utf-8",
        )
        return analyze([tmp_path / "src"], select=["det-unseeded-flow"])

    def test_render_statistics_lists_rule_counts(self, result):
        text = render_statistics(result)
        assert "statistics:" in text
        assert "det-unseeded-flow" in text
        assert "files scanned" in text
        assert "wall time" in text

    def test_properties_bag_mirrors_counters(self, result):
        bag = statistics_properties(result)
        assert bag["filesScanned"] == result.files_scanned
        assert bag["ruleCounts"] == {"det-unseeded-flow": 1}
        assert bag["elapsedSeconds"] >= 0

    def test_sarif_carries_properties_only_when_asked(self, result):
        with_stats = json.loads(render_sarif_report(result, statistics=True))
        run = with_stats["runs"][0]
        assert run["properties"]["ruleCounts"] == {"det-unseeded-flow": 1}
        without = json.loads(render_sarif_report(result))
        assert "properties" not in without["runs"][0]
