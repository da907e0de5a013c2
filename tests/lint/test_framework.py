"""Framework-level tests: suppressions, file collection, the rule table."""

from __future__ import annotations

import pytest

from repro.errors import LintError
from repro.lint import Diagnostic, Severity
from repro.lint.context import module_name
from repro.lint.graph import CHECK_RULES, analyze
from repro.lint.graph.analyzer import (
    PARSE_ERROR_RULE,
    UNJUSTIFIED_SUPPRESSION_RULE,
    USELESS_SUPPRESSION_RULE,
    collect_files,
    resolve_rule_selection,
)
from repro.lint.rules import LOCAL_RULES
from repro.lint.suppressions import Suppressions

EXPECTED_RULES = {
    "unit-mix",
    "clock-discipline",
    "determinism",
    "model-purity",
    "error-taxonomy",
}


def _diag(rule: str, line: int) -> Diagnostic:
    return Diagnostic(
        path="x.py", line=line, column=0, rule=rule,
        message="m", severity=Severity.ERROR,
    )


class TestSuppressions:
    def test_inline_trailer_covers_its_own_line(self):
        sup = Suppressions.scan("x = 1  # bonsai-lint: disable=unit-mix -- why\n")
        assert sup.covers(_diag("unit-mix", 1))
        assert not sup.covers(_diag("unit-mix", 2))
        assert not sup.covers(_diag("determinism", 1))

    def test_comment_only_line_shields_next_line(self):
        source = "# bonsai-lint: disable=determinism -- seeded upstream\nx = f()\n"
        sup = Suppressions.scan(source)
        assert sup.covers(_diag("determinism", 2))
        assert not sup.covers(_diag("determinism", 1))

    def test_disable_file_covers_every_line(self):
        sup = Suppressions.scan(
            "y = 2\n# bonsai-lint: disable-file=unit-mix -- units table\nx = 1\n"
        )
        for line in (1, 2, 3, 99):
            assert sup.covers(_diag("unit-mix", line))
        assert not sup.covers(_diag("determinism", 1))

    def test_disable_all_covers_every_rule(self):
        sup = Suppressions.scan("x = 1  # bonsai-lint: disable=all -- generated\n")
        assert sup.covers(_diag("unit-mix", 1))
        assert sup.covers(_diag("clock-discipline", 1))

    def test_comma_separated_rules_and_justification(self):
        sup = Suppressions.scan(
            "x = 1  # bonsai-lint: disable=unit-mix, determinism -- both fine\n"
        )
        assert sup.covers(_diag("unit-mix", 1))
        assert sup.covers(_diag("determinism", 1))
        assert not sup.covers(_diag("model-purity", 1))

    def test_unrelated_comments_are_ignored(self):
        sup = Suppressions.scan("x = 1  # noqa: E501\n# plain comment\n")
        assert sup.directives == []

    def test_comment_only_directive_skips_decorators(self):
        source = (
            "# bonsai-lint: disable=model-purity -- cache is memoisation\n"
            "@functools.lru_cache(\n"
            "    maxsize=None,\n"
            ")\n"
            "def f():\n"
            "    pass\n"
        )
        sup = Suppressions.scan(source)
        assert sup.covers(_diag("model-purity", 5))  # the def line
        assert not sup.covers(_diag("model-purity", 2))

    def test_comment_only_directive_skips_blank_and_comment_lines(self):
        source = (
            "# bonsai-lint: disable=unit-mix -- explained below\n"
            "# this constant is a raw sector size\n"
            "\n"
            "SECTOR = 512\n"
        )
        sup = Suppressions.scan(source)
        assert sup.covers(_diag("unit-mix", 4))

    def test_justification_is_recorded(self):
        sup = Suppressions.scan(
            "x = 1  # bonsai-lint: disable=all -- generated table\n"
            "y = 2  # bonsai-lint: disable=unit-mix\n"
        )
        first, second = sup.directives
        assert first.rules == frozenset({"all"}) and first.justified
        assert second.rules == frozenset({"unit-mix"}) and not second.justified

    def test_covers_records_directive_usage(self):
        sup = Suppressions.scan("x = 1  # bonsai-lint: disable=unit-mix -- why\n")
        directive = sup.directives[0]
        assert directive.used == set()
        assert sup.covers(_diag("unit-mix", 1))
        assert directive.used == {"unit-mix"}


class TestCollectFiles:
    def test_expands_directories_recursively(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        a = tmp_path / "a.py"
        b = tmp_path / "pkg" / "b.py"
        a.write_text("x = 1\n")
        b.write_text("y = 2\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        assert collect_files([tmp_path]) == [a, b]

    def test_skips_cache_and_build_dirs(self, tmp_path):
        hidden = tmp_path / "__pycache__" / "c.py"
        hidden.parent.mkdir()
        hidden.write_text("x = 1\n")
        keep = tmp_path / "d.py"
        keep.write_text("x = 1\n")
        assert collect_files([tmp_path]) == [keep]

    def test_accepts_explicit_file(self, tmp_path):
        target = tmp_path / "one.py"
        target.write_text("x = 1\n")
        assert collect_files([target]) == [target]

    def test_rejects_non_python_file(self, tmp_path):
        target = tmp_path / "data.csv"
        target.write_text("1,2\n")
        with pytest.raises(LintError, match="not a Python file"):
            collect_files([target])

    def test_rejects_missing_path(self, tmp_path):
        with pytest.raises(LintError, match="no such file or directory"):
            collect_files([tmp_path / "missing"])

    def test_rejects_empty_path_list(self):
        with pytest.raises(LintError, match="no paths"):
            collect_files([])


class TestRegistry:
    def test_ships_the_five_documented_rules(self):
        assert set(LOCAL_RULES) == EXPECTED_RULES
        assert EXPECTED_RULES <= set(CHECK_RULES)

    def test_every_rule_has_name_description_severity(self):
        for name, rule in CHECK_RULES.items():
            assert name and rule.description
            assert isinstance(rule.severity, Severity)
        assert CHECK_RULES["unit-mix"].severity is Severity.WARNING

    def test_select_narrows_the_rule_set(self):
        assert resolve_rule_selection(["unit-mix"], None) == ("unit-mix",)

    def test_disable_removes_rules(self):
        names = set(resolve_rule_selection(None, ["unit-mix"]))
        assert "unit-mix" not in names
        assert "determinism" in names

    def test_unknown_rule_raises_lint_error(self):
        with pytest.raises(LintError, match="unknown check rule 'unit-mixx'"):
            resolve_rule_selection(["unit-mixx"], None)
        with pytest.raises(LintError, match="unknown check rule"):
            resolve_rule_selection(None, ["nope"])


class TestModuleName:
    @pytest.mark.parametrize(
        "relpath,expected",
        [
            ("src/repro/hw/merger.py", "repro.hw.merger"),
            ("src/repro/units.py", "repro.units"),
            ("src/repro/hw/__init__.py", "repro.hw"),
            ("benchmarks/bench_sort.py", None),
            ("scripts/tool.py", None),
        ],
    )
    def test_mapping(self, tmp_path, relpath, expected):
        assert module_name(tmp_path / relpath) == expected


def _check_one(tmp_path, source: str, **options):
    """Check one ``repro`` module; returns ``(findings, suppressed)``."""
    target = tmp_path / "repro" / "mod.py"
    target.parent.mkdir(exist_ok=True)
    target.write_text(source)
    result = analyze([target], **options)
    return list(result.diagnostics), result.suppressed


class TestDirectiveFindings:
    def test_stale_directive_warns_useless_suppression(self, tmp_path):
        kept, suppressed = _check_one(
            tmp_path, "x = 1  # bonsai-lint: disable=unit-mix -- outdated\n"
        )
        assert suppressed == 0
        assert [d.rule for d in kept] == [USELESS_SUPPRESSION_RULE]
        assert kept[0].severity is Severity.WARNING
        assert "unit-mix" in kept[0].message

    def test_used_directive_is_not_stale(self, tmp_path):
        kept, suppressed = _check_one(
            tmp_path,
            "import random\n"
            "r = random.random()  # bonsai-lint: disable=determinism -- demo\n",
        )
        assert suppressed == 1
        assert kept == []

    def test_select_run_does_not_flag_unselected_rules(self, tmp_path):
        # the directive names a rule this run never executed, so its
        # staleness is unknowable — stay quiet instead of lying
        source = "x = 1  # bonsai-lint: disable=determinism -- other\n"
        kept, _ = _check_one(tmp_path, source, select=["unit-mix"])
        assert kept == []
        kept, _ = _check_one(tmp_path, source, ignore=["determinism"])
        assert kept == []

    def test_stale_check_rule_directive_is_flagged(self, tmp_path):
        kept, _ = _check_one(
            tmp_path, "x = 1  # bonsai-lint: disable=unit-flow-mix -- reviewed\n"
        )
        assert [d.rule for d in kept] == [USELESS_SUPPRESSION_RULE]
        assert "unit-flow-mix" in kept[0].message

    def test_stale_disable_all_is_flagged_on_full_runs_only(self, tmp_path):
        source = "x = 1  # bonsai-lint: disable=all -- generated\n"
        kept, _ = _check_one(tmp_path, source)
        assert [d.rule for d in kept] == [USELESS_SUPPRESSION_RULE]
        kept, _ = _check_one(tmp_path, source, select=["unit-mix"])
        assert kept == []

    def test_bare_directives_are_flagged(self, tmp_path):
        source = (
            "import random\n"
            "r = random.random()  # bonsai-lint: disable=determinism\n"
        )
        kept, suppressed = _check_one(tmp_path, source)
        assert suppressed == 1
        assert [d.rule for d in kept] == [UNJUSTIFIED_SUPPRESSION_RULE]

    def test_stale_directive_is_reported_in_its_own_file(self, tmp_path):
        stale = tmp_path / "repro" / "stale.py"
        stale.parent.mkdir()
        stale.write_text("x = 1  # bonsai-lint: disable=unit-mix -- old\n")
        other = tmp_path / "repro" / "other.py"
        other.write_text("y = 2\n")
        hit = analyze([tmp_path])
        assert [(d.rule, d.path) for d in hit.diagnostics] == [
            (USELESS_SUPPRESSION_RULE, str(stale))
        ]


class TestRunner:
    def test_syntax_error_becomes_parse_error_diagnostic(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        result = analyze([broken])
        assert result.suppressed == 0
        assert len(result.diagnostics) == 1
        diag = result.diagnostics[0]
        assert diag.rule == PARSE_ERROR_RULE
        assert diag.severity is Severity.ERROR
        assert "does not parse" in diag.message

    def test_run_aggregates_and_sorts(self, tmp_path):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "zz.py").write_text("raise ValueError('late file')\n")
        (pkg / "aa.py").write_text("raise RuntimeError('early file')\n")
        result = analyze([tmp_path], select=["error-taxonomy"])
        assert result.files_scanned == 2
        assert result.exit_code == 1
        assert [d.path for d in result.diagnostics] == sorted(
            d.path for d in result.diagnostics
        )

    def test_clean_run_exits_zero(self, tmp_path):
        (tmp_path / "clean.py").write_text("x = 1\n")
        result = analyze([tmp_path])
        assert result.diagnostics == ()
        assert result.exit_code == 0
        assert result.files_scanned == 1

    def test_undecodable_file_becomes_parse_error(self, tmp_path):
        target = tmp_path / "binary.py"
        target.write_bytes(b"\xff\xfe\x00bad")
        result = analyze([tmp_path])
        assert result.suppressed == 0
        assert [d.rule for d in result.diagnostics] == [PARSE_ERROR_RULE]
        assert "decode" in result.diagnostics[0].message
        assert result.exit_code == 1

    def test_null_bytes_become_parse_error(self, tmp_path):
        target = tmp_path / "nulls.py"
        target.write_text("x = 1\x00\n")
        result = analyze([target])
        assert [d.rule for d in result.diagnostics] == [PARSE_ERROR_RULE]

    def test_unreadable_file_becomes_parse_error(self, tmp_path, monkeypatch):
        target = tmp_path / "gone.py"
        target.write_text("x = 1\n")
        assert analyze([target]).diagnostics == ()
        real_read_text = type(target).read_text

        def unreadable(path, *args, **kwargs):
            if path == target:
                raise PermissionError(f"permission denied: {path}")
            return real_read_text(path, *args, **kwargs)

        monkeypatch.setattr(type(target), "read_text", unreadable)
        result = analyze([target])
        assert [d.rule for d in result.diagnostics] == [PARSE_ERROR_RULE]
        assert result.diagnostics[0].severity is Severity.ERROR


class TestDiagnostic:
    def test_render_is_compiler_style(self):
        diag = Diagnostic(
            path="src/x.py", line=3, column=4, rule="unit-mix",
            message="mixed units", severity=Severity.WARNING,
        )
        assert diag.render() == "src/x.py:3:4: unit-mix warning: mixed units"

    def test_sorts_by_position(self):
        first = _diag("a-rule", 1)
        later = _diag("a-rule", 9)
        assert sorted([later, first]) == [first, later]
