"""``--changed-only`` selection and ``--statistics`` reporting tests."""

from __future__ import annotations

import json
import subprocess
import textwrap

import pytest

from repro.errors import LintError
from repro.lint.gitchanges import changed_files, repo_root
from repro.lint.graph.analyzer import analyze
from repro.lint.graph.main import (
    render_sarif_report,
    render_statistics,
    statistics_properties,
)


def _git(root, *arguments):
    subprocess.run(
        ["git", *arguments], cwd=root, check=True, capture_output=True
    )


@pytest.fixture
def git_repo(tmp_path):
    """A committed repo with one tracked python file."""
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "config", "user.email", "t@example.com")
    _git(tmp_path, "config", "user.name", "t")
    (tmp_path / "clean.py").write_text('"""clean."""\n', encoding="utf-8")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


class TestChangedFiles:
    def test_clean_tree_is_empty(self, git_repo):
        assert changed_files(git_repo) == set()

    def test_modified_and_untracked_are_included(self, git_repo):
        (git_repo / "clean.py").write_text('"""edited."""\n', encoding="utf-8")
        (git_repo / "fresh.py").write_text('"""new."""\n', encoding="utf-8")
        changed = changed_files(git_repo)
        assert changed == {
            (git_repo / "clean.py").resolve(),
            (git_repo / "fresh.py").resolve(),
        }

    def test_repo_root_resolves_from_subdirectory(self, git_repo):
        sub = git_repo / "pkg"
        sub.mkdir()
        assert repo_root(sub).resolve() == git_repo.resolve()

    def test_outside_a_repo_raises_lint_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        outside = tmp_path / "plain"
        outside.mkdir()
        with pytest.raises(LintError):
            changed_files(outside)


class TestLintChangedOnly:
    def test_clean_tree_short_circuits(self, git_repo, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(git_repo)
        assert main(["check", "--changed-only", "."]) == 0
        assert "0 changed file(s) to check" in capsys.readouterr().out

    def test_only_changed_files_are_linted(self, git_repo, monkeypatch, capsys):
        from repro.cli import main

        # a committed file carries a violation…
        dirty = git_repo / "repro" / "dirty.py"
        dirty.parent.mkdir()
        dirty.write_text('"""doc."""\nraise ValueError("x")\n', encoding="utf-8")
        _git(git_repo, "add", ".")
        _git(git_repo, "commit", "-q", "-m", "edit")
        # …while the untracked file is clean; only it is in the diff
        (git_repo / "fresh.py").write_text('"""new."""\n', encoding="utf-8")
        monkeypatch.chdir(git_repo)
        assert main(["check", "--changed-only", "--format", "json", "."]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["files_scanned"] == 3  # analysis still sees the tree
        assert report["diagnostics"] == []
        assert main(["check", "--format", "json", "."]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [d["rule"] for d in report["diagnostics"]] == ["error-taxonomy"]


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
