"""Shared fixtures for the static-analysis tests."""

from __future__ import annotations

import textwrap

import pytest

from repro.lint.graph import analyze


@pytest.fixture
def check_source(tmp_path):
    """Write a snippet at a repo-like relative path and check it.

    Returns ``(diagnostics, suppressed_count)``.  The relative path
    matters: rules scope themselves by the dotted module derived from
    the ``repro`` path component (e.g. ``src/repro/hw/x.py`` is
    ``repro.hw.x``).
    """

    def _check(relpath: str, source: str, select: list[str] | None = None):
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        result = analyze([path], select=select)
        return list(result.diagnostics), result.suppressed

    return _check
