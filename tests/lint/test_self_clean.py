"""Meta-test: the shipped tree passes its own static analysis.

This is the gate the CI workflow enforces (``bonsai check src
benchmarks --require-justification`` must exit 0); keeping it in the
test suite means a violation fails tier-1 locally before it ever
reaches CI.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.graph import analyze
from repro.lint.graph.baseline import DEFAULT_BASELINE, Baseline

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_shipped_tree_is_check_clean():
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE)
    result = analyze(
        [REPO_ROOT / "src", REPO_ROOT / "benchmarks"],
        baseline=baseline,
        require_justification=True,
    )
    rendered = "\n".join(d.render() for d in result.diagnostics)
    assert result.diagnostics == (), f"check findings in shipped tree:\n{rendered}"
    assert result.exit_code == 0
    # Sanity: the run actually covered the tree (guards against a future
    # path refactor silently checking nothing).
    assert result.files_scanned > 50
    assert result.suppressed > 0, "known intentional suppressions should register"
