"""Git-diff-scoped file selection for ``--changed-only``.

Pre-commit iteration wants findings for the files being committed, not
the whole tree.  The changed set is everything ``git diff HEAD`` sees
(staged and unstaged modifications) plus untracked files — the union a
developer thinks of as "my changes".

``bonsai check`` still analyses the *full* tree (an interprocedural
analysis with a partial call graph would understate every transitive
property) and restricts *reporting* to the changed files.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

from repro.errors import LintError


def _git_lines(arguments: list[str], root: Path) -> list[str]:
    try:
        completed = subprocess.run(
            ["git", *arguments],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired) as error:
        raise LintError(f"cannot run git for --changed-only: {error}") from error
    if completed.returncode != 0:
        detail = completed.stderr.strip() or f"exit {completed.returncode}"
        raise LintError(f"git {arguments[0]} failed for --changed-only: {detail}")
    return [line for line in completed.stdout.splitlines() if line.strip()]


def repo_root(start: str | Path = ".") -> Path:
    """Top-level directory of the enclosing git repository."""
    lines = _git_lines(["rev-parse", "--show-toplevel"], Path(start))
    if not lines:
        raise LintError("git rev-parse returned no repository root")
    return Path(lines[0])


def changed_files(start: str | Path = ".") -> set[Path]:
    """Resolved paths of files changed relative to ``HEAD``.

    Staged and unstaged modifications (``git diff --name-only HEAD``)
    plus untracked, non-ignored files.  Deleted files drop out naturally
    because the caller intersects with files that exist on disk.
    """
    root = repo_root(start)
    names = _git_lines(["diff", "--name-only", "HEAD"], root)
    names += _git_lines(
        ["ls-files", "--others", "--exclude-standard"], root
    )
    return {(root / name).resolve() for name in names}
