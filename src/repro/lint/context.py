"""Dotted module names, which scope rules to parts of the ``repro`` package."""

from __future__ import annotations

from pathlib import Path


def module_name(path: Path) -> str | None:
    """Dotted module path for files under a ``repro`` package directory.

    ``src/repro/hw/merger.py`` maps to ``repro.hw.merger``;
    ``__init__.py`` maps to its package.  Files with no ``repro``
    ancestor directory (benchmarks, standalone scripts) return ``None``.
    """
    parts = list(path.parts)
    if "repro" not in parts:
        return None
    anchor = len(parts) - 1 - parts[::-1].index("repro")
    dotted = parts[anchor:-1]
    if path.stem != "__init__":
        dotted = dotted + [path.stem]
    return ".".join(dotted)
