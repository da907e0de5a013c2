"""Degradation tests for the whole-program analyzer.

The interprocedural passes must survive the tree shapes that break
naive import-graph walkers: cyclic imports, namespace packages without
``__init__.py``, and files that do not parse.  A broken file degrades
to a ``parse-error`` diagnostic for that file; every other file is
still analysed by every pass.
"""

from __future__ import annotations

import textwrap

from repro.lint.graph.analyzer import analyze


def _write(tmp_path, files):
    for name, body in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body), encoding="utf-8")
    return tmp_path / "src"


def test_cyclic_imports_converge(tmp_path):
    # a <-> b mutual recursion forms one SCC; both passes must reach a
    # fixpoint and still report the escape out of the cycle
    root = _write(tmp_path, {
        "src/repro/__init__.py": '"""pkg."""\n',
        "src/repro/a.py": """
            import repro.b


            def ping(n):
                if n <= 0:
                    raise ValueError("done")
                return repro.b.pong(n - 1)
        """,
        "src/repro/b.py": """
            import repro.a


            def pong(n):
                return repro.a.ping(n)
        """,
        "src/repro/cli.py": """
            from repro.a import ping


            def main(argv=None):
                return ping(3)
        """,
    })
    result = analyze([root], select=["exn-escape"])
    assert [d.rule for d in result.diagnostics] == ["exn-escape"]
    assert "ValueError" in result.diagnostics[0].message


def test_namespace_package_without_init(tmp_path):
    # PEP 420 namespace dirs have no __init__.py; module names must
    # still resolve so the cross-package call edge exists
    root = _write(tmp_path, {
        "src/repro/util/files.py": """
            import os


            def listing(root):
                return os.listdir(root)
        """,
        "src/repro/engine/scan.py": """
            from repro.util.files import listing


            def names(root):
                return [n for n in listing(root)]
        """,
    })
    assert not (root / "repro" / "__init__.py").exists()
    result = analyze([root], select=["det-order-leak"])
    assert [d.rule for d in result.diagnostics] == ["det-order-leak"]


def test_syntax_error_degrades_to_parse_error(tmp_path):
    # the broken file yields parse-error; the healthy files still get
    # the full interprocedural treatment from both new passes
    root = _write(tmp_path, {
        "src/repro/__init__.py": '"""pkg."""\n',
        "src/repro/broken.py": """
            def oops(:
                return 1
        """,
        "src/repro/helper.py": """
            import random


            def noise():
                return random.random()
        """,
        "src/repro/engine.py": """
            from repro.helper import noise


            def advance(cycle):
                return cycle + noise()
        """,
        "src/repro/cli.py": """
            def main(argv=None):
                raise KeyError("x")
        """,
    })
    result = analyze([root], select=["det-unseeded-flow", "exn-escape"])
    rules = sorted(d.rule for d in result.diagnostics)
    assert rules == ["det-unseeded-flow", "exn-escape", "parse-error"]
    parse = [d for d in result.diagnostics if d.rule == "parse-error"]
    assert parse[0].path.endswith("broken.py")


def test_cross_file_finding_lands_at_the_consumer(tmp_path):
    # the evidence lives in helper.py; the finding belongs to the
    # deterministic-zone function that consumes it
    root = _write(tmp_path, {
        "src/repro/__init__.py": '"""pkg."""\n',
        "src/repro/helper.py": """
            import random


            def noise():
                return random.random()
        """,
        "src/repro/engine.py": """
            from repro.helper import noise


            def advance(cycle):
                return cycle + noise()
        """,
    })
    full = analyze([root], select=["det-unseeded-flow"])
    assert [(d.rule, d.path) for d in full.diagnostics] == [
        ("det-unseeded-flow", str(root / "repro" / "engine.py"))
    ]
