"""Hot-path performance analysis (``hot-*`` rules) tests.

Every true-positive fixture is paired with at least one documented
false-positive guard: the raise/assert exemption, the straight-line
literal tolerance in per-cycle bodies, the attribute-count threshold,
and cold-function silence.  Tests select only the rule under scrutiny
so unrelated passes cannot leak findings into the assertions.
"""

from __future__ import annotations

import ast
import json
import textwrap

import pytest

from repro.errors import LintError
from repro.lint.graph.analyzer import load_profile_rows, resolve_rule_selection
from repro.lint.graph.perfcheck import (
    PROFILE_SHARE_THRESHOLD,
    check_hot_paths,
    profile_root_prefixes,
)
from repro.lint.graph.summary import extract_summary
from repro.lint.graph.symbols import ProjectIndex

from tests.lint.test_graph import check_tree  # noqa: F401  (fixture)

def conveyor(tick_method: str) -> str:
    """A minimal repro.hw component source with the given ``tick`` method.

    ``tick`` makes the class a hot root and its body per-cycle scope.
    """
    method = textwrap.indent(
        textwrap.dedent(tick_method).strip("\n"), " " * 4
    )
    return (
        "class Conveyor:\n"
        "    def __init__(self, queue):\n"
        "        self.queue = queue\n"
        "\n"
        + method + "\n"
    )


def _index_of(tmp_path, files: dict[str, str]) -> ProjectIndex:
    """Build a :class:`ProjectIndex` directly (no analyze() plumbing)."""
    summaries = []
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        text = textwrap.dedent(source)
        path.write_text(text, encoding="utf-8")
        summaries.append(extract_summary(str(path), text, ast.parse(text)))
    return ProjectIndex.build(summaries)


class TestHotLoopAlloc:
    def test_literal_in_loop_of_tick_fires(self, check_tree):
        result = check_tree({
            "src/repro/hw/conveyor.py": conveyor("""
                def tick(self, cycle):
                    for item in self.queue:
                        self.queue.append([item])
            """),
        }, select=["hot-loop-alloc"])
        assert [d.rule for d in result.diagnostics] == ["hot-loop-alloc"]
        assert "list literal" in result.diagnostics[0].message
        assert "hw.conveyor.Conveyor.tick" in result.diagnostics[0].message

    def test_straight_line_literal_per_cycle_is_tolerated(self, check_tree):
        # documented FP guard: one small literal per cycle is fine; only
        # per-record (in-loop) allocations and comprehensions fire
        result = check_tree({
            "src/repro/hw/conveyor.py": conveyor("""
                def tick(self, cycle):
                    scratch = []
                    scratch.append(cycle)
            """),
        }, select=["hot-loop-alloc"])
        assert result.diagnostics == ()

    def test_comprehension_per_cycle_fires(self, check_tree):
        result = check_tree({
            "src/repro/hw/conveyor.py": conveyor("""
                def tick(self, cycle):
                    kept = [item for item in self.queue if item]
                    return kept
            """),
        }, select=["hot-loop-alloc"])
        assert [d.rule for d in result.diagnostics] == ["hot-loop-alloc"]
        assert "comprehension" in result.diagnostics[0].message

    def test_cold_function_is_silent(self, check_tree):
        # same body, but not reachable from any hot root
        result = check_tree({
            "src/repro/hw/setup.py": """
                def build_table(rows):
                    out = []
                    for row in rows:
                        out.append([row])
                    return out
            """,
        }, select=["hot-loop-alloc"])
        assert result.diagnostics == ()

    def test_reachability_crosses_modules(self, check_tree):
        # tick -> imported helper: the helper's loop alloc is hot even
        # though the helper's own module has no component
        result = check_tree({
            "src/repro/hw/conveyor.py": """
                from repro.hw.kernels import advance


                class Conveyor:
                    def __init__(self, queue):
                        self.queue = queue

                    def tick(self, cycle):
                        advance(self.queue)
            """,
            "src/repro/hw/kernels.py": """
                def advance(queue):
                    for item in queue:
                        queue.append({"item": item})
            """,
        }, select=["hot-loop-alloc"])
        assert [d.rule for d in result.diagnostics] == ["hot-loop-alloc"]
        assert "hw.kernels.advance" in result.diagnostics[0].message

    def test_raise_only_callee_stays_cold(self, check_tree):
        # error paths leave the hot loop: a helper reached only while
        # constructing a raised exception is not analysed
        result = check_tree({
            "src/repro/hw/conveyor.py": """
                from repro.hw.reporting import snapshot


                class Conveyor:
                    def __init__(self, queue):
                        self.queue = queue

                    def tick(self, cycle):
                        if cycle < 0:
                            raise ValueError(snapshot(self.queue))
            """,
            "src/repro/hw/reporting.py": """
                def snapshot(queue):
                    lines = []
                    for item in queue:
                        lines.append([item])
                    return lines
            """,
        }, select=["hot-loop-alloc"])
        assert result.diagnostics == ()

    def test_constructor_callee_stays_cold(self, check_tree):
        # __init__ runs per simulation arm, not per cycle; the builders
        # behind it are setup cost
        result = check_tree({
            "src/repro/hw/conveyor.py": """
                from repro.hw.builders import default_queue


                class Conveyor:
                    def __init__(self):
                        self.queue = default_queue()

                    def tick(self, cycle):
                        return len(self.queue)
            """,
            "src/repro/hw/builders.py": """
                def default_queue():
                    out = []
                    for slot in range(8):
                        out.append([slot])
                    return out
            """,
        }, select=["hot-loop-alloc"])
        assert result.diagnostics == ()


class TestHotFifoOp:
    def test_single_push_in_loop_fires(self, check_tree):
        result = check_tree({
            "src/repro/hw/conveyor.py": """
                class Conveyor:
                    def __init__(self, output):
                        self.output = output

                    def tick(self, cycle):
                        for item in range(4):
                            self.output.push(item)
            """,
        }, select=["hot-fifo-op"])
        assert [d.rule for d in result.diagnostics] == ["hot-fifo-op"]
        assert "push_many()" in result.diagnostics[0].message

    def test_one_push_per_cycle_is_tolerated(self, check_tree):
        # FP guard: a single handshake per tick is the intended design;
        # only per-iteration ops inside a loop fire
        result = check_tree({
            "src/repro/hw/conveyor.py": """
                class Conveyor:
                    def __init__(self, output):
                        self.output = output

                    def tick(self, cycle):
                        if self.output.has_space:
                            self.output.push(cycle)
            """,
        }, select=["hot-fifo-op"])
        assert result.diagnostics == ()

    def test_bulk_ops_are_tolerated(self, check_tree):
        result = check_tree({
            "src/repro/hw/conveyor.py": """
                class Conveyor:
                    def __init__(self, output):
                        self.output = output

                    def tick(self, cycle):
                        while self.output.has_space:
                            self.output.push_many([cycle])
            """,
        }, select=["hot-fifo-op"])
        assert result.diagnostics == ()


class TestHotFormat:
    def test_fstring_per_cycle_fires(self, check_tree):
        result = check_tree({
            "src/repro/hw/conveyor.py": conveyor("""
                def tick(self, cycle):
                    label = f"cycle {cycle}"
                    return label
            """),
        }, select=["hot-format"])
        assert [d.rule for d in result.diagnostics] == ["hot-format"]
        assert "f-string" in result.diagnostics[0].message

    def test_fstring_in_raise_is_exempt(self, check_tree):
        # documented FP guard: error paths may format freely
        result = check_tree({
            "src/repro/hw/conveyor.py": conveyor("""
                def tick(self, cycle):
                    for item in self.queue:
                        if item is None:
                            raise ValueError(f"hole at cycle {cycle}")
            """),
        }, select=["hot-format"])
        assert result.diagnostics == ()

    def test_print_in_loop_fires(self, check_tree):
        result = check_tree({
            "src/repro/hw/conveyor.py": conveyor("""
                def tick(self, cycle):
                    for item in self.queue:
                        print(item)
            """),
        }, select=["hot-format"])
        assert [d.rule for d in result.diagnostics] == ["hot-format"]
        assert "print()" in result.diagnostics[0].message


class TestHotTry:
    def test_try_in_loop_fires(self, check_tree):
        result = check_tree({
            "src/repro/hw/conveyor.py": conveyor("""
                def tick(self, cycle):
                    for item in self.queue:
                        try:
                            item.advance()
                        except AttributeError:
                            pass
            """),
        }, select=["hot-try"])
        assert [d.rule for d in result.diagnostics] == ["hot-try"]

    def test_try_around_loop_is_tolerated(self, check_tree):
        # FP guard: one setup/teardown handler per tick is fine — the
        # rule targets per-iteration handler entry only
        result = check_tree({
            "src/repro/hw/conveyor.py": conveyor("""
                def tick(self, cycle):
                    try:
                        for item in self.queue:
                            item.advance()
                    except AttributeError:
                        pass
            """),
        }, select=["hot-try"])
        assert result.diagnostics == ()


class TestHotLoopAttr:
    def test_repeated_chain_fires_on_shortest_prefix(self, check_tree):
        result = check_tree({
            "src/repro/hw/conveyor.py": conveyor("""
                def tick(self, cycle):
                    total = 0
                    for item in range(8):
                        if self.queue.depth > item:
                            total = self.queue.depth + self.queue.depth
                    return total
            """),
        }, select=["hot-loop-attr"])
        chains = [d.message.split()[2] for d in result.diagnostics]
        # self.queue qualifies; self.queue.depth is dropped because its
        # strict prefix already does (one binding hoists both)
        assert chains == ["self.queue"]

    def test_below_threshold_is_silent(self, check_tree):
        # FP guard: two loads do not justify a rebinding
        result = check_tree({
            "src/repro/hw/conveyor.py": conveyor("""
                def tick(self, cycle):
                    for item in range(8):
                        if self.queue is not None:
                            self.queue.append(item)
            """),
        }, select=["hot-loop-attr"])
        assert result.diagnostics == ()

    def test_imported_root_is_exempt(self, check_tree):
        # FP guard: module attribute loads are cheap and rebinding an
        # imported module's member obscures more than it saves
        result = check_tree({
            "src/repro/hw/conveyor.py": """
                from repro.hw import limits


                class Conveyor:
                    def __init__(self, queue):
                        self.queue = queue

                    def tick(self, cycle):
                        total = 0
                        for item in range(8):
                            total += limits.depth.cap
                            total -= limits.depth.cap
                            total *= limits.depth.cap
                        return total
            """,
            "src/repro/hw/limits.py": """
                class depth:
                    cap = 4
            """,
        }, select=["hot-loop-attr"])
        assert result.diagnostics == ()


class TestProfileWidening:
    ROWS = [
        {"name": "sorter.run", "share": 0.62},
        {"name": "optimizer.sweep", "share": 0.04},
        {"name": "unlisted.phase", "share": 0.30},
    ]

    def test_prefixes_respect_share_threshold(self):
        prefixes = profile_root_prefixes(self.ROWS)
        assert prefixes == ["repro.engine.sorter."]
        assert self.ROWS[1]["share"] < PROFILE_SHARE_THRESHOLD

    def test_profile_rows_widen_the_root_set(self, tmp_path):
        index = _index_of(tmp_path, {
            "src/repro/engine/sorter.py": """
                def schedule(batches):
                    for batch in batches:
                        label = f"batch {batch}"
                    return label
            """,
        })
        assert check_hot_paths(index) == []
        hot = check_hot_paths(
            index, profile_rows=[{"name": "sorter.run", "share": 0.4}]
        )
        assert [d.rule for d in hot] == ["hot-format"]

    def test_analyze_accepts_a_report_trace(self, tmp_path, check_tree):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            json.dumps({
                "kind": "span", "span": "s1", "trace": "t0",
                "name": "sorter.run", "dur_s": 2.0,
            }) + "\n",
            encoding="utf-8",
        )
        files = {
            "src/repro/engine/sorter.py": """
                def schedule(batches):
                    for batch in batches:
                        label = f"batch {batch}"
                    return label
            """,
        }
        cold = check_tree(files, select=["hot-format"])
        assert cold.diagnostics == ()
        warm = check_tree(files, select=["hot-format"], profile=trace)
        assert [d.rule for d in warm.diagnostics] == ["hot-format"]

    def test_construction_helper_stays_cold_when_widened(self, tmp_path):
        # FP guard: widening sweeps in whole modules, but a helper whose
        # only caller is __init__ runs once per construction, not per
        # record — the same setup-cost class _reachable() refuses to
        # follow through constructor edges
        index = _index_of(tmp_path, {
            "src/repro/engine/sorter.py": """
                class Plan:
                    def __init__(self, batches):
                        self._build(batches)

                    def _build(self, batches):
                        self.labels = []
                        for batch in batches:
                            self.labels.append(f"batch {batch}")

                    def run(self, batches):
                        for batch in batches:
                            label = f"batch {batch}"
                        return label
            """,
        })
        hot = check_hot_paths(
            index, profile_rows=[{"name": "sorter.run", "share": 0.4}]
        )
        assert {d.rule for d in hot} == {"hot-format"}
        assert all("Plan.run" in d.message for d in hot)

    def test_missing_profile_is_a_lint_error(self, tmp_path):
        with pytest.raises(LintError, match="cannot load profile"):
            load_profile_rows(tmp_path / "absent.jsonl")


class TestRuleSelection:
    def test_unknown_rule_is_rejected(self):
        with pytest.raises(LintError, match="unknown check rule 'hot-typo'"):
            resolve_rule_selection(["hot-typo"], None)
        with pytest.raises(LintError, match="unknown check rule"):
            resolve_rule_selection(None, ["hot-typo"])

    def test_ignore_removes_from_selection(self):
        active = resolve_rule_selection(None, ["hot-format", "hot-try"])
        assert "hot-format" not in active
        assert "hot-loop-alloc" in active

    def test_select_scopes_the_run(self, check_tree):
        # the fixture seeds both an alloc and a format finding; select
        # keeps exactly one and CheckResult.rules records the scope
        files = {
            "src/repro/hw/conveyor.py": conveyor("""
                def tick(self, cycle):
                    for item in self.queue:
                        self.queue.append([f"{item}"])
            """),
        }
        both = check_tree(files, select=["hot-loop-alloc", "hot-format"])
        assert sorted(d.rule for d in both.diagnostics) == [
            "hot-format", "hot-loop-alloc",
        ]
        only = check_tree(files, select=["hot-loop-alloc"])
        assert [d.rule for d in only.diagnostics] == ["hot-loop-alloc"]
        assert only.rules == ("hot-loop-alloc",)


class TestJustification:
    FILES = {
        "src/repro/hw/conveyor.py": """
            class Conveyor:
                def __init__(self, queue):
                    self.queue = queue

                def tick(self, cycle):
                    for item in self.queue:
                        # bonsai-lint: disable=hot-loop-alloc
                        self.queue.append([item])
        """,
    }

    def test_suppression_without_reason_warns_when_required(self, check_tree):
        lax = check_tree(self.FILES, select=["hot-loop-alloc"])
        assert lax.diagnostics == ()
        assert lax.suppressed == 1
        strict = check_tree(
            self.FILES, select=["hot-loop-alloc"], require_justification=True
        )
        assert [d.rule for d in strict.diagnostics] == [
            "unjustified-suppression"
        ]

    def test_justified_suppression_passes_strict_mode(self, check_tree):
        files = {
            "src/repro/hw/conveyor.py": self.FILES[
                "src/repro/hw/conveyor.py"
            ].replace(
                "disable=hot-loop-alloc",
                "disable=hot-loop-alloc -- wrapper list is part of the protocol",
            ),
        }
        strict = check_tree(
            files, select=["hot-loop-alloc"], require_justification=True
        )
        assert strict.diagnostics == ()
        assert strict.suppressed == 1
