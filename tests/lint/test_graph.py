"""Whole-program ``bonsai check`` tests.

Every seeded violation here is deliberately invisible to the per-file
rules: the offending flows cross module boundaries through at least one
call hop, which is exactly the gap the graph analyses close.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint.diagnostics import Severity
from repro.lint.graph import analyze
from repro.lint.graph.analyzer import PARSE_ERROR_RULE


@pytest.fixture
def check_tree(tmp_path):
    """Write a ``src/repro``-shaped tree and analyze it.

    ``files`` maps repo-relative paths to source snippets; extra keyword
    arguments are forwarded to :func:`analyze`.  ``__init__.py`` files
    are created for every package directory automatically.
    """

    def _check(files: dict[str, str], **kwargs):
        for relpath, source in files.items():
            path = tmp_path / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source), encoding="utf-8")
            package = path.parent
            while package != tmp_path and "repro" in package.parts:
                init = package / "__init__.py"
                if not init.exists():
                    # distinct content per package: identical empty files
                    # would share one entry in the content-hash cache and
                    # skew the hit/miss counts the cache tests assert on
                    init.write_text(
                        f'"""Package {package.name}."""\n', encoding="utf-8"
                    )
                package = package.parent
        return analyze([tmp_path / "src"], **kwargs)

    return _check


SIZES = """
    from repro.units import KB, KiB


    def disk_chunk():
        return 4 * KB


    def bram_chunk():
        return 2 * KiB
"""


class TestUnitFlow:
    def test_two_hop_cross_module_mix(self, check_tree):
        result = check_tree({
            "src/repro/util/sizes.py": SIZES,
            "src/repro/util/mixer.py": """
                from repro.util.sizes import bram_chunk, disk_chunk


                def staging_total():
                    return disk_chunk() + disk_chunk()


                def footprint():
                    return staging_total() + bram_chunk()
            """,
        })
        rules = [d.rule for d in result.diagnostics]
        assert rules == ["unit-flow-mix"]
        message = result.diagnostics[0].message
        assert "bytes-decimal" in message and "bytes-binary" in message
        assert "staging_total" in message  # provenance names the hop
        assert result.exit_code == 1

    def test_call_argument_family_mismatch(self, check_tree):
        result = check_tree({
            "src/repro/util/sizes.py": SIZES,
            "src/repro/util/caller.py": """
                from repro.util.sizes import disk_chunk


                def reserve(buffer_kib):
                    return buffer_kib * 2


                def bad_call():
                    return reserve(disk_chunk())
            """,
        })
        assert [d.rule for d in result.diagnostics] == ["unit-flow-call"]
        assert "buffer_kib" in result.diagnostics[0].message

    def test_generic_bytes_compatible_with_both_families(self, check_tree):
        result = check_tree({
            "src/repro/util/sizes.py": SIZES,
            "src/repro/util/ok.py": """
                from repro.util.sizes import bram_chunk, disk_chunk


                def pad(total_bytes):
                    return total_bytes + 64


                def fine():
                    return pad(disk_chunk()) + pad(bram_chunk())
            """,
        })
        assert result.diagnostics == ()
        assert result.exit_code == 0

    def test_inline_suppression_is_honoured(self, check_tree):
        result = check_tree({
            "src/repro/util/sizes.py": SIZES,
            "src/repro/util/mixer.py": """
                from repro.util.sizes import bram_chunk, disk_chunk


                def footprint():
                    # bonsai-lint: disable=unit-flow-mix -- reviewed: display only
                    return disk_chunk() + bram_chunk()
            """,
        })
        assert result.diagnostics == ()
        assert result.suppressed == 1


HW_PARTS = """
    class Widget:
        def __init__(self):
            self.level = 0
            self.other = None

        def tick(self):
            pass


    class Gauge:
        def __init__(self):
            self.reading = 0

        def tick(self):
            pass
"""


class TestTransitivePurity:
    def test_core_reaches_hw_mutation_through_two_hops(self, check_tree):
        result = check_tree({
            "src/repro/hw/parts.py": HW_PARTS,
            "src/repro/core/model.py": """
                from repro.hw.parts import Widget


                def poke(w: Widget):
                    w.level = 3


                def evaluate(w: Widget):
                    return chain(w)


                def chain(w: Widget):
                    poke(w)
                    return 1
            """,
        })
        flagged = {d.rule for d in result.diagnostics}
        assert flagged == {"transitive-purity"}
        evaluate = [
            d for d in result.diagnostics if "evaluate()" in d.message
        ]
        assert len(evaluate) == 1
        assert "-> repro.core.model.chain -> repro.core.model.poke" in (
            evaluate[0].message
        )

    def test_validation_bridge_is_exempt(self, check_tree):
        result = check_tree({
            "src/repro/hw/parts.py": HW_PARTS,
            "src/repro/core/validation.py": """
                from repro.hw.parts import Widget


                def drive(w: Widget):
                    w.level = 3
            """,
        })
        assert result.diagnostics == ()

    def test_pure_module_reaching_io_via_helper(self, check_tree):
        result = check_tree({
            "src/repro/util/dump.py": """
                def snapshot(value):
                    with open("/tmp/snap", "w") as fh:
                        fh.write(str(value))
            """,
            "src/repro/core/performance.py": """
                from repro.util.dump import snapshot


                def sort_throughput(n):
                    snapshot(n)
                    return n * 2
            """,
        })
        assert [d.rule for d in result.diagnostics] == ["transitive-purity"]
        assert "I/O" in result.diagnostics[0].message


class TestFifoDiscipline:
    def test_remote_mutation_through_free_function(self, check_tree):
        result = check_tree({
            "src/repro/hw/parts.py": """
                class Widget:
                    def __init__(self):
                        self.other = None

                    def tick(self):
                        poke(self.other)


                class Gauge:
                    def __init__(self):
                        self.reading = 0

                    def tick(self):
                        pass


                def poke(gauge: "Gauge"):
                    gauge.reading = 7
            """,
        })
        assert [d.rule for d in result.diagnostics] == ["fifo-discipline"]
        assert "Widget.tick" in result.diagnostics[0].message
        assert "Gauge" in result.diagnostics[0].message

    def test_construction_inside_tick_is_wiring_not_mutation(self, check_tree):
        result = check_tree({
            "src/repro/hw/rearm.py": """
                class Merger:
                    def __init__(self, fanin):
                        self.fanin = fanin
                        self.slots = [None] * fanin

                    def tick(self):
                        pass


                class Sorter:
                    def __init__(self):
                        self.tree = None

                    def tick(self):
                        if self.tree is None:
                            self.tree = Merger(4)
            """,
        })
        assert result.diagnostics == ()

    def test_tick_delegation_to_child_component_is_sanctioned(self, check_tree):
        result = check_tree({
            "src/repro/hw/wrap.py": """
                class Loader:
                    def __init__(self):
                        self.issued = 0

                    def tick(self):
                        self.issued += 1


                class PausingLoader:
                    def __init__(self):
                        self.inner = Loader()

                    def tick(self):
                        self.inner.tick()
            """,
        })
        assert result.diagnostics == ()

    def test_peer_field_access_outside_port_surface(self, check_tree):
        result = check_tree({
            "src/repro/hw/peek.py": """
                class Gauge:
                    def __init__(self):
                        self.reading = 0

                    def tick(self):
                        pass


                class Widget:
                    def __init__(self):
                        self.gauge = Gauge()

                    def tick(self):
                        self.refresh()

                    def refresh(self):
                        return self.gauge.reading
            """,
        })
        assert [d.rule for d in result.diagnostics] == ["fifo-discipline"]
        assert "self.gauge.reading" in result.diagnostics[0].message


BROKEN_TREE = {
    "src/repro/util/sizes.py": SIZES,
    "src/repro/util/broken.py": "def f(:\n",
}


CLEAN_WORKERS = """
    def worker_double(task):
        from repro.util.sizes import disk_chunk  # lazy heavy import

        return task + task
"""


class TestWorkerEntry:
    def test_clean_workers_module_passes(self, check_tree):
        result = check_tree({
            "src/repro/util/sizes.py": SIZES,
            "src/repro/parallel/workers.py": CLEAN_WORKERS,
        })
        assert [d for d in result.diagnostics if d.rule == "worker-entry"] == []

    def test_entry_method_is_flagged(self, check_tree):
        result = check_tree({
            "src/repro/parallel/workers.py": CLEAN_WORKERS,
            "src/repro/parallel/api.py": """
                class Shard:
                    def worker_inner(self, task):
                        return task
            """,
        })
        rules = [d.rule for d in result.diagnostics]
        assert rules == ["worker-entry"]
        assert "module-level" in result.diagnostics[0].message

    def test_import_time_work_is_flagged(self, check_tree):
        result = check_tree({
            "src/repro/parallel/workers.py": """
                def _warm():
                    return {}


                _CACHE = _warm()


                def worker_lookup(task):
                    return _CACHE.get(task)
            """,
        })
        rules = [d.rule for d in result.diagnostics]
        assert rules == ["worker-entry"]
        assert "import time" in result.diagnostics[0].message

    def test_eager_heavy_import_is_flagged(self, check_tree):
        result = check_tree({
            "src/repro/util/sizes.py": SIZES,
            "src/repro/parallel/workers.py": """
                from repro.util.sizes import disk_chunk


                def worker_chunk(task):
                    return disk_chunk()
            """,
        })
        rules = [d.rule for d in result.diagnostics]
        assert rules == ["worker-entry"]
        assert "lazily" in result.diagnostics[0].message

    def test_wrong_arity_entry_is_flagged(self, check_tree):
        result = check_tree({
            "src/repro/parallel/workers.py": """
                def worker_pair(left, right):
                    return left + right
            """,
        })
        rules = [d.rule for d in result.diagnostics]
        assert rules == ["worker-entry"]
        assert "one task" in result.diagnostics[0].message

    def test_rule_scope_is_the_parallel_package_only(self, check_tree):
        # The same shapes outside the pool-shipping package are someone
        # else's business: no worker-entry findings, in the serve
        # package (which ships nothing to a pool) included.
        result = check_tree({
            "src/repro/util/pool.py": """
                class Helper:
                    def worker_inner(self, task):
                        return task
            """,
            "src/repro/serve/entries.py": """
                def worker_pair(left, right):
                    return left + right
            """,
            "src/repro/serve/api.py": """
                class Dispatcher:
                    def worker_batch(self, task):
                        return task
            """,
        })
        assert [d for d in result.diagnostics if d.rule == "worker-entry"] == []


class TestParseErrors:
    def test_syntax_error_is_reported_not_skipped(self, check_tree):
        result = check_tree(BROKEN_TREE)
        assert [d.rule for d in result.diagnostics] == [PARSE_ERROR_RULE]
        assert result.diagnostics[0].severity is Severity.ERROR
        assert result.exit_code == 1

    def test_undecodable_file_is_reported(self, check_tree, tmp_path):
        target = tmp_path / "src" / "repro" / "binary.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(b"\xff\xfe\x00bad")
        result = check_tree({"src/repro/util/sizes.py": SIZES})
        assert [d.rule for d in result.diagnostics] == [PARSE_ERROR_RULE]
        assert "binary.py" in result.diagnostics[0].path
        assert result.exit_code == 1


class TestSummaryCache:
    FILES = {
        "src/repro/util/sizes.py": SIZES,
        "src/repro/util/mixer.py": """
            from repro.util.sizes import bram_chunk, disk_chunk


            def footprint():
                return disk_chunk() + bram_chunk()
        """,
    }

    def test_warm_run_reanalyzes_nothing_and_is_fast(self, check_tree, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = check_tree(self.FILES, cache_dir=cache_dir)
        assert cold.from_cache == 0
        assert cold.reanalyzed == cold.files_scanned > 0
        warm = check_tree(self.FILES, cache_dir=cache_dir)
        assert warm.reanalyzed == 0
        assert warm.from_cache == warm.files_scanned
        assert warm.elapsed_seconds < 2.0
        assert [d.render() for d in warm.diagnostics] == [
            d.render() for d in cold.diagnostics
        ]

    def test_warm_run_replays_local_findings(self, check_tree, tmp_path):
        files = {
            "src/repro/util/noisy.py": """
                import time


                def stamp():
                    return time.time() * 2**30 * 10**7
            """,
        }
        cache_dir = tmp_path / "cache"
        cold = check_tree(files, cache_dir=cache_dir)
        warm = check_tree(files, cache_dir=cache_dir)
        assert warm.reanalyzed == 0
        assert {"determinism", "unit-mix"} <= {d.rule for d in cold.diagnostics}
        assert [
            (d.render(), d.severity) for d in warm.diagnostics
        ] == [(d.render(), d.severity) for d in cold.diagnostics]

    def test_same_source_in_another_module_is_a_cache_miss(
        self, check_tree, tmp_path
    ):
        # the local rules scope by module, so a summary cached outside
        # the package must not answer for the same bytes inside repro/
        source = "raise ValueError('x')\n"
        cache_dir = tmp_path / "cache"
        outside = check_tree({"src/tool.py": source}, cache_dir=cache_dir)
        assert outside.diagnostics == ()
        inside = check_tree(
            {"src/repro/util/tool.py": source}, cache_dir=cache_dir
        )
        assert "error-taxonomy" in {d.rule for d in inside.diagnostics}

    def test_editing_one_file_reextracts_only_it(self, check_tree, tmp_path):
        cache_dir = tmp_path / "cache"
        check_tree(self.FILES, cache_dir=cache_dir)
        edited = dict(self.FILES)
        edited["src/repro/util/mixer.py"] = (
            edited["src/repro/util/mixer.py"] + "            # trailing\n"
        )
        warm = check_tree(edited, cache_dir=cache_dir)
        assert warm.reanalyzed == 1

    def test_version_bump_invalidates_entries(self, check_tree, tmp_path):
        # an entry written under another analyzer fingerprint is never read
        cache_dir = tmp_path / "cache"
        check_tree(self.FILES, cache_dir=cache_dir)
        entries = sorted(cache_dir.glob("*.json"))
        assert entries
        for entry in entries:
            digest, _, _ = entry.stem.rpartition("-")
            entry.rename(entry.with_name(f"{digest}-{'0' * 16}.json"))
        warm = check_tree(self.FILES, cache_dir=cache_dir)
        assert warm.from_cache == 0

    def test_opening_prunes_entries_of_other_fingerprints(
        self, check_tree, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        check_tree(self.FILES, cache_dir=cache_dir)
        current = sorted(cache_dir.glob("*.json"))
        assert current
        digest, _, _ = current[0].stem.rpartition("-")
        stale = cache_dir / f"{digest}-{'0' * 16}.json"
        stale.write_bytes(current[0].read_bytes())
        warm = check_tree(self.FILES, cache_dir=cache_dir)
        assert not stale.exists()
        assert sorted(cache_dir.glob("*.json")) == current
        assert warm.reanalyzed == 0
        assert warm.from_cache == warm.files_scanned

    def _edited_analyzer_misses(
        self, check_tree, tmp_path, monkeypatch, relpath: str, edit: str
    ) -> None:
        """Edit ``relpath`` in a copy of the analyzer; every entry must miss."""
        from repro.lint.graph import cache as cache_mod

        analyzer = tmp_path / "analyzer"
        shutil.copytree(
            cache_mod.ANALYZER_ROOT, analyzer,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        monkeypatch.setattr(cache_mod, "ANALYZER_ROOT", analyzer)
        cache_dir = tmp_path / "cache"
        cold = check_tree(self.FILES, cache_dir=cache_dir)
        assert check_tree(self.FILES, cache_dir=cache_dir).reanalyzed == 0
        with (analyzer / relpath).open("a", encoding="utf-8") as handle:
            handle.write(edit)
        changed = check_tree(self.FILES, cache_dir=cache_dir)
        assert changed.from_cache == 0
        assert changed.reanalyzed == changed.files_scanned
        assert [d.render() for d in changed.diagnostics] == [
            d.render() for d in cold.diagnostics
        ]

    def test_analyzer_version_bump_forces_full_reextraction(
        self, check_tree, tmp_path, monkeypatch
    ):
        # an edit to the extraction code misses every warm entry wholesale
        self._edited_analyzer_misses(
            check_tree, tmp_path, monkeypatch,
            "graph/summary.py", "\n# extraction changed\n",
        )

    def test_rule_set_change_forces_full_reextraction(
        self, check_tree, tmp_path, monkeypatch
    ):
        # a new pass needs facts the cached summaries may predate; the
        # rule table is fingerprinted, so adding one is a wholesale miss
        self._edited_analyzer_misses(
            check_tree, tmp_path, monkeypatch, "graph/rules.py",
            '\nCHECK_RULES["hot-new-pass"] = CHECK_RULES["unit-mix"]\n',
        )

    def test_analyzer_edit_misses_the_warm_cache(self, tmp_path):
        # the key covers the analyzer's own sources, so editing a rule in
        # a copy of the analyzer re-extracts every file of a warm cache
        analyzer = tmp_path / "analyzer"
        shutil.copytree(
            Path(__file__).resolve().parents[2] / "src" / "repro",
            analyzer / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        tree = tmp_path / "tree" / "src" / "repro"
        (tree / "hw").mkdir(parents=True)
        (tree / "__init__.py").write_text('"""pkg."""\n', encoding="utf-8")
        (tree / "hw" / "__init__.py").write_text('"""hw."""\n', encoding="utf-8")
        (tree / "hw" / "comp.py").write_text(textwrap.dedent("""
            class Comp:
                def tick(self):
                    self.stats.idle_cycles += 1
        """), encoding="utf-8")

        def check() -> dict:
            completed = subprocess.run(
                [sys.executable, "-m", "repro.cli", "check", str(tree.parent),
                 "--cache-dir", str(tmp_path / "cache"), "--format", "json"],
                env={**os.environ, "PYTHONPATH": str(analyzer)},
                cwd=tmp_path, capture_output=True, text=True, check=False,
            )
            assert completed.returncode in (0, 1), completed.stderr
            return json.loads(completed.stdout)

        cold = check()
        assert cold["diagnostics"] == []
        warm = check()
        assert (warm["reanalyzed"], warm["from_cache"]) == (0, 3)
        rule = analyzer / "repro" / "lint" / "rules" / "clock_discipline.py"
        source = rule.read_text(encoding="utf-8")
        assert 'OWN_STATE = {"stats"}' in source
        rule.write_text(
            source.replace('OWN_STATE = {"stats"}', "OWN_STATE = set()"),
            encoding="utf-8",
        )
        edited = check()
        assert edited["reanalyzed"] == 3
        assert [d["rule"] for d in edited["diagnostics"]] == ["clock-discipline"]
