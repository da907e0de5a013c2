"""Per-rule fixture tests: one violating, one clean, one suppressed each.

Fixtures are written under ``tmp_path`` at repo-like relative paths
because rules scope themselves by the dotted module derived from the
``repro`` path component (see ``repro.lint.context.module_name``).
"""

from __future__ import annotations


def _rules(diagnostics):
    return [d.rule for d in diagnostics]


class TestUnitMix:
    def test_flags_decimal_binary_mixing(self, check_source):
        kept, _ = check_source(
            "scripts/sizes.py",
            "cap = 2**30 * 10**7\n",
            select=["unit-mix"],
        )
        assert _rules(kept) == ["unit-mix"]
        assert "mixes decimal" in kept[0].message

    def test_flags_magic_byte_literal_in_repro(self, check_source):
        kept, _ = check_source(
            "src/repro/core/thing.py",
            "capacity = 8 * 10**9\n",
            select=["unit-mix"],
        )
        assert _rules(kept) == ["unit-mix"]
        assert "repro.units.GB" in kept[0].message

    def test_magic_literals_allowed_outside_repro(self, check_source):
        # Benchmarks use 10**9 as a key range, not a byte count.
        kept, suppressed = check_source(
            "benchmarks/bench_keys.py",
            "max_key = 10**9\n",
            select=["unit-mix"],
        )
        assert kept == [] and suppressed == 0

    def test_clean_named_units_pass(self, check_source):
        kept, suppressed = check_source(
            "src/repro/core/thing.py",
            """\
            from repro.units import GB, MiB

            capacity = 8 * GB
            buffer = 2 * MiB
            mask = 2**16 - 1
            """,
            select=["unit-mix"],
        )
        assert kept == [] and suppressed == 0

    def test_inline_suppression(self, check_source):
        kept, suppressed = check_source(
            "src/repro/core/thing.py",
            "cap = 8 * 10**9  # bonsai-lint: disable=unit-mix -- fixture\n",
            select=["unit-mix"],
        )
        assert kept == [] and suppressed == 1


class TestClockDiscipline:
    BAD_TICK = """\
    class Stage:
        def tick(self):
            self.downstream.value = 1
            self.downstream.accept(5)
            total = self.cycles / 2
            return total
    """

    def test_flags_sibling_access_and_float_cycles(self, check_source):
        kept, _ = check_source(
            "src/repro/hw/bad_stage.py", self.BAD_TICK,
            select=["clock-discipline"],
        )
        assert _rules(kept) == ["clock-discipline"] * 3
        messages = " ".join(d.message for d in kept)
        assert "writes self.downstream.value" in messages
        assert "calls self.downstream.accept()" in messages
        assert "float arithmetic" in messages

    def test_only_applies_inside_repro_hw(self, check_source):
        kept, suppressed = check_source(
            "src/repro/core/bad_stage.py", self.BAD_TICK,
            select=["clock-discipline"],
        )
        assert kept == [] and suppressed == 0

    def test_fifo_protocol_and_own_stats_pass(self, check_source):
        kept, suppressed = check_source(
            "src/repro/hw/good_stage.py",
            """\
            class Stage:
                def tick(self):
                    if self.output.free_slots():
                        self.output.push(self.register)
                        self.register = self.input.pop()
                    self.stats.pushes = self.stats.pushes + 1
                    self.child.tick()
                    self.cycles += 1
            """,
            select=["clock-discipline"],
        )
        assert kept == [] and suppressed == 0

    def test_inline_suppression(self, check_source):
        kept, suppressed = check_source(
            "src/repro/hw/bad_stage.py",
            """\
            class Stage:
                def tick(self):
                    # bonsai-lint: disable=clock-discipline -- fixture
                    self.downstream.value = 1
            """,
            select=["clock-discipline"],
        )
        assert kept == [] and suppressed == 1


class TestDeterminism:
    def test_flags_unseeded_rng_clock_and_set_iteration(self, check_source):
        kept, _ = check_source(
            "src/repro/analysis/bad.py",
            """\
            import random
            import time

            def f():
                x = random.random()
                rng = random.Random()
                t = time.time()
                for item in {1, 2, 3}:
                    x += item
                return x, rng, t
            """,
            select=["determinism"],
        )
        assert _rules(kept) == ["determinism"] * 4
        messages = " ".join(d.message for d in kept)
        assert "unseeded" in messages
        assert "host clock" in messages
        assert "hash order" in messages

    def test_seeded_rng_and_sorted_iteration_pass(self, check_source):
        kept, suppressed = check_source(
            "src/repro/analysis/good.py",
            """\
            import random

            import numpy as np

            def f(seed):
                rng = random.Random(seed)
                gen = np.random.default_rng(seed)
                for item in sorted({1, 2, 3}):
                    seed += item
                return rng, gen, seed
            """,
            select=["determinism"],
        )
        assert kept == [] and suppressed == 0

    def test_does_not_apply_outside_repro(self, check_source):
        kept, suppressed = check_source(
            "benchmarks/bench_x.py",
            "import random\nx = random.random()\n",
            select=["determinism"],
        )
        assert kept == [] and suppressed == 0

    def test_inline_suppression(self, check_source):
        kept, suppressed = check_source(
            "src/repro/analysis/bad.py",
            """\
            import time

            t = time.time()  # bonsai-lint: disable=determinism -- fixture
            """,
            select=["determinism"],
        )
        assert kept == [] and suppressed == 1


class TestModelPurity:
    IMPURE = """\
    import os
    from repro.hw import merger

    def f():
        print("hi")
        return os.getpid(), merger
    """

    def test_flags_io_and_simulator_imports_in_pure_modules(self, check_source):
        kept, _ = check_source(
            "src/repro/core/performance.py", self.IMPURE,
            select=["model-purity"],
        )
        assert _rules(kept) == ["model-purity"] * 4
        messages = " ".join(d.message for d in kept)
        assert "imports repro.hw" in messages
        assert "imports os" in messages
        assert "print()" in messages

    def test_only_applies_to_the_pure_modules(self, check_source):
        kept, suppressed = check_source(
            "src/repro/core/optimizer.py", self.IMPURE,
            select=["model-purity"],
        )
        assert kept == [] and suppressed == 0

    def test_pure_arithmetic_passes(self, check_source):
        kept, suppressed = check_source(
            "src/repro/core/resources.py",
            """\
            import math

            def luts(width, leaves):
                return width * leaves + math.ceil(math.log2(leaves))
            """,
            select=["model-purity"],
        )
        assert kept == [] and suppressed == 0

    def test_inline_suppression(self, check_source):
        kept, suppressed = check_source(
            "src/repro/core/performance.py",
            "import os  # bonsai-lint: disable=model-purity -- fixture\n",
            select=["model-purity"],
        )
        assert kept == [] and suppressed == 1


class TestErrorTaxonomy:
    def test_flags_bare_builtin_raises(self, check_source):
        kept, _ = check_source(
            "src/repro/core/thing.py",
            """\
            def f(x):
                if x < 0:
                    raise ValueError("negative")
                raise RuntimeError
            """,
            select=["error-taxonomy"],
        )
        assert _rules(kept) == ["error-taxonomy"] * 2
        messages = " ".join(d.message for d in kept)
        assert "bare ValueError" in messages
        assert "bare RuntimeError" in messages

    def test_taxonomy_and_not_implemented_pass(self, check_source):
        kept, suppressed = check_source(
            "src/repro/core/thing.py",
            """\
            from repro.errors import ConfigurationError

            def f(x):
                if x < 0:
                    raise ConfigurationError("negative")
                raise NotImplementedError
            """,
            select=["error-taxonomy"],
        )
        assert kept == [] and suppressed == 0

    def test_bare_reraise_is_fine(self, check_source):
        kept, suppressed = check_source(
            "src/repro/core/thing.py",
            """\
            def f():
                try:
                    return 1
                except Exception:
                    raise
            """,
            select=["error-taxonomy"],
        )
        assert kept == [] and suppressed == 0

    def test_does_not_apply_outside_repro(self, check_source):
        kept, suppressed = check_source(
            "benchmarks/bench_x.py",
            "raise ValueError('benchmark')\n",
            select=["error-taxonomy"],
        )
        assert kept == [] and suppressed == 0

    def test_inline_suppression(self, check_source):
        kept, suppressed = check_source(
            "src/repro/core/thing.py",
            """\
            def f():
                # bonsai-lint: disable=error-taxonomy -- fixture
                raise ValueError("shielded")
            """,
            select=["error-taxonomy"],
        )
        assert kept == [] and suppressed == 1
