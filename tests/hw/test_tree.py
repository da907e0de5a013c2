"""AMT assembly and whole-stage simulation (§II)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.hw.tree import AmtTree, simulate_merge
from tests.conftest import run_values


class TestTreeShape:
    def test_paper_example_amt_4_16(self):
        # Fig. 1: AMT(4, 16) = one 4-merger, two 2-mergers, twelve 1-mergers.
        tree = AmtTree(p=4, leaves=16)
        widths = sorted(m.k for m in tree.mergers)
        assert widths.count(4) == 1
        assert widths.count(2) == 2
        assert widths.count(1) == 12
        assert len(tree.leaf_fifos) == 16

    def test_merger_count_is_leaves_minus_one(self):
        for p, leaves in [(1, 4), (2, 8), (8, 8), (32, 64)]:
            tree = AmtTree(p=p, leaves=leaves)
            assert len(tree.mergers) == leaves - 1

    def test_level_widths(self):
        tree = AmtTree(p=8, leaves=16)
        assert [tree.merger_width_at(level) for level in range(4)] == [8, 4, 2, 1]

    def test_width_floors_at_one(self):
        # §II: "If for a given level k, we have 2^k > p, we use 1-mergers."
        tree = AmtTree(p=2, leaves=32)
        assert tree.merger_width_at(4) == 1

    def test_leaf_width(self):
        assert AmtTree(p=32, leaves=2).leaf_width == 32
        assert AmtTree(p=4, leaves=16).leaf_width == 1
        assert AmtTree(p=8, leaves=4).leaf_width == 4

    def test_coupler_only_where_width_doubles(self):
        tree = AmtTree(p=4, leaves=16)
        # Couplers feed the 4-merger (x2) and the 2-mergers (x4); the
        # 1-merger levels connect directly.
        assert len(tree.couplers) == 6

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            AmtTree(p=3, leaves=4)
        with pytest.raises(ConfigurationError):
            AmtTree(p=4, leaves=3)
        with pytest.raises(ConfigurationError):
            AmtTree(p=4, leaves=1)

    def test_merger_width_at_rejects_bad_level(self):
        with pytest.raises(ConfigurationError):
            AmtTree(p=4, leaves=4).merger_width_at(5)

    def test_pipeline_latency_positive(self):
        assert AmtTree(p=8, leaves=16).pipeline_latency_cycles() > 0


def random_runs(rng: random.Random, count: int, max_len: int) -> list[list[int]]:
    return [
        sorted(rng.randrange(1, 10**9) for _ in range(rng.randrange(0, max_len)))
        for _ in range(count)
    ]


class TestStageCorrectness:
    @pytest.mark.parametrize(
        "p,leaves", [(1, 2), (2, 2), (4, 4), (2, 8), (8, 4), (4, 16), (16, 2)]
    )
    def test_single_group_merges_sorted(self, p, leaves):
        rng = random.Random(p * 100 + leaves)
        runs = random_runs(rng, leaves, 50)
        output, stats = simulate_merge(p=p, leaves=leaves, runs=runs)
        assert run_values(output) == [sorted(x for run in runs for x in run)]
        assert stats.records_out == sum(len(run) for run in runs)

    def test_multiple_groups(self):
        rng = random.Random(3)
        runs = random_runs(rng, 12, 30)  # 3 groups of 4
        output, _ = simulate_merge(p=2, leaves=4, runs=runs)
        assert len(output) == 3
        for group in range(3):
            expected = sorted(
                x for run in runs[group * 4 : (group + 1) * 4] for x in run
            )
            assert output[group].tolist() == expected

    def test_ragged_final_group(self):
        rng = random.Random(4)
        runs = random_runs(rng, 6, 20)  # leaves=4: second group has 2 runs
        output, _ = simulate_merge(p=2, leaves=4, runs=runs)
        assert output[1].tolist() == sorted(x for run in runs[4:] for x in run)

    def test_empty_input(self):
        output, stats = simulate_merge(p=2, leaves=4, runs=[])
        assert run_values(output) == [[]]
        assert stats.records_out == 0

    def test_all_duplicate_keys(self):
        runs = [[7] * 16 for _ in range(4)]
        output, _ = simulate_merge(p=2, leaves=4, runs=runs)
        assert run_values(output) == [[7] * 64]

    def test_single_nonempty_leaf(self):
        runs = [[1, 5, 9]] + [[] for _ in range(7)]
        output, _ = simulate_merge(p=4, leaves=8, runs=runs)
        assert run_values(output) == [[1, 5, 9]]

    def test_rejects_unsorted_input_run(self):
        with pytest.raises(ConfigurationError, match="not sorted"):
            simulate_merge(p=2, leaves=4, runs=[[3, 1], [], [], []])

    def test_unsorted_check_can_be_skipped_for_speed(self):
        # With the check off, garbage in produces garbage out — but the
        # record-count invariant still holds.
        output, stats = simulate_merge(
            p=2, leaves=4, runs=[[3, 1], [], [], []], check_sorted_inputs=False
        )
        assert stats.records_out == 2

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_property_random_seeds(self, seed):
        rng = random.Random(seed)
        runs = random_runs(rng, 8, 24)
        output, _ = simulate_merge(p=4, leaves=8, runs=runs)
        assert run_values(output) == [sorted(x for run in runs for x in run)]


class TestStageTiming:
    def test_throughput_approaches_p_for_long_runs(self):
        rng = random.Random(11)
        runs = [sorted(rng.randrange(1, 10**9) for _ in range(2048)) for _ in range(8)]
        _, stats = simulate_merge(p=8, leaves=8, runs=runs)
        assert stats.records_per_cycle > 0.85 * 8

    def test_read_bandwidth_throttles_throughput(self):
        rng = random.Random(12)
        runs = [sorted(rng.randrange(1, 10**9) for _ in range(512)) for _ in range(4)]
        # Budget of 8 B/cycle = 2 records/cycle at 4-byte records, with a
        # p=4 tree: bandwidth-bound at ~2 records/cycle.
        _, stats = simulate_merge(
            p=4, leaves=4, runs=runs, read_bytes_per_cycle=8.0
        )
        assert stats.records_per_cycle < 2.2

    def test_record_width_affects_demand(self):
        rng = random.Random(13)
        runs = [sorted(rng.randrange(1, 10**9) for _ in range(2048)) for _ in range(4)]
        _, narrow = simulate_merge(p=4, leaves=4, runs=runs, record_bytes=4)
        _, wide = simulate_merge(p=4, leaves=4, runs=runs, record_bytes=16)
        # Same record rate either way (default budgets scale with width);
        # long runs amortise the batch-priming transient.
        assert wide.records_per_cycle == pytest.approx(
            narrow.records_per_cycle, rel=0.15
        )
        assert wide.bytes_read == 4 * narrow.bytes_read

    def test_timeout_raises(self):
        rng = random.Random(14)
        runs = [sorted(rng.randrange(1, 100) for _ in range(64)) for _ in range(4)]
        with pytest.raises(SimulationError, match="did not complete"):
            simulate_merge(p=2, leaves=4, runs=runs, max_cycles=10)

    def test_stats_traffic_accounting(self):
        rng = random.Random(15)
        runs = [sorted(rng.randrange(1, 10**9) for _ in range(64)) for _ in range(4)]
        _, stats = simulate_merge(p=2, leaves=4, runs=runs, record_bytes=4)
        total_records = sum(len(r) for r in runs)
        assert stats.bytes_read == total_records * 4
        assert stats.bytes_written == total_records * 4

    def test_seconds_at_frequency(self):
        rng = random.Random(16)
        runs = [sorted(rng.randrange(1, 10**9) for _ in range(64)) for _ in range(4)]
        _, stats = simulate_merge(p=2, leaves=4, runs=runs)
        assert stats.seconds_at(250e6) == pytest.approx(stats.cycles / 250e6)
        with pytest.raises(ValueError):
            stats.seconds_at(0)
