"""The exchange plan's deterministic half: splitters, owners, pull, layout."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed.exchange import (
    ShuffleLayout,
    partition_counts,
    partition_owners,
    pull_partition,
    sample_splitters,
    serial_partitions,
)
from repro.errors import ConfigurationError


class TestSampleSplitters:
    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 1 << 30, size=10_000, dtype=np.uint64)
        first = sample_splitters(data, nodes=8, seed=5)
        again = sample_splitters(data, nodes=8, seed=5)
        assert np.array_equal(first, again)
        other = sample_splitters(data, nodes=8, seed=6)
        assert not np.array_equal(first, other)

    def test_count_and_order(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 1 << 30, size=10_000, dtype=np.uint64)
        splitters = sample_splitters(data, nodes=8)
        assert splitters.size == 7
        assert splitters.dtype == np.uint64
        assert np.all(np.diff(splitters.astype(np.int64)) >= 0)

    def test_uniform_keys_balance_partitions(self):
        rng = np.random.default_rng(4)
        data = rng.integers(0, 1 << 30, size=40_000, dtype=np.uint64)
        splitters = sample_splitters(data, nodes=4)
        counts = partition_counts(data, splitters, nodes=4)
        balanced = data.size / 4
        assert counts.max() <= 1.3 * balanced
        assert counts.min() >= 0.7 * balanced

    def test_refinement_advances_tied_boundaries(self):
        # 90% of the mass on one key: naive quantiles would repeat it.
        rng = np.random.default_rng(5)
        data = np.where(
            rng.random(20_000) < 0.9,
            np.uint64(7),
            rng.integers(8, 1 << 20, size=20_000, dtype=np.uint64),
        )
        splitters = sample_splitters(data, nodes=4)
        distinct = np.unique(splitters)
        assert distinct.size == splitters.size, "tied splitters not refined"

    def test_single_node_and_empty_data(self):
        data = np.arange(10, dtype=np.uint64)
        assert sample_splitters(data, nodes=1).size == 0
        assert sample_splitters(np.empty(0, dtype=np.uint64), nodes=4).size == 0

    def test_rejects_bad_parameters(self):
        data = np.arange(10, dtype=np.uint64)
        with pytest.raises(ConfigurationError, match=">= 1 node"):
            sample_splitters(data, nodes=0)
        with pytest.raises(ConfigurationError, match="oversample"):
            sample_splitters(data, nodes=2, oversample=0)


class TestPartitionOwners:
    def test_ranges_are_half_open(self):
        splitters = np.asarray([10, 20], dtype=np.uint64)
        keys = np.asarray([0, 9, 10, 15, 19, 20, 99], dtype=np.uint64)
        owners = partition_owners(keys, splitters)
        assert list(owners) == [0, 0, 1, 1, 1, 2, 2]

    def test_duplicates_stay_on_one_node(self):
        splitters = np.asarray([10, 20], dtype=np.uint64)
        keys = np.asarray([10] * 50 + [20] * 50, dtype=np.uint64)
        owners = partition_owners(keys, splitters)
        assert set(owners[:50]) == {1} and set(owners[50:]) == {2}

    def test_concatenated_partitions_sort_globally(self):
        rng = np.random.default_rng(6)
        keys = rng.integers(0, 1 << 16, size=5000, dtype=np.uint64)
        splitters = sample_splitters(keys, nodes=4)
        parts = serial_partitions(keys, splitters, nodes=4)
        assert sum(int(p.size) for p in parts) == keys.size
        merged = np.concatenate([np.sort(p) for p in parts])
        assert np.array_equal(merged, np.sort(keys))


def node_bounds(splitters: np.ndarray) -> list[int | None]:
    """Node ``r`` owns ``[bounds[r], bounds[r + 1])``; ``None`` is open."""
    return [None, *(int(s) for s in splitters), None]


class TestPullPartition:
    """Each node's pull against the serial oracle, sender by sender."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("nodes", [1, 3, 4])
    def test_pull_equals_serial_partitions_per_sender(self, seed, nodes):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 1 << 12, size=3001, dtype=np.uint64)
        chunks = np.array_split(keys, nodes)
        splitters = sample_splitters(keys, nodes, seed=seed)
        bounds = node_bounds(splitters)
        oracle = [serial_partitions(chunk, splitters, nodes) for chunk in chunks]
        offset = 0
        for receiver in range(nodes):
            pulled, start, counts = pull_partition(
                chunks, bounds[receiver], bounds[receiver + 1]
            )
            expected = [parts[receiver] for parts in oracle]
            assert pulled.dtype == np.uint64
            assert np.array_equal(pulled, np.concatenate(expected))
            assert counts == tuple(int(part.size) for part in expected)
            assert start == offset
            offset += int(pulled.size)
        assert offset == keys.size

    def test_tied_splitters_leave_an_empty_node(self):
        chunks = [
            np.asarray([7, 3, 7, 9], dtype=np.uint64),
            np.asarray([7, 12, 1], dtype=np.uint64),
        ]
        splitters = np.asarray([7, 7, 10], dtype=np.uint64)
        bounds = node_bounds(splitters)
        pulls = [
            pull_partition(chunks, bounds[r], bounds[r + 1]) for r in range(4)
        ]
        assert [list(keys) for keys, _, _ in pulls] == [
            [3, 1], [], [7, 7, 9, 7], [12],
        ]
        assert [offset for _, offset, _ in pulls] == [0, 2, 2, 6]
        assert [counts for _, _, counts in pulls] == [
            (1, 1), (0, 0), (3, 1), (0, 1),
        ]


class TestShuffleLayout:
    def layout(self) -> ShuffleLayout:
        return ShuffleLayout(counts=((3, 1), (2, 4)))

    def test_partition_lengths_and_totals(self):
        layout = self.layout()
        assert layout.partition_lengths() == [5, 5]
        assert layout.total_records == 10
        assert layout.skew == 1.0

    def test_skew_tracks_largest_partition(self):
        skewed = ShuffleLayout(counts=((9, 1), (6, 0)))
        assert skewed.partition_lengths() == [15, 1]
        assert skewed.skew == pytest.approx(15 * 2 / 16)

    def test_empty_layout_skew_is_one(self):
        assert ShuffleLayout(counts=((0,),)).skew == 1.0

    def test_rejects_non_square_counts(self):
        with pytest.raises(ConfigurationError, match="square"):
            ShuffleLayout(counts=((1, 2), (3,)))
        with pytest.raises(ConfigurationError, match=">= 1 node"):
            ShuffleLayout(counts=())
