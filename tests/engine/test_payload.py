"""Key/value sorting: payloads follow keys, stably."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import presets
from repro.core.configuration import AmtConfig
from repro.engine.payload import KeyValueSorter
from repro.errors import ConfigurationError
from repro.records.workloads import duplicate_heavy, uniform_random


@pytest.fixture(scope="module")
def sorter():
    return KeyValueSorter(
        config=AmtConfig(p=8, leaves=16),
        hardware=presets.aws_f1().hardware,
    )


def merge_with_positions(sorter, left, right):
    """Two sorted runs through the key/value path, laid end to end.

    Returns the merged keys and each input record's output position, so
    ``merged[left_positions[i]] == left[i]``.
    """
    keys = np.concatenate([left, right])
    outcome, order = sorter.sort(keys, np.arange(keys.size))
    positions = np.empty(keys.size, dtype=np.int64)
    positions[order] = np.arange(keys.size)
    return outcome.data, positions[: left.size], positions[left.size :]


class TestPermMerge:
    """The key/value path over two sorted runs is a two-way merge whose
    payload permutation places every record."""

    def test_positions_place_keys(self, sorter):
        left = np.array([1, 4, 7], dtype=np.uint32)
        right = np.array([2, 4, 9], dtype=np.uint32)
        merged, left_pos, right_pos = merge_with_positions(sorter, left, right)
        assert merged.tolist() == [1, 2, 4, 4, 7, 9]
        assert merged[left_pos].tolist() == left.tolist()
        assert merged[right_pos].tolist() == right.tolist()

    def test_ties_left_first(self, sorter):
        left = np.array([5], dtype=np.uint32)
        right = np.array([5], dtype=np.uint32)
        _, left_pos, right_pos = merge_with_positions(sorter, left, right)
        assert left_pos[0] < right_pos[0]

    @given(
        st.lists(st.integers(0, 30), max_size=20).map(sorted),
        st.lists(st.integers(0, 30), max_size=20).map(sorted),
    )
    @settings(max_examples=60, deadline=None)
    def test_property(self, sorter, left, right):
        merged, left_pos, right_pos = merge_with_positions(
            sorter, np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)
        )
        assert merged.tolist() == sorted(left + right)
        assert sorted(list(left_pos) + list(right_pos)) == list(
            range(len(left) + len(right))
        )


class TestKeyValueSorter:
    def test_payload_follows_keys(self, sorter):
        keys = uniform_random(5_000, seed=1)
        payload = np.arange(5_000, dtype=np.uint64)
        outcome, sorted_payload = sorter.sort(keys, payload)
        assert outcome.is_sorted()
        # Every (key, payload) pair from the input appears in the output.
        assert np.array_equal(keys[sorted_payload], outcome.data)

    def test_stability_on_duplicates(self, sorter):
        keys = duplicate_heavy(2_000, seed=2, distinct=5)
        payload = np.arange(2_000, dtype=np.uint64)
        outcome, sorted_payload = sorter.sort(keys, payload)
        # Within each equal-key block, payload ordinals must increase.
        for key in np.unique(outcome.data):
            block = sorted_payload[outcome.data == key]
            assert np.all(np.diff(block.astype(np.int64)) > 0)

    def test_equal_keys_keep_payload_order(self, sorter):
        # Four distinct keys over many presort runs and merge stages:
        # every equal-key block keeps its payload in input order, which
        # is the stable argsort's permutation.
        keys = np.random.default_rng(4).integers(0, 4, 3_000).astype(np.uint32)
        payload = np.arange(3_000, dtype=np.uint64)[::-1].copy()
        outcome, sorted_payload = sorter.sort(keys, payload)
        assert outcome.stages >= 2
        assert np.array_equal(sorted_payload, payload[np.argsort(keys, kind="stable")])
        for key in range(4):
            block = sorted_payload[outcome.data == key]
            assert np.all(np.diff(block.astype(np.int64)) < 0)
        same = np.full(100, 7, dtype=np.uint32)
        _, untouched = sorter.sort(same, payload[:100])
        assert np.array_equal(untouched, payload[:100])

    def test_empty(self, sorter):
        outcome, payload = sorter.sort(
            np.array([], dtype=np.uint32), np.array([], dtype=np.uint64)
        )
        assert outcome.n_records == 0 and payload.size == 0

    def test_misaligned_shapes_rejected(self, sorter):
        with pytest.raises(ConfigurationError, match="align"):
            sorter.sort(np.array([1, 2]), np.array([1]))

    def test_timing_matches_plain_sorter(self, sorter):
        from repro.engine.sorter import AmtSorter

        keys = uniform_random(10_000, seed=3)
        payload = np.zeros(10_000, dtype=np.uint8)
        outcome, _ = sorter.sort(keys, payload)
        plain = AmtSorter(
            config=sorter.config, hardware=sorter.hardware, arch=sorter.arch
        ).sort(keys)
        assert outcome.seconds == pytest.approx(plain.seconds)
        assert outcome.stages == plain.stages

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_property_roundtrip(self, seed):
        sorter = KeyValueSorter(
            config=AmtConfig(p=4, leaves=4),
            hardware=presets.aws_f1().hardware,
        )
        keys = uniform_random(500, seed=seed)
        payload = np.arange(500, dtype=np.uint64)
        outcome, sorted_payload = sorter.sort(keys, payload)
        assert np.array_equal(np.sort(keys), outcome.data)
        assert sorted(sorted_payload.tolist()) == list(range(500))
