"""valsort-style output validation."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.records.valsort import (
    _CHECKSUM_CHUNK,
    _checksum,
    content_digest,
    summarize,
    validate_sort,
)
from repro.records.workloads import duplicate_heavy, uniform_random


def reference_checksum(keys) -> int:
    """The checksum's definition in Python ints: sum of k*k + k mod 2**61 - 1."""
    values = (int(key) for key in np.asarray(keys).astype(np.uint64))
    return sum(key * key + key for key in values) % ((1 << 61) - 1)


def reference_digest(keys) -> str:
    """The digest built key by key through a Python list."""
    return hashlib.sha256(np.asarray(list(keys), dtype=np.uint64).tobytes()).hexdigest()[:16]


class TestSummarize:
    def test_sorted_stream(self):
        summary = summarize(np.array([1, 2, 2, 5], dtype=np.uint32))
        assert summary.is_sorted
        assert summary.records == 4
        assert summary.duplicates == 1
        assert summary.first_violation is None

    def test_unsorted_stream_reports_position(self):
        summary = summarize(np.array([1, 5, 3, 9], dtype=np.uint32))
        assert not summary.is_sorted
        assert summary.first_violation == 2

    def test_empty(self):
        summary = summarize(np.array([], dtype=np.uint32))
        assert summary.is_sorted and summary.records == 0

    def test_rejects_matrices(self):
        with pytest.raises(WorkloadError):
            summarize(np.zeros((2, 2), dtype=np.uint32))

    def test_checksum_is_order_independent(self):
        data = uniform_random(5_000, seed=1)
        shuffled = data.copy()
        np.random.default_rng(0).shuffle(shuffled)
        assert summarize(data).checksum == summarize(shuffled).checksum

    def test_checksum_detects_multiset_changes(self):
        # {1, 3} vs {2, 2}: same sum, different multiset.
        a = summarize(np.array([1, 3], dtype=np.uint32))
        b = summarize(np.array([2, 2], dtype=np.uint32))
        assert a.checksum != b.checksum


class TestValidateSort:
    def test_accepts_correct_sort(self):
        data = duplicate_heavy(10_000, seed=2, distinct=100)
        summary = validate_sort(data, np.sort(data))
        assert summary.is_sorted

    def test_rejects_unsorted_output(self):
        data = uniform_random(100, seed=3)
        with pytest.raises(WorkloadError, match="not sorted"):
            validate_sort(data, data)

    def test_rejects_lost_records(self):
        data = np.sort(uniform_random(100, seed=4))
        with pytest.raises(WorkloadError, match="record count"):
            validate_sort(data, data[:-1])

    def test_rejects_substituted_records(self):
        data = np.sort(uniform_random(100, seed=5))
        tampered = data.copy()
        tampered[50] = tampered[50] + 1 if tampered[50] < 2**32 - 1 else 0
        tampered = np.sort(tampered)
        with pytest.raises(WorkloadError, match="checksum"):
            validate_sort(data, tampered)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_property_any_real_sort_validates(self, seed):
        data = uniform_random(500, seed=seed)
        validate_sort(data, np.sort(data))


class TestFullRangeUint64:
    """Neighbours 2**63 or more apart must not wrap around."""

    def test_wide_gap_is_sorted(self):
        summary = summarize(np.array([0, 2**63 + 1], dtype=np.uint64))
        assert summary.is_sorted
        assert summary.first_violation is None
        assert summary.duplicates == 0

    def test_wide_descent_is_unsorted(self):
        summary = summarize(np.array([2**64 - 1, 0], dtype=np.uint64))
        assert not summary.is_sorted
        assert summary.first_violation == 1

    def test_validate_rejects_wide_descent(self):
        source = np.array([0, 2**64 - 1], dtype=np.uint64)
        output = np.array([2**64 - 1, 0], dtype=np.uint64)
        with pytest.raises(WorkloadError, match="not sorted"):
            validate_sort(source, output)

    def test_duplicates_at_the_top_of_the_range(self):
        keys = np.array([0, 2**64 - 1, 2**64 - 1, 2**64 - 1], dtype=np.uint64)
        summary = summarize(keys)
        assert summary.is_sorted
        assert summary.duplicates == 2
        validate_sort(keys[::-1], keys)


class TestChecksumAndDigestOracle:
    """The uint64 numpy checksum and digest against Python-int references."""

    @pytest.mark.parametrize("values", [
        [2**64 - 1, 0],
        [2**63 - 1, 2**63, 2**63 + 1],
        [2**32 - 1, 2**32, 2**32 + 1],
        [],
    ], ids=["extremes", "around-2**63", "around-2**32", "empty"])
    def test_checksum_matches_python_ints(self, values):
        keys = np.array(values, dtype=np.uint64)
        assert _checksum(keys) == reference_checksum(keys)

    @pytest.mark.parametrize("keys", [
        np.array([-1, -(2**63), 5, 2**63 - 1], dtype=np.int64),
        np.array([2**32 - 1, 7, 0], dtype=np.uint32),
        np.array([2**16 - 1, 1], dtype=np.uint16),
    ], ids=["negative-int64", "uint32", "uint16"])
    def test_checksum_widens_like_astype(self, keys):
        assert _checksum(keys) == reference_checksum(keys)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_checksum_at_chunk_boundaries(self, offset):
        size = _CHECKSUM_CHUNK + offset
        keys = np.random.default_rng(size).integers(
            0, 2**64 - 1, size=size, dtype=np.uint64, endpoint=True
        )
        assert _checksum(keys) == reference_checksum(keys)

    @pytest.mark.parametrize("keys", [
        [3, 1, 2**64 - 1],
        np.arange(20, dtype=np.uint64)[::3],
        np.array([7, 2**16 - 1, 0], dtype=np.uint16),
        np.array([], dtype=np.uint32),
    ], ids=["list", "strided-view", "uint16", "empty"])
    def test_digest_matches_per_key_form(self, keys):
        assert content_digest(keys) == reference_digest(keys)
