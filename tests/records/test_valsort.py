"""valsort-style output validation."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.records.valsort import (
    _CHECKSUM_CHUNK,
    _DIGEST_CHUNK,
    _Checksum,
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

    def test_accepts_unsorted_input(self):
        # Only the input's count and checksum are read, never its order.
        data = uniform_random(1_000, seed=6)
        assert not summarize(data).is_sorted
        summary = validate_sort(data, np.sort(data))
        assert summary.records == 1_000 and summary.checksum == _checksum(data)

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


def one_shot_digest(keys: np.ndarray) -> str:
    """The digest of one full-size widened copy of the keys."""
    widened = np.ascontiguousarray(keys, dtype=np.uint64)
    return hashlib.sha256(widened.tobytes()).hexdigest()[:16]


class TestDigestChunks:
    """The chunked digest hashes the same bytes as one widened copy."""

    @pytest.mark.parametrize("size", [
        _DIGEST_CHUNK - 1, _DIGEST_CHUNK, _DIGEST_CHUNK + 1,
        2 * _DIGEST_CHUNK + 3,
    ])
    @pytest.mark.parametrize("kind", [
        "uint32", "bool", "negative-int64", "strided-uint64",
        "strided-uint32", "uint64",
    ])
    def test_matches_one_shot_hash(self, kind, size):
        rng = np.random.default_rng(size)
        if kind == "uint32":
            keys = rng.integers(0, 2**32, size=size, dtype=np.uint32)
        elif kind == "bool":
            keys = rng.integers(0, 2, size=size).astype(bool)
        elif kind == "negative-int64":
            keys = rng.integers(-(2**63), 2**63 - 1, size=size, dtype=np.int64)
        elif kind == "uint64":
            keys = rng.integers(0, 2**64 - 1, size=size, dtype=np.uint64)
        else:
            dtype = np.uint64 if kind == "strided-uint64" else np.uint32
            keys = rng.integers(0, 2**32, size=3 * size, dtype=dtype)[::3]
            assert not keys.flags.c_contiguous
        assert content_digest(keys) == one_shot_digest(keys)


class TestChunkBoundaries:
    """Neighbouring chunks overlap by one key in the fused output pass."""

    def test_violation_straddling_a_chunk_boundary(self):
        keys = np.arange(2 * _CHECKSUM_CHUNK, dtype=np.uint32)
        boundary = slice(_CHECKSUM_CHUNK - 1, _CHECKSUM_CHUNK + 1)
        keys[boundary] = keys[boundary][::-1].copy()
        summary = summarize(keys)
        assert not summary.is_sorted
        assert summary.first_violation == _CHECKSUM_CHUNK
        with pytest.raises(WorkloadError, match=f"first violation at record {_CHECKSUM_CHUNK}"):
            validate_sort(np.sort(keys), keys)

    def test_duplicate_pair_straddling_a_chunk_boundary(self):
        keys = np.arange(2 * _CHECKSUM_CHUNK, dtype=np.uint64)
        keys[_CHECKSUM_CHUNK] = keys[_CHECKSUM_CHUNK - 1]
        summary = summarize(keys)
        assert summary.is_sorted and summary.duplicates == 1
        assert validate_sort(keys[::-1], keys) == summary

    def test_first_violation_is_the_earliest_across_chunks(self):
        keys = np.arange(3 * _CHECKSUM_CHUNK, dtype=np.uint32)
        keys[_CHECKSUM_CHUNK + 5] = 0
        keys[2 * _CHECKSUM_CHUNK + 5] = 0
        assert summarize(keys).first_violation == _CHECKSUM_CHUNK + 5


class TestNarrowChecksum:
    """Unsigned and bool keys of 32 bits or fewer skip the high-half
    products; signed keys wrap to 64-bit values and keep them."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.bool_])
    def test_top_of_range_matches_python_ints(self, dtype):
        top = True if dtype is np.bool_ else np.iinfo(dtype).max
        # A full chunk and then some of the largest key: the chunk's sums
        # of squares would wrap a uint64 many times over.
        keys = np.full(_CHECKSUM_CHUNK + 3, top, dtype=dtype)
        keys[::7] = 0
        assert _Checksum(keys.dtype, keys.size).narrow
        assert _checksum(keys) == reference_checksum(keys)
        assert summarize(np.sort(keys)).checksum == reference_checksum(keys)

    def test_uint32_max_is_the_widest_narrow_key(self):
        keys = np.array([2**32 - 1, 2**32 - 2, 1], dtype=np.uint32)
        assert _checksum(keys) == reference_checksum(keys)
        assert not _Checksum(np.dtype(np.uint64), 1).narrow

    @pytest.mark.parametrize("dtype", [np.int8, np.int32])
    def test_negative_signed_keys_take_the_wide_path(self, dtype):
        info = np.iinfo(dtype)
        keys = np.array([info.min, -1, 0, 1, info.max], dtype=dtype)
        assert not _Checksum(keys.dtype, keys.size).narrow
        assert _checksum(keys) == reference_checksum(keys)
        assert _checksum(keys) == _checksum(keys.astype(np.int64))
