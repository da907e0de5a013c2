"""Shared-memory transport: pack/alloc/read/write round trips."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.parallel.shm import (
    alloc_arrays,
    as_uint64_keys,
    pack_arrays,
    read_array,
    release,
    view_array,
    write_array,
)


def test_pack_and_read_round_trip():
    arrays = [
        np.arange(5, dtype=np.uint64),
        np.array([], dtype=np.uint64),
        np.arange(100, 110, dtype=np.uint64),
    ]
    block, desc = pack_arrays(arrays)
    try:
        assert desc.lengths == (5, 0, 10)
        assert desc.offsets == (0, 5, 5)
        assert desc.total == 15
        for index, original in enumerate(arrays):
            assert np.array_equal(read_array(desc, index), original)
    finally:
        release(block)


def test_viewing_every_packed_array_is_linear():
    """Each offset is computed once per descriptor, so viewing all of a
    20,000-array block's arrays stays far below a second (rebuilding the
    offsets per view made it O(n²): about 15 s)."""
    arrays = [np.full(2, index, dtype=np.uint32) for index in range(20_000)]
    block, desc = pack_arrays(arrays)
    try:
        started = time.perf_counter()
        firsts = [int(view_array(desc, index, block)[0]) for index in range(len(arrays))]
        elapsed = time.perf_counter() - started
    finally:
        release(block)
    assert firsts == list(range(20_000))
    assert elapsed < 1.0


def test_pack_rejects_empty_list():
    with pytest.raises(ConfigurationError, match="zero arrays"):
        pack_arrays([])


def test_alloc_write_view_round_trip():
    block, desc = alloc_arrays([4, 0, 3], np.int64)
    try:
        write_array(desc, 0, np.array([4, 3, 2, 1]))
        write_array(desc, 2, np.array([7, 8, 9]))
        assert np.array_equal(view_array(desc, 0, block), [4, 3, 2, 1])
        assert np.array_equal(view_array(desc, 2, block), [7, 8, 9])
        assert view_array(desc, 1, block).size == 0
    finally:
        release(block)


def test_write_rejects_size_mismatch():
    block, desc = alloc_arrays([3], np.uint64)
    try:
        with pytest.raises(ConfigurationError, match="slot 0"):
            write_array(desc, 0, np.arange(5, dtype=np.uint64))
    finally:
        release(block)


def test_release_tolerates_double_release():
    block, _desc = alloc_arrays([2], np.uint64)
    release(block)
    release(block)  # no FileNotFoundError escape


class TestUint64Packability:
    """The one gate every record shipped through shm passes."""

    def test_unsigned_and_safe_signed_pack(self):
        packed = [
            as_uint64_keys(keys) for keys in (
                np.asarray([0, 2**64 - 1], dtype=np.uint64),
                np.asarray([7, 8], dtype=np.uint32),
                np.asarray([0, 5], dtype=np.int64),
            )
        ]
        assert all(run.dtype == np.uint64 for run in packed)
        assert [run.tolist() for run in packed] == [[0, 2**64 - 1], [7, 8], [0, 5]]

    def test_out_of_range_keys_raise(self):
        for keys in (
            np.asarray([-1, 2], dtype=np.int64),
            np.asarray([1.5]),
            np.asarray([1, 2**64], dtype=object),
        ):
            with pytest.raises(ConfigurationError, match=r"\[0, 2\*\*64\)"):
                as_uint64_keys(keys)

    def test_cluster_and_unrolled_paths_share_the_gate(self):
        from repro.distributed.executor import ClusterExecutor
        from repro.hw.banks import UnrolledSimulation

        negative = np.asarray([-1, 2], dtype=np.int64)
        with pytest.raises(ConfigurationError, match="uint64") as cluster:
            ClusterExecutor(nodes=2).execute(negative)
        with pytest.raises(ConfigurationError, match="uint64") as unrolled:
            UnrolledSimulation(p=2, leaves=2, lambda_unroll=2).run(negative)
        assert str(cluster.value) == str(unrolled.value)
