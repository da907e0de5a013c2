"""Shared-memory transport: pack and view round trips and the reusable
arena."""

from __future__ import annotations

import errno
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs.runtime import activated, live_observation
from repro.parallel import ParallelPlan
from repro.parallel import plan as plan_module
from repro.parallel import shm
from repro.parallel.api import simulate_units_sharded
from repro.parallel.shm import (
    Arena,
    as_uint64_keys,
    pack_arrays,
    release,
    view_array,
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
            assert np.array_equal(view_array(desc, index, block), original)
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


def test_layout_write_view_round_trip():
    arena = Arena()
    try:
        desc = arena.layout([4, 0, 3], np.int64)
        arena.view(desc, 0)[:] = [4, 3, 2, 1]
        arena.view(desc, 2)[:] = [7, 8, 9]
        assert np.array_equal(arena.view(desc, 0), [4, 3, 2, 1])
        assert np.array_equal(arena.view(desc, 2), [7, 8, 9])
        assert arena.view(desc, 1).size == 0
    finally:
        arena.release()


def test_release_tolerates_double_release():
    block, _desc = pack_arrays([np.arange(2, dtype=np.uint64)])
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


def shm_exists(name: str) -> bool:
    return Path("/dev/shm", name).exists()


class TestArena:
    def test_blocks_are_reused_up_to_their_high_water_mark(self):
        arena = Arena()
        try:
            live = live_observation()
            with activated(live):
                first = arena.pack([np.arange(100, dtype=np.uint64)])
                again = arena.pack([np.arange(50, dtype=np.uint64)] * 2)
                grown = arena.pack([np.arange(300, dtype=np.uint64)])
            assert again.name == first.name
            assert grown.name != first.name and not shm_exists(first.name)
            assert live.registry.counter_value("parallel.arena_grows", role="in") == 2
            assert np.array_equal(arena.view(grown, 0), np.arange(300))
        finally:
            arena.release()
        assert arena.blocks == {} and arena.mapped == {}
        assert not shm_exists(grown.name)

    def test_worker_keeps_its_mapping_and_closes_a_replaced_one(self):
        parent, worker = Arena(), Arena()
        try:
            small = parent.pack([np.arange(4, dtype=np.uint64)])
            out = parent.layout([4], np.uint64)
            first = worker.attach(small, out)
            assert worker.attach(small, out) == first
            big = parent.pack([np.arange(400, dtype=np.uint64)])
            worker.attach(big, out)
            assert set(worker.mapped) == {big.name, out.name}
        finally:
            worker.release()
            parent.release()

    def test_failed_allocation_leaves_no_block(self, monkeypatch):
        # /dev/shm fills up between the input and the output block.
        plan_module._WARM.release()
        real = shm.shared_memory.SharedMemory
        created: list[str] = []

        def allocate(*args, create=False, **kwargs):
            if create and created:
                raise OSError(errno.ENOSPC, "No space left on device")
            block = real(*args, create=create, **kwargs)
            if create:
                created.append(block.name)
            return block

        monkeypatch.setattr(shm, "shared_memory", SimpleNamespace(SharedMemory=allocate))
        with pytest.raises(OSError):
            simulate_units_sharded(
                np.arange(64, dtype=np.uint64), 2, {}, 1000, ParallelPlan()
            )
        assert created and not any(shm_exists(name) for name in created)
        assert shm.ARENA.blocks == {}
