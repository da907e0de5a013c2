"""Parent-side sharding helpers for the engine's serial hot loops.

Each helper takes the exact inputs of one serial loop plus a
:class:`~repro.parallel.plan.ParallelPlan` and reproduces that loop's
results through :meth:`ParallelPlan.map`.  The task decomposition never
depends on the ``jobs`` setting, and every reduction is order-stable, so
a helper's output is bit-identical at every ``jobs`` setting — the
differential suite in ``tests/parallel`` pins this against the
plan-less path.

Record data travels through :mod:`repro.parallel.shm`: the parent packs
batches into one shared block, workers attach zero-copy views, and only
tiny descriptors and cycle counts ride the pickles.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.plan import ParallelPlan
from repro.parallel.shm import (
    alloc_arrays,
    as_uint64_keys,
    pack_arrays,
    release,
    view_array,
)
from repro.parallel.workers import (
    worker_simulate_unit_shm,
    worker_sort_partition,
)


def sort_partitions_sharded(
    partitions: list[np.ndarray],
    config,
    hardware,
    arch,
    presort_run: int,
    plan: ParallelPlan | None,
) -> list | None:
    """Model-mode sort of independent partitions, one worker each.

    Returns a list of :class:`~repro.engine.results.SortOutcome` in
    partition order, or ``None`` when sharding does not apply and the
    caller should run its serial loop (same worker code path either
    way, so both give identical outcomes).
    """
    from repro.engine.results import SortOutcome

    dtypes = {part.dtype for part in partitions}
    if (
        plan is None
        or len(dtypes) != 1
        or not plan.wants_processes(len(partitions))
    ):
        return None
    dtype = dtypes.pop()
    in_block, in_desc = pack_arrays(partitions)
    out_block, out_desc = alloc_arrays([int(p.size) for p in partitions], dtype)
    try:
        tasks = [
            (in_desc, out_desc, index, config, hardware, arch, presort_run, "model")
            for index in range(len(partitions))
        ]
        results = plan.map(worker_sort_partition, tasks)
        outcomes = []
        for index, seconds, stages, traffic, detail in results:
            outcomes.append(
                SortOutcome(
                    data=view_array(out_desc, index, out_block).copy(),
                    seconds=seconds,
                    stages=stages,
                    record_bytes=arch.record_bytes,
                    mode="model",
                    traffic=traffic,
                    detail=detail,
                )
            )
        return outcomes
    finally:
        release(in_block)
        release(out_block)


def simulate_units_sharded(
    array: np.ndarray | list[int],
    lambda_unroll: int,
    shape: dict,
    max_cycles: int,
    plan: ParallelPlan,
) -> tuple[list[np.ndarray], list[tuple[int, int]]]:
    """λ unrolled sorter units, one task each, over address-range chunks.

    The loop of :meth:`repro.hw.banks.UnrolledSimulation.run`: ``array``
    splits into λ equal chunks and each task runs
    :func:`~repro.hw.banks.sort_unit` with the keyword arguments in
    ``shape``.  The array packs into one shared uint64 block as λ chunk
    slots; each worker writes its sorted range back into the same-sized
    output slot, and only cycle and stage counts ride the result
    pickles.

    Returns each unit's sorted range (a uint64 array) and its
    ``(cycles, stages_done)``, in unit order.
    """
    keys = as_uint64_keys(array)
    chunk = -(-keys.size // lambda_unroll)
    chunks = [
        keys[index * chunk : (index + 1) * chunk]
        for index in range(lambda_unroll)
    ]
    in_block, in_desc = pack_arrays(chunks)
    out_block, out_desc = alloc_arrays(
        [int(part.size) for part in chunks], np.uint64
    )
    try:
        tasks = [
            (in_desc, out_desc, index, shape, max_cycles)
            for index in range(lambda_unroll)
        ]
        results = plan.map(worker_simulate_unit_shm, tasks)
        ranges = [
            view_array(out_desc, index, out_block).copy()
            for index in range(lambda_unroll)
        ]
    finally:
        release(in_block)
        release(out_block)
    return ranges, results
