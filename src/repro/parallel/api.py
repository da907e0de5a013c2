"""Parent-side sharding of the unrolled simulator's independent units.

:func:`simulate_units_sharded` takes the exact inputs of
:meth:`repro.hw.banks.UnrolledSimulation.run`'s unit loop plus a
:class:`~repro.parallel.plan.ParallelPlan` and reproduces that loop's
results through :meth:`ParallelPlan.map`.  The task decomposition never
depends on the ``jobs`` setting, and the reduction is order-stable, so
the output is bit-identical at every ``jobs`` setting — the
differential suite in ``tests/parallel`` pins this against the serial
plan.

Record data travels through :mod:`repro.parallel.shm`: the parent packs
the chunks into the ``in`` block of the arena it leases
(:func:`~repro.parallel.plan.lease`, the same transport the cluster sort
uses), workers attach zero-copy views, and only tiny descriptors and
cycle counts ride the pickles.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.plan import ParallelPlan, lease
from repro.parallel.shm import as_uint64_keys
from repro.parallel.workers import worker_simulate_unit_shm


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
    with lease() as arena:
        in_desc = arena.pack(chunks)
        out_desc = arena.layout([int(part.size) for part in chunks], np.uint64)
        tasks = [
            (in_desc, out_desc, index, shape, max_cycles)
            for index in range(lambda_unroll)
        ]
        results = plan.map(worker_simulate_unit_shm, tasks)
        ranges = [arena.view(out_desc, index).copy() for index in range(lambda_unroll)]
    return ranges, results
