"""Process-pool worker entry points.

Every function here is a *worker entry*: a module-level function taking
one picklable task tuple, imported by qualified name inside pool
processes.  Two invariants keep the pool deterministic and safe, and
``bonsai check``'s ``worker-entry`` rule enforces both:

* entries are **module-level** (nested functions and lambdas cannot be
  pickled by reference, and would silently capture parent state);
* this module is **import-pure** — importing it runs no code beyond
  ``def``/``import``, so a forked or spawned worker observes exactly the
  same module as the parent and results cannot depend on import order.

Entries return plain data (tuples of ints/floats, lists, small frozen
dataclasses); large numpy arrays travel through
:mod:`repro.parallel.shm` descriptors instead of pickles.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.shm import ShmArrays, read_array, view_array, write_array


# ----------------------------------------------------------------------
# simulate-mode unrolled units (hw/banks.py)
# ----------------------------------------------------------------------
def worker_simulate_unit_shm(task: tuple) -> tuple:
    """Run one unrolled sorter unit over its chunk in shared memory.

    ``task = (in_desc, out_desc, index, shape, max_cycles)`` — the
    unit's address-range chunk lives in input slot ``index`` and its
    sorted output is written back to output slot ``index`` (same
    length); ``shape`` holds :func:`~repro.hw.banks.sort_unit`'s
    keyword arguments.  Returns ``(cycles, stages_done)``.
    """
    from repro.hw.banks import sort_unit

    in_desc, out_desc, index, shape, max_cycles = task
    output, cycles, stages = sort_unit(read_array(in_desc, index), max_cycles, **shape)
    write_array(out_desc, index, output)
    return (cycles, stages)


# ----------------------------------------------------------------------
# cluster exchange + per-node sorts (distributed/executor.py)
# ----------------------------------------------------------------------
def worker_exchange_partition(task: tuple) -> tuple:
    """Range-partition one sender's chunk into its shuffle slot.

    ``task = (in_desc, shuffle_desc, sender, splitters)`` — read input
    slot ``sender``, compute each record's owning node against the
    splitter boundaries, and write the chunk back to shuffle slot
    ``sender`` grouped by receiver (stable argsort, so a receiver's
    shard preserves the sender's input order).  Returns the
    per-receiver record counts; the parent assembles the counts matrix
    into a :class:`~repro.distributed.exchange.ShuffleLayout`.
    """
    from multiprocessing import shared_memory

    from repro.distributed.exchange import partition_owners
    from repro.obs.runtime import observation

    in_desc, shuffle_desc, sender, splitters = task
    block = shared_memory.SharedMemory(name=in_desc.name)
    try:
        chunk = view_array(in_desc, sender, block).copy()
    finally:
        block.close()
    owners = partition_owners(chunk, np.asarray(splitters, dtype=np.uint64))
    order = np.argsort(owners, kind="stable")
    write_array(shuffle_desc, sender, chunk[order])
    counts = np.bincount(owners, minlength=len(splitters) + 1)
    observation().count("cluster.exchange_records", int(chunk.size))
    return tuple(int(count) for count in counts)


def worker_cluster_node_sort(task: tuple) -> tuple:
    """Gather one node's shards from the shuffle block and sort them.

    ``task = (shuffle_desc, out_desc, flag_desc, receiver, ranges,
    config, hardware, arch, presort_run, mode, straggler)`` — copy the
    ``(sender_slot, start, stop)`` shard ranges out of the shuffle
    block, concatenate them, sort through a single-tree
    :class:`AmtSorter`, and write the sorted partition to output slot
    ``receiver``.  Returns ``(receiver, model_seconds, stages)``.

    ``straggler`` (``None`` or ``(node, mode, seconds)``) injects a
    fault into exactly one node's sort — ``"kill"`` SIGKILLs the worker
    process, ``"sleep"`` stalls it past the plan's task timeout — to
    exercise the parallel layer's serial-recompute fallback.  Injection
    is gated on actually being a pool child (``parent_process()``), so
    the parent's recompute of the same task runs clean, and marks the
    shared flag slot first, so the parent can report that recovery
    happened even with observability disabled.
    """
    from multiprocessing import parent_process, shared_memory

    from repro.engine.sorter import AmtSorter
    from repro.obs.runtime import observation

    (
        shuffle_desc, out_desc, flag_desc, receiver, ranges,
        config, hardware, arch, presort_run, mode, straggler,
    ) = task
    if (
        straggler is not None
        and straggler[0] == receiver
        and parent_process() is not None
    ):
        flag_block = shared_memory.SharedMemory(name=flag_desc.name)
        try:
            flags = view_array(flag_desc, 0, flag_block)
            already_injected = bool(flags[0])
            flags[0] = 1
        finally:
            flag_block.close()
        if not already_injected:
            if straggler[1] == "kill":
                import os
                import signal

                os.kill(os.getpid(), signal.SIGKILL)
            else:
                import time

                time.sleep(float(straggler[2]))
    block = shared_memory.SharedMemory(name=shuffle_desc.name)
    try:
        shards = [
            view_array(shuffle_desc, sender, block)[start:stop].copy()
            for sender, start, stop in ranges
        ]
    finally:
        block.close()
    data = (
        np.concatenate(shards) if shards
        else np.empty(0, dtype=np.uint64)
    )
    sorter = AmtSorter(
        config=config, hardware=hardware, arch=arch,
        presort_run=presort_run, mode=mode,
    )
    outcome = sorter.sort(data)
    write_array(out_desc, receiver, np.asarray(outcome.data, dtype=np.uint64))
    observation().count("cluster.node_records", int(data.size))
    return (receiver, float(outcome.seconds), int(outcome.stages))


#: Names re-exported for the ``worker-entry`` check's allow-list tests.
WORKER_ENTRIES = (
    worker_simulate_unit_shm,
    worker_exchange_partition,
    worker_cluster_node_sort,
)

__all__ = [
    "ShmArrays",
    "WORKER_ENTRIES",
    "worker_cluster_node_sort",
    "worker_exchange_partition",
    "worker_simulate_unit_shm",
]
