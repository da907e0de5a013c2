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
# model-mode merge stage (engine/stage.py)
# ----------------------------------------------------------------------
def worker_merge_group(task: tuple) -> int:
    """Merge one group of runs: shared block in, shared slot out.

    ``task = (in_desc, out_desc, group_index, start, stop)`` — merge
    input runs ``[start, stop)`` with ``merge_runs_numpy`` and write
    the result into output slot ``group_index``.  Returns the group
    index as an acknowledgement (the data never rides the pickle).
    """
    from multiprocessing import shared_memory

    from repro.engine.stage import merge_runs_numpy

    in_desc, out_desc, group_index, start, stop = task
    block = shared_memory.SharedMemory(name=in_desc.name)
    try:
        runs = [view_array(in_desc, i, block) for i in range(start, stop)]
        merged = merge_runs_numpy(runs)
        write_array(out_desc, group_index, merged)
    finally:
        block.close()
    return group_index


# ----------------------------------------------------------------------
# model-mode unrolled partitions (engine/unrolled.py)
# ----------------------------------------------------------------------
def worker_sort_partition(task: tuple) -> tuple:
    """Sort one partition through a single-tree :class:`AmtSorter`.

    ``task = (in_desc, out_desc, index, config, hardware, arch,
    presort_run, mode)``; the partition lives in input slot ``index``
    and the sorted data is written back to output slot ``index``.
    Returns the timing/traffic metadata the parent needs to rebuild the
    partition's :class:`~repro.engine.results.SortOutcome`.
    """
    from repro.engine.sorter import AmtSorter

    in_desc, out_desc, index, config, hardware, arch, presort_run, mode = task
    data = read_array(in_desc, index)
    sorter = AmtSorter(
        config=config, hardware=hardware, arch=arch,
        presort_run=presort_run, mode=mode,
    )
    outcome = sorter.sort(data)
    write_array(out_desc, index, np.asarray(outcome.data, dtype=data.dtype))
    return (index, outcome.seconds, outcome.stages, outcome.traffic, outcome.detail)


# ----------------------------------------------------------------------
# simulate-mode stage groups (engine/sorter.py)
# ----------------------------------------------------------------------
def worker_simulate_group(task: tuple) -> tuple:
    """Cycle-simulate one merge group on its own tree.

    ``task = (p, leaves, runs, record_bytes, read_bytes_per_cycle,
    write_bytes_per_cycle, batch_bytes)`` with ``runs`` as plain int
    lists riding the task pickle.  This is the fallback transport for
    records that cannot pack into a uint64 shared block (negative or
    >64-bit keys); the fast lane is :func:`worker_simulate_group_shm`.
    Returns ``(output_runs, cycles)``.
    """
    from repro.hw.tree import simulate_merge

    p, leaves, runs, record_bytes, read_bpc, write_bpc, batch_bytes = task
    out_runs, stats = simulate_merge(
        p=p,
        leaves=leaves,
        runs=runs,
        record_bytes=record_bytes,
        read_bytes_per_cycle=read_bpc,
        write_bytes_per_cycle=write_bpc,
        batch_bytes=batch_bytes,
        check_sorted_inputs=False,
    )
    return (out_runs, stats.cycles)


def worker_simulate_group_shm(task: tuple) -> tuple:
    """Cycle-simulate one merge group with its runs in shared memory.

    ``task = (in_desc, out_desc, group_index, start, stop, p, leaves,
    record_bytes, read_bytes_per_cycle, write_bytes_per_cycle,
    batch_bytes)`` — the group's input runs occupy slots ``[start,
    stop)`` of the input block and the sorted output concatenates into
    output slot ``group_index`` (a merge is length-preserving, so the
    slot size is exactly the sum of the group's inputs).  Returns
    ``(output_run_lengths, cycles)``; record data never rides a pickle
    in either direction.
    """
    from multiprocessing import shared_memory

    from repro.hw.tree import simulate_merge

    (
        in_desc, out_desc, group_index, start, stop,
        p, leaves, record_bytes, read_bpc, write_bpc, batch_bytes,
    ) = task
    block = shared_memory.SharedMemory(name=in_desc.name)
    try:
        # tolist() materialises native ints once, up front: the simulator
        # compares and hashes records in pure Python, where numpy scalars
        # would be both slower and digest-visible.
        runs = [view_array(in_desc, i, block).tolist() for i in range(start, stop)]
    finally:
        block.close()
    out_runs, stats = simulate_merge(
        p=p,
        leaves=leaves,
        runs=runs,
        record_bytes=record_bytes,
        read_bytes_per_cycle=read_bpc,
        write_bytes_per_cycle=write_bpc,
        batch_bytes=batch_bytes,
        check_sorted_inputs=False,
    )
    flat = [record for run in out_runs for record in run]
    write_array(out_desc, group_index, np.asarray(flat, dtype=np.dtype(out_desc.dtype)))
    return (tuple(len(run) for run in out_runs), stats.cycles)


# ----------------------------------------------------------------------
# simulate-mode unrolled units (hw/banks.py)
# ----------------------------------------------------------------------
def worker_simulate_unit(task: tuple) -> tuple:
    """Run one unrolled sorter unit's full cycle loop.

    ``task = (p, leaves, record_bytes, bytes_per_cycle, batch_bytes,
    presort_run, chunk, max_cycles)`` with ``chunk`` riding the task
    pickle (the fallback transport when records cannot pack into a
    uint64 shared block; see :func:`worker_simulate_unit_shm`).  Ticks
    the unit exactly as :meth:`UnrolledSimulation.run`'s joint loop
    would — a done unit's tick is a no-op there, so per-unit cycle
    counts are identical and the parent recovers ``parallel_cycles`` as
    their ``max()``.  Returns ``(output, busy_cycles, stages_done,
    cycles)``.
    """
    from repro.errors import SimulationError
    from repro.hw.banks import _SorterUnit

    p, leaves, record_bytes, bytes_per_cycle, batch_bytes, presort_run, chunk, max_cycles = task
    unit = _SorterUnit(
        p=p,
        leaves=leaves,
        record_bytes=record_bytes,
        bytes_per_cycle=bytes_per_cycle,
        batch_bytes=batch_bytes,
        presort_run=presort_run,
    )
    unit.load(list(chunk))
    cycle = 0
    while not unit.done:
        if cycle >= max_cycles:
            raise SimulationError(
                f"unrolled phase did not finish within {max_cycles} cycles"
            )
        unit.tick(cycle)
        cycle += 1
    return (unit.output, unit.busy_cycles, unit.stages_done, cycle)


def worker_simulate_unit_shm(task: tuple) -> tuple:
    """Run one unrolled unit with its chunk in shared memory.

    ``task = (in_desc, out_desc, index, p, leaves, record_bytes,
    bytes_per_cycle, batch_bytes, presort_run, max_cycles)`` — the
    unit's address-range chunk lives in input slot ``index`` and its
    sorted output is written back to output slot ``index`` (same
    length).  The cycle loop is identical to
    :func:`worker_simulate_unit`; only the record transport differs.
    Returns ``(busy_cycles, stages_done, cycles)``.
    """
    from multiprocessing import shared_memory

    from repro.errors import SimulationError
    from repro.hw.banks import _SorterUnit

    (
        in_desc, out_desc, index, p, leaves, record_bytes,
        bytes_per_cycle, batch_bytes, presort_run, max_cycles,
    ) = task
    block = shared_memory.SharedMemory(name=in_desc.name)
    try:
        chunk = view_array(in_desc, index, block).tolist()
    finally:
        block.close()
    unit = _SorterUnit(
        p=p,
        leaves=leaves,
        record_bytes=record_bytes,
        bytes_per_cycle=bytes_per_cycle,
        batch_bytes=batch_bytes,
        presort_run=presort_run,
    )
    unit.load(chunk)
    cycle = 0
    while not unit.done:
        if cycle >= max_cycles:
            raise SimulationError(
                f"unrolled phase did not finish within {max_cycles} cycles"
            )
        unit.tick(cycle)
        cycle += 1
    write_array(out_desc, index, np.asarray(unit.output, dtype=np.dtype(out_desc.dtype)))
    return (unit.busy_cycles, unit.stages_done, cycle)


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


# ----------------------------------------------------------------------
# optimizer sweeps (core/optimizer.py)
# ----------------------------------------------------------------------
def worker_eval_latency(task: tuple) -> list[tuple]:
    """Evaluate §III-C latency for a chunk of configurations.

    ``task = (bonsai_kwargs, configs, array, unroll_mode)``.  Builds a
    fresh :class:`Bonsai` from the parent's constructor kwargs so the
    evaluation runs the *same* code path as the serial loop, then
    returns ``(config, latency_seconds)`` pairs for the parent to fold
    into its frozen-key memoization cache.
    """
    from repro.core.optimizer import Bonsai

    bonsai_kwargs, configs, array, unroll_mode = task
    bonsai = Bonsai(**bonsai_kwargs)
    return [
        (config, bonsai._latency(config, array, unroll_mode))
        for config in configs
    ]


def worker_eval_throughput(task: tuple) -> list[tuple]:
    """Evaluate Eq. 5 + throughput/latency for a chunk of configurations.

    ``task = (bonsai_kwargs, configs, array)``.  Mirrors the serial
    ``rank_by_throughput`` loop: configurations failing
    ``pipeline_can_sort`` are skipped (their objective is never
    computed, exactly like serial).  Returns
    ``(config, can_sort, throughput_bytes, latency_seconds)`` with
    ``None`` objectives for skipped configs.
    """
    from repro.core.optimizer import Bonsai

    bonsai_kwargs, configs, array = task
    bonsai = Bonsai(**bonsai_kwargs)
    results = []
    for config in configs:
        if not bonsai.pipeline_can_sort(config, array):
            results.append((config, False, None, None))
            continue
        results.append(
            (
                config,
                True,
                bonsai._throughput(config),
                bonsai._latency(config, array, "combined"),
            )
        )
    return results


# ----------------------------------------------------------------------
# benchmark scenarios (bench/runner.py)
# ----------------------------------------------------------------------
def worker_bench_scenario(task: tuple):
    """Run one benchmark scenario, naive/fast pair pinned together.

    ``task = (name, quick, seed)``.  Both engine timings of a scenario
    run inside the same worker (same core, same cache state), so the
    recorded speedup ratio stays honest under ``bench --jobs N``.
    Imported lazily: the runner imports this module, not vice versa.
    """
    import dataclasses

    from repro.bench.runner import run_scenario
    from repro.bench.scenarios import BY_NAME

    name, quick, seed = task
    scenario = BY_NAME[name]
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=seed)
    return run_scenario(scenario, quick=quick)


#: Names re-exported for the ``worker-entry`` check's allow-list tests.
WORKER_ENTRIES = (
    worker_merge_group,
    worker_sort_partition,
    worker_simulate_group,
    worker_simulate_group_shm,
    worker_simulate_unit,
    worker_simulate_unit_shm,
    worker_exchange_partition,
    worker_cluster_node_sort,
    worker_eval_latency,
    worker_eval_throughput,
    worker_bench_scenario,
)

__all__ = [
    "ShmArrays",
    "WORKER_ENTRIES",
    "worker_bench_scenario",
    "worker_cluster_node_sort",
    "worker_eval_latency",
    "worker_eval_throughput",
    "worker_exchange_partition",
    "worker_merge_group",
    "worker_simulate_group",
    "worker_simulate_group_shm",
    "worker_simulate_unit",
    "worker_simulate_unit_shm",
    "worker_sort_partition",
]
