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
:mod:`repro.parallel.shm` descriptors instead of pickles.  An entry maps
its task's blocks through :meth:`~repro.parallel.shm.Arena.attach`, so a
warm worker reuses its mappings from one task to the next.

A cluster sort has one entry, :func:`worker_cluster_node`: each node
pulls its key range from the packed input and sorts it in the same
task, so the whole sort costs one pool round trip.  Entries carry no
fault-injection hooks: the straggler tests wrap an entry in their own
module and patch the wrapper in.
"""

from __future__ import annotations

from repro.parallel.shm import ARENA, ShmArrays, view_array


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
    in_block, out_block = ARENA.attach(in_desc, out_desc)
    output, cycles, stages = sort_unit(
        view_array(in_desc, index, in_block).copy(), max_cycles, **shape
    )
    view_array(out_desc, index, out_block)[:] = output
    return (cycles, stages)


# ----------------------------------------------------------------------
# cluster nodes: pull + sort (distributed/executor.py)
# ----------------------------------------------------------------------
def worker_cluster_node(task: tuple) -> tuple:
    """Pull one node's key range from the packed input and sort it.

    ``task = (in_desc, out_desc, receiver, lo, hi, config, hardware,
    arch, presort_run, mode)`` — node ``receiver`` owns the keys in
    ``[lo, hi)`` (``None`` leaves an end open).  It takes them from
    every sender slot of the input block
    (:func:`~repro.distributed.exchange.pull_partition`), sorts them
    through a single-tree :class:`AmtSorter`, and writes the sorted
    partition at ``[offset, offset + len)`` of the one output slot,
    where ``offset`` counts the keys below ``lo``.  Returns
    ``(receiver, model_seconds, stages, counts)``, ``counts`` holding
    the keys taken from each sender; the parent assembles them into a
    :class:`~repro.distributed.exchange.ShuffleLayout`.
    """
    from repro.distributed.exchange import pull_partition
    from repro.engine.sorter import AmtSorter
    from repro.obs.runtime import observation

    (
        in_desc, out_desc, receiver, lo, hi,
        config, hardware, arch, presort_run, mode,
    ) = task
    in_block, out_block = ARENA.attach(in_desc, out_desc)
    # The slot views are temporaries: none may outlive the task.
    data, offset, counts = pull_partition(
        [view_array(in_desc, s, in_block) for s in range(len(in_desc.lengths))],
        lo, hi,
    )
    sorter = AmtSorter(
        config=config, hardware=hardware, arch=arch,
        presort_run=presort_run, mode=mode,
    )
    outcome = sorter.sort(data)
    view_array(out_desc, 0, out_block)[offset : offset + data.size] = outcome.data
    observation().count("cluster.node_records", int(data.size))
    return (receiver, float(outcome.seconds), int(outcome.stages), counts)


#: Names re-exported for the ``worker-entry`` check's allow-list tests.
WORKER_ENTRIES = (
    worker_simulate_unit_shm,
    worker_cluster_node,
)

__all__ = [
    "ShmArrays",
    "WORKER_ENTRIES",
    "worker_cluster_node",
    "worker_simulate_unit_shm",
]
