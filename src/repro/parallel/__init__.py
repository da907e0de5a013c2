"""Process-pool execution layer for independent simulated units and nodes.

The paper's performance story is built on *independent* units of work —
λ_unrl trees over disjoint address ranges, the nodes of a cluster sort —
and this package runs the ones that outweigh a pool round trip side by
side on host cores without changing a single result: unrolled
*simulation* units, cluster nodes and served job batches.  Model-mode unrolled partitions and optimizer rankings stay in
the parent, because their pool round trip costs more than the work.  A
single tree's merge groups are never split apart: in simulate mode they
share one simulated pipeline, and in model mode a whole stage is one
in-place row sort of one buffer, which no pool dispatch could beat:

* :class:`ParallelPlan` is the one policy object (a worker count;
  ``ParallelPlan()`` is serial, and a lost task is recomputed in the
  parent) and its :meth:`~ParallelPlan.map` the one execution entry
  point, one pool submission per task, on the process's one warm
  worker pool;
* :mod:`repro.parallel.shm` ships numpy arrays through POSIX shared
  memory instead of pickles, from one reused arena per process
  (:func:`~repro.parallel.plan.lease`);
* :mod:`repro.parallel.workers` holds the module-level, import-pure
  worker entries (enforced by ``bonsai check``'s ``worker-entry`` rule);
* :mod:`repro.parallel.api` reproduces the unrolled simulator's unit
  loop with an order-stable sharded equivalent.

Determinism contract: same task list + same worker function +
order-stable reduction ⇒ bit-identical results for every ``jobs``
setting, pinned by the differential suite in ``tests/parallel``.
"""

from repro.parallel.plan import ParallelPlan, available_cpus
from repro.parallel.shm import ShmArrays

__all__ = ["ParallelPlan", "ShmArrays", "available_cpus"]
