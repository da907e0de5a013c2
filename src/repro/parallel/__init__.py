"""Process-pool execution layer for independent merges, trees and sweeps.

The paper's performance story is built on *independent* units of work —
λ_unrl trees over disjoint partitions, the nodes of a cluster sort,
per-configuration optimizer evaluations — and this package runs them
side by side on host cores without changing a single result.  A single
tree's merge groups are never split apart: in simulate mode they share
one simulated pipeline, and in model mode a whole stage is one in-place
row sort of one buffer, which no pool dispatch could beat:

* :class:`ParallelPlan` is the one policy object (worker count,
  chunking, per-task timeout with serial fallback) and its
  :meth:`~ParallelPlan.map` the one execution entry point;
* :mod:`repro.parallel.shm` ships numpy arrays through POSIX shared
  memory instead of pickles;
* :mod:`repro.parallel.workers` holds the module-level, import-pure
  worker entries (enforced by ``bonsai check``'s ``worker-entry`` rule);
* :mod:`repro.parallel.api` reproduces each serial hot loop with an
  order-stable sharded equivalent.

Determinism contract: same task list + same worker function +
order-stable reduction ⇒ bit-identical results for every ``jobs``
setting, plan-less included, pinned by the differential suite in
``tests/parallel``.
"""

from repro.parallel.plan import ParallelPlan, available_cpus
from repro.parallel.shm import ShmArrays

__all__ = ["ParallelPlan", "ShmArrays", "available_cpus"]
