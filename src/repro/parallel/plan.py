"""The parallel execution plan: one policy object for every sharded loop.

Every unit of work the reproduction shards — the λ_unrl units of an
unrolled simulation, the nodes of a cluster sort, a batch of served
jobs — goes through one entry point, :meth:`ParallelPlan.map`.  The
plan decides *how* the map runs (a process pool or a plain loop); it
never changes *what* is computed, so results are bit-identical across
every ``jobs`` setting by construction: the same module-level worker
function is applied to the same task list in the same order, and the
reduction is order-stable (results land at their task's index, never in
completion order).  Each task is one pool submission: every map here
has a handful of tasks, each far heavier than its pickling.

The map runs as a plain loop in the parent when any of these hold:

* ``jobs`` resolves to 1 (the default ``ParallelPlan()``), or there are
  fewer than two tasks;
* the platform cannot ``fork`` (process workers would re-import the
  world per task under ``spawn``, which costs more than it saves for
  our task sizes);
* the current process is itself a pool worker (no nested pools).

Worker failure is not fatal: a crashed or timed-out task is recomputed
serially in the parent, so a flaky pool can slow a run down but can
never change its output or kill it.  A map that lost a task kills its
workers before it returns, so a stalled worker never outlives it.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from repro.errors import ConfigurationError
from repro.obs.runtime import (
    ObsTaskContext,
    absorb,
    activated,
    observation,
    task_context,
    worker_observation,
    worker_payload,
)

Task = TypeVar("Task")
Result = TypeVar("Result")

#: ``jobs="auto"`` resolves to the machine's CPU count via this function
#: (isolated for tests to monkeypatch).
def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _call_task(
    fn: Callable, task: object, obs_ctx: ObsTaskContext | None = None
) -> tuple[object, dict | None]:
    """Pool-side trampoline: apply ``fn`` to one task.

    When the parent shipped an observation context, the task runs under
    a fresh buffering observation whose metrics snapshot and span events
    ride back with the result (the second tuple element); the parent
    absorbs them, so instrumented counters are identical to a serial run
    by construction.
    """
    if obs_ctx is None:
        return fn(task), None
    worker = worker_observation(obs_ctx)
    with activated(worker):
        with worker.span("parallel.chunk"):
            result = fn(task)
    return result, worker_payload(worker)


def _kill_workers(executor: ProcessPoolExecutor) -> None:
    """SIGKILL every worker process of ``executor``.

    ``ProcessPoolExecutor`` has no public way to stop a running task
    before Python 3.14, so this reads its process table.  The pool's
    manager thread sees the deaths and joins the processes, which
    ``shutdown(wait=True)`` then waits for.
    """
    for process in list((executor._processes or {}).values()):
        process.kill()


@dataclass(frozen=True)
class ParallelPlan:
    """How to execute a list of independent tasks.

    Parameters
    ----------
    jobs:
        Worker count, or ``"auto"`` for the machine's CPU count; 1 (the
        default) runs a plain loop in the parent.
    task_timeout:
        Optional seconds to wait for each task's result before it is
        declared lost and recomputed serially in the parent.  ``None``
        waits forever.
    """

    jobs: int | str = 1
    task_timeout: float | None = None

    def __post_init__(self) -> None:
        if isinstance(self.jobs, str):
            if self.jobs != "auto":
                raise ConfigurationError(
                    f"jobs must be a positive int or 'auto', got {self.jobs!r}"
                )
        elif self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be positive, got {self.task_timeout}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_jobs(cls, jobs: int | str | None) -> "ParallelPlan":
        """CLI adapter: ``None`` (no ``--jobs``) is the serial default."""
        return cls() if jobs is None else cls(jobs=jobs)

    # ------------------------------------------------------------------
    def resolve_jobs(self) -> int:
        """The concrete worker count ``jobs`` stands for."""
        if self.jobs == "auto":
            return available_cpus()
        return int(self.jobs)

    def wants_processes(self, n_tasks: int) -> bool:
        """True when this map should actually shard across a pool."""
        return (
            n_tasks > 1
            and self.resolve_jobs() > 1
            and "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon
        )

    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Task], Result], tasks: Sequence[Task]) -> list[Result]:
        """Order-stable ``[fn(t) for t in tasks]``, possibly sharded.

        ``fn`` must be a module-level function (process workers import
        it by qualified name) and every task must be picklable.  The
        returned list is always in task order; a task whose worker
        fails or overruns ``task_timeout`` is recomputed serially in the
        parent, so the result is independent of how the pool behaved.
        """
        tasks = list(tasks)
        obs = observation()
        if not self.wants_processes(len(tasks)):
            obs.count("parallel.maps", mode="serial")
            return [fn(task) for task in tasks]
        obs.count("parallel.maps", mode="pool")
        obs.count("parallel.tasks", len(tasks))
        results: list = [None] * len(tasks)
        workers = min(self.resolve_jobs(), len(tasks))
        executor = ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("fork")
        )
        lost = False
        try:
            with obs.span("parallel.map", tasks=len(tasks), workers=workers):
                # Captured inside the span so worker span trees hang off
                # the dispatch span that actually ran them.
                ctx = task_context()
                futures = [
                    executor.submit(
                        _call_task, fn, task,
                        None if ctx is None else ctx.for_chunk(index),
                    )
                    for index, task in enumerate(tasks)
                ]
                for index, future in enumerate(futures):
                    try:
                        results[index], payload = future.result(
                            timeout=self.task_timeout
                        )
                    except FutureTimeoutError:
                        future.cancel()
                        lost = True
                        # Recomputed in the parent under the parent's own
                        # observation, so the lost task's metrics are
                        # still counted exactly once.
                        obs.count("parallel.recomputed_chunks")
                        results[index] = fn(tasks[index])
                    except Exception:  # bonsai-lint: disable=exn-broad-fallback -- the serial recompute re-raises any real task error in the parent with a clean traceback, so nothing is masked
                        # Worker crash (BrokenProcessPool), unpicklable
                        # result, or the task's own deterministic error:
                        # recompute serially — a real error raises again
                        # here, in the parent, with a clean traceback.
                        lost = True
                        obs.count("parallel.recomputed_chunks")
                        results[index] = fn(tasks[index])
                    else:
                        if payload is not None:
                            absorb(payload)
        finally:
            if lost:
                _kill_workers(executor)
            executor.shutdown(wait=lost, cancel_futures=True)
        return results
