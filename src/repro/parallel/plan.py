"""The parallel execution plan: one policy object for every sharded loop.

Every unit of work the reproduction shards — the λ_unrl units of an
unrolled simulation and the nodes of a cluster sort — goes through one
entry point, :meth:`ParallelPlan.map`.  The
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

Process maps share one **warm set** per process: one fork
``ProcessPoolExecutor``, reused while the worker count a map wants stays
the same (another count replaces it), and the shared-memory
:class:`~repro.parallel.shm.Arena` that sharded calls take through
:func:`lease`.  A warm pool skips the fork and the parent's
copy-on-write faults that follow each one; a warm arena skips creating
and faulting fresh segments.  The set releases itself — workers stopped,
blocks unlinked — :data:`IDLE_SECONDS` after its last use, at once after
any failure, and at interpreter exit, so no process or segment outlives
the run even when nobody closes it.  A serial plan never touches it.

Worker failure is not fatal: a task whose worker crashed or raised is
recomputed serially in the parent, so a flaky pool can slow a run down
but can never change its output or kill it.  A map that lost a task
kills its workers before it returns, so a stalled worker never outlives
it, and the next map starts a fresh pool.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, TypeVar

from repro.errors import ConfigurationError
from repro.obs.runtime import (
    DISABLED,
    ObsTaskContext,
    absorb,
    activated,
    observation,
    task_context,
    worker_observation,
    worker_payload,
)
from repro.parallel.shm import ARENA, Arena

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
        # A warm worker may have been forked under an observation the
        # parent has since left: run untraced, as the parent is.
        with activated(DISABLED):
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


#: Seconds the warm pool and arena outlive their last use.  Long enough
#: to bridge back-to-back sorts, short enough that a caller reaping its
#: children (or exiting) never waits on an idle pool for long.
IDLE_SECONDS = 0.5


class _WarmSet:
    """This process's one worker pool and its arena's lifetime.

    Every process map and every :func:`lease` runs inside :meth:`held`,
    under one reentrant lock: concurrent callers take turns, and a lease
    nests the map it makes.  When the last holder lets go the set arms
    an idle timer, or releases at once after a failure and in a pool
    worker (which exits without running ``atexit``).
    """

    def __init__(self) -> None:
        self.inherited: ProcessPoolExecutor | None = None
        self._start()

    def _start(self) -> None:
        self.lock = threading.RLock()
        self.executor: ProcessPoolExecutor | None = None
        self.workers = 0
        self.users = 0
        self.failed = False
        self.timer: threading.Timer | None = None

    def after_fork_in_child(self) -> None:
        """A forked child owns none of its parent's set.

        The parent's executor object stays referenced: freeing it would
        run its weakref callback, which takes the executor's shutdown
        lock (the fork copied it held, mid-``submit``) and writes to the
        parent's wakeup pipe.
        """
        self.inherited = self.executor
        self._start()

    @contextmanager
    def held(self) -> Iterator["_WarmSet"]:
        with self.lock:
            if self.timer is not None:
                self.timer.cancel()
                self.timer = None
            self.users += 1
            returned = False
            try:
                yield self
                returned = True
            finally:
                self.failed |= not returned
                self.users -= 1
                if self.users == 0:
                    if self.failed or multiprocessing.current_process().daemon:
                        self.release()
                    else:
                        self.timer = threading.Timer(IDLE_SECONDS, self._idle)
                        self.timer.daemon = True
                        self.timer.start()

    def pool(self, workers: int) -> ProcessPoolExecutor:
        """The warm pool of ``workers`` processes, started if need be.

        A pool whose worker died while it sat idle is marked broken (a
        private flag, as with ``_processes`` in :func:`_kill_workers`)
        and would refuse every submission, so it is replaced too.
        """
        if self.executor is not None and (
            self.workers != workers or self.executor._broken
        ):
            self._stop_pool()
        if self.executor is None:
            self.executor = ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context("fork")
            )
            self.workers = workers
            observation().count("parallel.pool_starts", workers=workers)
        return self.executor

    def discard(self) -> None:
        """Kill the pool after a lost task; the arena follows on release."""
        if self.executor is not None:
            _kill_workers(self.executor)
        self._stop_pool()
        self.failed = True

    def release(self) -> None:
        """Unlink the arena's blocks and stop the pool's workers."""
        with self.lock:
            ARENA.release()
            self._stop_pool()
            self.failed = False

    def _stop_pool(self) -> None:
        executor, self.executor = self.executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def _idle(self) -> None:
        with self.lock:
            # A holder that came and went since this timer was armed
            # cancelled it or armed a newer one.
            if self.timer is threading.current_thread() and self.users == 0:
                self.timer = None
                self.release()


_WARM = _WarmSet()
os.register_at_fork(after_in_child=_WARM.after_fork_in_child)
atexit.register(_WARM.release)


@contextmanager
def lease() -> Iterator[Arena]:
    """Hold the process's shared-memory arena for one sharded call.

    The arena's blocks are the caller's until the ``with`` block exits,
    and views taken from them must not outlive it.  Take a lease in a
    ``with`` statement (``bonsai check``'s ``proc-shm-lifetime`` rule
    enforces it): an exception inside the block then releases the warm
    set at once instead of leaving the arena held.
    """
    with _WARM.held():
        yield ARENA


@dataclass(frozen=True)
class ParallelPlan:
    """How to execute a list of independent tasks.

    Parameters
    ----------
    jobs:
        Worker count, or ``"auto"`` for the machine's CPU count; 1 (the
        default) runs a plain loop in the parent.
    """

    jobs: int | str = 1

    def __post_init__(self) -> None:
        if isinstance(self.jobs, str):
            if self.jobs != "auto":
                raise ConfigurationError(
                    f"jobs must be a positive int or 'auto', got {self.jobs!r}"
                )
        elif self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")

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
        fails is recomputed serially in the parent, so the result is
        independent of how the pool behaved.
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
        with _WARM.held() as warm:
            executor = warm.pool(workers)
            clean = False
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
                    lost = False
                    for index, future in enumerate(futures):
                        try:
                            results[index], payload = future.result()
                        except Exception:  # bonsai-lint: disable=exn-broad-fallback -- the serial recompute re-raises any real task error in the parent with a clean traceback, so nothing is masked
                            # Worker crash (BrokenProcessPool), unpicklable
                            # result, or the task's own deterministic error:
                            # recompute serially — a real error raises again
                            # here, in the parent, with a clean traceback.
                            # The recompute runs under the parent's own
                            # observation, so the lost task's metrics are
                            # still counted exactly once.
                            lost = True
                            obs.count("parallel.recomputed_chunks")
                            results[index] = fn(tasks[index])
                        else:
                            if payload is not None:
                                absorb(payload)
                    clean = not lost
            finally:
                if not clean:
                    warm.discard()
        return results
