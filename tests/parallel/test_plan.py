"""ParallelPlan policy: validation, fallback, worker cleanup, order
stability, and the warm pool and arena's lifetime."""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs.runtime import activated, live_observation, observation
from repro.parallel import ParallelPlan, available_cpus
from repro.parallel import plan as plan_module
from repro.parallel.workers import WORKER_ENTRIES

ROOT = Path(__file__).resolve().parents[2]

# Module-level so process workers can import them by qualified name.
def _square(task):
    return task * task


def _flaky_boom(task):
    if task == 3:
        raise ConfigurationError("task three always fails")
    return task


def _pid(task):
    return os.getpid()


def _observed(task):
    return observation().enabled


def _kill_in_worker(task):
    # Task 1 kills its pool worker; the parent's recompute is clean.
    if task == 1 and multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return task


def _fail_or_stall(task):
    # A negative task fails everywhere; any other sleeps that many
    # seconds, but only inside a pool worker.
    if task < 0:
        raise ConfigurationError("negative tasks always fail")
    if multiprocessing.parent_process() is not None:
        time.sleep(task)
    return task


class TestValidation:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            ParallelPlan(jobs=0)
        with pytest.raises(ConfigurationError, match="jobs"):
            ParallelPlan(jobs="many")

    def test_from_jobs_adapter(self):
        assert ParallelPlan.from_jobs(None) == ParallelPlan()
        assert ParallelPlan.from_jobs(1) == ParallelPlan()
        assert ParallelPlan.from_jobs(4).jobs == 4
        assert ParallelPlan.from_jobs("auto").jobs == "auto"


class TestResolution:
    def test_auto_resolves_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(plan_module, "available_cpus", lambda: 6)
        assert ParallelPlan(jobs="auto").resolve_jobs() == 6

    def test_available_cpus_positive(self):
        assert available_cpus() >= 1

    def test_serial_conditions(self):
        assert not ParallelPlan().wants_processes(100)
        assert not ParallelPlan(jobs=4).wants_processes(1)
        assert ParallelPlan(jobs=4).wants_processes(2)


class TestMap:
    def test_order_stable_across_settings(self):
        tasks = list(range(23))
        expected = [t * t for t in tasks]
        for plan in (
            ParallelPlan(),
            ParallelPlan(jobs=2),
            ParallelPlan(jobs=4),
            ParallelPlan(jobs="auto"),
        ):
            assert plan.map(_square, tasks) == expected

    def test_deterministic_task_error_reraises_in_parent(self):
        plan = ParallelPlan(jobs=2)
        with pytest.raises(ConfigurationError, match="task three"):
            plan.map(_flaky_boom, [1, 2, 3, 4])

    def test_stalled_worker_does_not_outlive_a_failed_map(self):
        # Task 0's error re-raises from its recompute in the parent; the
        # worker stuck on the 30 s task is killed before the error
        # leaves map, so it cannot hold the process open at exit.
        plan = ParallelPlan(jobs=2)
        started = time.perf_counter()
        with pytest.raises(ConfigurationError, match="negative"):
            plan.map(_fail_or_stall, [-1.0, 30.0])
        assert time.perf_counter() - started < 10.0
        assert multiprocessing.active_children() == []

    def test_lambda_fails_under_processes(self):
        # Worker functions must be module-level; a lambda cannot be
        # pickled by reference, and the parent's serial fallback is what
        # keeps the answer correct.
        plan = ParallelPlan(jobs=2)
        assert plan.map(lambda t: t + 1, [1, 2, 3]) == [2, 3, 4]


def _warm_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


def _wait_until(condition, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


class TestWarmSet:
    def test_second_map_runs_in_the_same_workers(self):
        plan = ParallelPlan(jobs=2)
        plan.map(_pid, range(4))
        workers = _warm_pids()
        assert len(workers) == 2
        assert set(plan.map(_pid, range(4))) <= workers
        assert _warm_pids() == workers

    def test_another_worker_count_replaces_the_pool(self):
        ParallelPlan(jobs=2).map(_pid, range(4))
        two = _warm_pids()
        ParallelPlan(jobs=3).map(_pid, range(4))
        three = _warm_pids()
        assert len(three) == 3 and not three & two

    def test_pool_starts_count_forks_only(self):
        plan_module._WARM.release()
        live = live_observation()
        with activated(live):
            for _ in range(3):
                ParallelPlan(jobs=2).map(_pid, range(4))
        assert live.registry.counter_total("parallel.pool_starts") == 1
        assert live.registry.counter_value("parallel.maps", mode="pool") == 3

    def test_workers_forked_under_an_observation_do_not_keep_it(self):
        plan_module._WARM.release()
        with activated(live_observation()):
            ParallelPlan(jobs=2).map(_pid, range(4))
        assert ParallelPlan(jobs=2).map(_observed, range(4)) == [False] * 4

    @pytest.mark.parametrize("fault", ["kill", "error"])
    def test_lost_task_stops_the_pool_and_the_next_map_starts_fresh(self, fault):
        plan = ParallelPlan(jobs=2)
        plan.map(_pid, range(4))
        before = _warm_pids()
        if fault == "kill":
            assert plan.map(_kill_in_worker, range(4)) == [0, 1, 2, 3]
        else:
            with pytest.raises(ConfigurationError, match="task three"):
                plan.map(_flaky_boom, [1, 2, 3, 4])
        assert multiprocessing.active_children() == []
        after = set(plan.map(_pid, range(4)))
        assert after and not after & before

    def test_worker_killed_while_idle_does_not_fail_the_next_map(self):
        plan = ParallelPlan(jobs=2)
        plan.map(_pid, range(4))
        before = _warm_pids()
        os.kill(min(before), signal.SIGKILL)
        time.sleep(0.1)  # well inside IDLE_SECONDS: the pool is still warm
        assert plan.map(_square, range(4)) == [0, 1, 4, 9]
        assert not _warm_pids() & before

    def test_lost_task_releases_the_arena(self):
        with plan_module.lease() as arena:
            arena.pack([np.arange(16, dtype=np.uint64)])
            names = [block.name for block in arena.blocks.values()]
            ParallelPlan(jobs=2).map(_kill_in_worker, range(4))
        assert plan_module.ARENA.blocks == {}
        assert not any(Path("/dev/shm", name).exists() for name in names)

    def test_idle_set_releases_its_workers_and_blocks(self):
        with plan_module.lease() as arena:
            arena.pack([np.arange(16, dtype=np.uint64)])
            arena.layout([16], np.uint64)
            names = [block.name for block in arena.blocks.values()]
            assert ParallelPlan(jobs=2).map(_pid, range(4))
        assert multiprocessing.active_children()
        assert all(Path("/dev/shm", name).exists() for name in names)
        assert _wait_until(
            lambda: not multiprocessing.active_children(),
            plan_module.IDLE_SECONDS + 5.0,
        )
        assert not any(Path("/dev/shm", name).exists() for name in names)

    def test_a_reaper_of_children_does_not_wait_on_the_warm_pool(self):
        # The ledger joins every live child before it exits; an idle
        # warm pool must let go well before that join's 30 s timeout.
        script = (
            "import time\n"
            "from benchmarks.ledger.run import stop_children\n"
            "from repro.parallel import ParallelPlan\n"
            "assert ParallelPlan(jobs=2).map(abs, [-1, -2, -3, -4]) == [1, 2, 3, 4]\n"
            "started = time.perf_counter()\n"
            "stop_children()\n"
            "print(time.perf_counter() - started)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=60, cwd=ROOT, env=env,
        )
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 2.0
        assert "leaked" not in done.stderr


class TestWorkerEntryHygiene:
    def test_entries_are_module_level_and_named(self):
        for entry in WORKER_ENTRIES:
            assert entry.__module__ == "repro.parallel.workers"
            assert entry.__qualname__ == entry.__name__  # not nested
            assert entry.__name__.startswith("worker_")
