"""ParallelPlan policy: validation, fallback, worker cleanup, order stability."""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.errors import ConfigurationError
from repro.parallel import ParallelPlan, available_cpus
from repro.parallel import plan as plan_module
from repro.parallel.workers import WORKER_ENTRIES

# Module-level so process workers can import them by qualified name.
def _square(task):
    return task * task


def _flaky_boom(task):
    if task == 3:
        raise ConfigurationError("task three always fails")
    return task


def _slow(task):
    time.sleep(task)
    return task


def _stall_in_worker(task):
    # Sleeps only inside a pool worker: the parent's recompute is instant.
    if multiprocessing.parent_process() is not None:
        time.sleep(task)
    return task


class TestValidation:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            ParallelPlan(jobs=0)
        with pytest.raises(ConfigurationError, match="jobs"):
            ParallelPlan(jobs="many")

    def test_rejects_bad_timeout(self):
        with pytest.raises(ConfigurationError, match="task_timeout"):
            ParallelPlan(task_timeout=0)

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

    def test_timeout_falls_back_to_serial_recompute(self):
        # Sleepy tasks behind a tiny budget: tasks time out and the
        # parent recomputes serially — results must still be right.
        plan = ParallelPlan(jobs=2, task_timeout=0.05)
        assert plan.map(_slow, [0.2, 0.3]) == [0.2, 0.3]

    def test_timed_out_worker_does_not_outlive_the_map(self):
        # The worker stuck on the 30 s task is killed before map
        # returns, so it cannot hold the process open at exit.
        plan = ParallelPlan(jobs=2, task_timeout=0.3)
        started = time.perf_counter()
        assert plan.map(_stall_in_worker, [0.0, 30.0, 0.0]) == [0.0, 30.0, 0.0]
        assert time.perf_counter() - started < 10.0
        assert multiprocessing.active_children() == []

    def test_lambda_fails_under_processes(self):
        # Worker functions must be module-level; a lambda cannot be
        # pickled by reference, and the parent's serial fallback is what
        # keeps the answer correct.
        plan = ParallelPlan(jobs=2)
        assert plan.map(lambda t: t + 1, [1, 2, 3]) == [2, 3, 4]


class TestWorkerEntryHygiene:
    def test_entries_are_module_level_and_named(self):
        for entry in WORKER_ENTRIES:
            assert entry.__module__ == "repro.parallel.workers"
            assert entry.__qualname__ == entry.__name__  # not nested
            assert entry.__name__.startswith("worker_")
