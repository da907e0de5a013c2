"""ParallelPlan policy: validation, chunking, fallback, order stability."""

from __future__ import annotations

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
    import time

    time.sleep(task)
    return task


class TestValidation:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            ParallelPlan(jobs=0)
        with pytest.raises(ConfigurationError, match="jobs"):
            ParallelPlan(jobs="many")

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ConfigurationError, match="chunk_size"):
            ParallelPlan(chunk_size=0)
        with pytest.raises(ConfigurationError, match="chunk_size"):
            ParallelPlan(chunk_size="huge")

    def test_rejects_bad_timeout(self):
        with pytest.raises(ConfigurationError, match="task_timeout"):
            ParallelPlan(task_timeout=0)

    def test_from_jobs_adapter(self):
        assert ParallelPlan.from_jobs(None) is None
        assert ParallelPlan.from_jobs(1) == ParallelPlan.serial()
        assert ParallelPlan.from_jobs(4).jobs == 4
        assert ParallelPlan.from_jobs("auto").jobs == "auto"


class TestResolution:
    def test_auto_resolves_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(plan_module, "available_cpus", lambda: 6)
        assert ParallelPlan(jobs="auto").resolve_jobs() == 6

    def test_available_cpus_positive(self):
        assert available_cpus() >= 1

    def test_serial_conditions(self):
        assert not ParallelPlan.serial().wants_processes(100)
        assert not ParallelPlan(jobs=1).wants_processes(100)
        assert not ParallelPlan(jobs=4).wants_processes(1)
        assert ParallelPlan(jobs=4).wants_processes(2)

    def test_chunks_cover_everything_in_order(self):
        for n_tasks in (0, 1, 5, 17, 100):
            for plan in (
                ParallelPlan(jobs=4),
                ParallelPlan(jobs=3, chunk_size=7),
                ParallelPlan(jobs="auto"),
            ):
                covered = [i for chunk in plan.chunks(n_tasks) for i in chunk]
                assert covered == list(range(n_tasks))


class TestMap:
    def test_order_stable_across_settings(self):
        tasks = list(range(23))
        expected = [t * t for t in tasks]
        for plan in (
            ParallelPlan.serial(),
            ParallelPlan(jobs=2),
            ParallelPlan(jobs=4, chunk_size=3),
            ParallelPlan(jobs="auto"),
        ):
            assert plan.map(_square, tasks) == expected

    def test_deterministic_task_error_reraises_in_parent(self):
        plan = ParallelPlan(jobs=2)
        with pytest.raises(ConfigurationError, match="task three"):
            plan.map(_flaky_boom, [1, 2, 3, 4])

    def test_timeout_falls_back_to_serial_recompute(self):
        # Sleepy tasks behind a tiny budget: chunks time out and the
        # parent recomputes serially — results must still be right.
        plan = ParallelPlan(jobs=2, chunk_size=1, task_timeout=0.05)
        assert plan.map(_slow, [0.2, 0.3]) == [0.2, 0.3]

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
