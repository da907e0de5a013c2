"""JobQueue admission control, ordering and drain semantics.

The queue is loop-thread-only, so every test drives it from inside one
``asyncio.run`` — no plugin dependency, no cross-thread access.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ServeError
from repro.serve import JobQueue


def run(coro):
    return asyncio.run(coro)


class TestConstruction:
    def test_bad_depth_and_quota_are_refused(self):
        with pytest.raises(ServeError, match="depth"):
            run(self._build(depth=0))
        with pytest.raises(ServeError, match="quota"):
            run(self._build(client_quota=0))

    @staticmethod
    async def _build(depth: int = 4, client_quota: int = 4) -> JobQueue:
        return JobQueue(depth=depth, client_quota=client_quota)


class TestAdmission:
    def test_overloaded_past_depth(self):
        async def scenario():
            queue = JobQueue(depth=2, client_quota=10)
            assert queue.submit("a", "j1") is None
            assert queue.submit("b", "j2") is None
            assert queue.submit("c", "j3") == "overloaded"
            return queue.stats()

        stats = run(scenario())
        assert stats["admitted"] == 2
        assert stats["rejected_overloaded"] == 1

    def test_quota_per_client_counts_queued_plus_running(self):
        async def scenario():
            queue = JobQueue(depth=10, client_quota=2)
            assert queue.submit("greedy", "j1") is None
            assert queue.submit("greedy", "j2") is None
            assert queue.submit("greedy", "j3") == "quota"
            # Another client is unaffected by greedy's refusals.
            assert queue.submit("polite", "j4") is None
            # Taking a job keeps it *running*, still held against quota.
            taken = await queue.take()
            assert queue.submit("greedy", "j5") == "quota"
            # Completion releases the slot.
            queue.done(taken)
            assert queue.submit("greedy", "j6") is None
            return queue.stats()

        stats = run(scenario())
        assert stats["rejected_quota"] == 2

    def test_draining_refuses_everything_first(self):
        async def scenario():
            queue = JobQueue(depth=1, client_quota=1)
            assert queue.submit("a", "j1") is None
            await queue.begin_drain()
            # Full queue AND exhausted quota: draining still wins.
            return queue.submit("a", "j2"), queue.stats()

        reason, stats = run(scenario())
        assert reason == "draining"
        assert stats["rejected_draining"] == 1
        assert stats["draining"] is True


class TestOrdering:
    def test_priority_then_admission_order(self):
        async def scenario():
            queue = JobQueue(depth=10, client_quota=10)
            queue.submit("a", "late-low", priority=5)
            queue.submit("a", "first-normal", priority=0)
            queue.submit("a", "second-normal", priority=0)
            queue.submit("a", "urgent", priority=-1)
            return [(await queue.take()).payload for _ in range(4)]

        assert run(scenario()) == [
            "urgent", "first-normal", "second-normal", "late-low",
        ]


class TestDrain:
    def test_empty_take_only_when_draining_and_empty(self):
        async def scenario():
            queue = JobQueue()
            queue.submit("a", "j1")
            await queue.begin_drain()
            assert (await queue.take()).payload == "j1"
            # Drained and empty: the dispatcher's exit signal.
            return await queue.take()

        assert run(scenario()) is None

    def test_wait_drained_blocks_until_running_work_finishes(self):
        async def scenario():
            queue = JobQueue()
            queue.submit("a", "j1")
            taken = await queue.take()
            await queue.begin_drain()
            waiter = asyncio.ensure_future(queue.wait_drained())
            await asyncio.sleep(0)
            assert not waiter.done()
            queue.done(taken)
            await queue.settle()
            await asyncio.wait_for(waiter, timeout=5)
            return queue.stats()

        stats = run(scenario())
        assert stats["completed"] == 1
        assert stats["queued"] == 0 and stats["running"] == 0
