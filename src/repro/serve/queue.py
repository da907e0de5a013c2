"""Admission-controlled priority queue for the serve daemon.

The queue is the daemon's backpressure valve.  Admission happens
synchronously at submit time — a job is either queued or refused with a
machine-readable reason, never silently dropped or blocked on:

* ``overloaded`` — the bounded queue is full.  Depth bounds worst-case
  latency: a client that gets ``ok`` knows its job is at most
  ``depth + running`` jobs from the front.
* ``quota`` — the submitting client already holds its fair share of
  queued-plus-running slots.  One greedy client saturating the queue
  would otherwise starve everyone behind a FIFO; the quota keeps the
  refusals pointed at the client causing them.
* ``draining`` — the daemon is shutting down (SIGTERM received); only
  already-admitted work will run.

Ordering is ``(priority, admission seq)``: smaller priority first, FIFO
within a priority.  The seq tiebreak also keeps heap order total, so
ordering never depends on comparing job payloads.

The queue is a plain data structure guarded by an ``asyncio.Condition``
— all methods must run on the server's event loop.  Worker *processes*
never see it; they receive already-dequeued job tuples.
"""

from __future__ import annotations

import asyncio
import heapq
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ServeError


@dataclass(frozen=True)
class QueuedJob:
    """One admitted job, carrying its submission context."""

    priority: int
    seq: int
    client: str
    payload: Any = field(compare=False)

    def order_key(self) -> tuple[int, int]:
        return (self.priority, self.seq)


class JobQueue:
    """Bounded priority queue with per-client fairness quotas."""

    def __init__(self, depth: int = 64, client_quota: int = 16) -> None:
        if depth < 1:
            raise ServeError(f"queue depth must be >= 1, got {depth}")
        if client_quota < 1:
            raise ServeError(f"client quota must be >= 1, got {client_quota}")
        self.depth = depth
        self.client_quota = client_quota
        self._heap: list[tuple[tuple[int, int], QueuedJob]] = []
        self._seq = 0
        self._held: dict[str, int] = {}  # client -> queued + running
        self._running = 0
        self._draining = False
        self._ready = asyncio.Condition()
        self._counts = {"admitted": 0, "completed": 0,
                        "rejected_overloaded": 0, "rejected_quota": 0,
                        "rejected_draining": 0}

    # -- submit side ---------------------------------------------------
    def submit(self, client: str, payload, priority: int = 0) -> str | None:
        """Try to admit a job; returns a refusal reason or ``None``.

        Synchronous by design: admission never waits, so the server can
        answer a flooding client with ``rejected`` instead of buffering
        unbounded work.  Call :meth:`kick` afterwards to wake the
        dispatcher (kept separate so a pipelined batch admits wholly
        before the dispatcher runs).
        """
        if self._draining:
            self._counts["rejected_draining"] += 1
            return "draining"
        if len(self._heap) >= self.depth:
            self._counts["rejected_overloaded"] += 1
            return "overloaded"
        if self._held.get(client, 0) >= self.client_quota:
            self._counts["rejected_quota"] += 1
            return "quota"
        job = QueuedJob(
            priority=priority, seq=self._seq, client=client, payload=payload
        )
        self._seq += 1
        heapq.heappush(self._heap, (job.order_key(), job))
        self._held[client] = self._held.get(client, 0) + 1
        self._counts["admitted"] += 1
        return None

    async def kick(self) -> None:
        """Wake the dispatcher after one or more :meth:`submit` calls."""
        async with self._ready:
            self._ready.notify_all()

    # -- dispatch side -------------------------------------------------
    async def take(self) -> QueuedJob | None:
        """Wait for work; returns the first job in priority order.

        Returns ``None`` only when the queue is draining *and* empty —
        the dispatcher's signal to exit its loop.
        """
        async with self._ready:
            await self._ready.wait_for(lambda: self._heap or self._draining)
            if not self._heap:
                return None
            _key, job = heapq.heappop(self._heap)
            self._running += 1
            return job

    def done(self, job: QueuedJob) -> None:
        """Mark one taken job finished, releasing its client's slot."""
        self._running -= 1
        held = self._held.get(job.client, 0) - 1
        if held > 0:
            self._held[job.client] = held
        else:
            self._held.pop(job.client, None)
        self._counts["completed"] += 1

    # -- lifecycle -----------------------------------------------------
    async def begin_drain(self) -> None:
        """Refuse new work; queued and running jobs still complete."""
        self._draining = True
        async with self._ready:
            self._ready.notify_all()

    @property
    def draining(self) -> bool:
        return self._draining

    async def wait_drained(self) -> None:
        """Block until draining and no job is queued or running."""
        async with self._ready:
            await self._ready.wait_for(
                lambda: self._draining and not self._heap and not self._running
            )

    async def settle(self) -> None:
        """Wake any :meth:`wait_drained` waiters after :meth:`done` calls."""
        async with self._ready:
            self._ready.notify_all()

    def stats(self) -> dict:
        """A JSON-shaped snapshot (the ``stats`` control response)."""
        return {
            "depth": self.depth,
            "client_quota": self.client_quota,
            "queued": len(self._heap),
            "running": self._running,
            "clients": len(self._held),
            "draining": self._draining,
            **self._counts,
        }
