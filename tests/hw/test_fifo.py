"""Bounded FIFO semantics."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.hw.fifo import Fifo


class TestBasics:
    def test_fifo_order(self):
        fifo = Fifo(capacity=4)
        for item in (1, 2, 3):
            fifo.push(item)
        assert [fifo.pop() for _ in range(3)] == [1, 2, 3]

    def test_peek_does_not_remove(self):
        fifo = Fifo(capacity=2)
        fifo.push("a")
        assert fifo.peek() == "a"
        assert len(fifo) == 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(SimulationError):
            Fifo(capacity=0)


class TestStallSemantics:
    def test_push_full_raises(self):
        fifo = Fifo(capacity=1)
        fifo.push(1)
        assert fifo.is_full
        with pytest.raises(SimulationError, match="full"):
            fifo.push(2)

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError, match="empty"):
            Fifo(capacity=1).pop()

    def test_peek_empty_raises(self):
        with pytest.raises(SimulationError, match="empty"):
            Fifo(capacity=1).peek()

    def test_has_space_and_free_slots(self):
        fifo = Fifo(capacity=3)
        assert fifo.free_slots() == 3
        fifo.push(1)
        fifo.push(2)
        assert fifo.free_slots() == 1
        assert fifo.has_space
        fifo.push(3)
        assert not fifo.has_space


class TestBulkOperations:
    """push_many/pop_many/peek_many == the equivalent single-item loop."""

    def test_push_many_preserves_order_and_stats(self):
        fifo = Fifo(capacity=6)
        fifo.push(0)
        fifo.push_many([1, 2, 3])
        assert fifo.pushes == 4
        assert fifo.high_water == 4
        assert [fifo.pop() for _ in range(4)] == [0, 1, 2, 3]

    def test_push_many_all_or_nothing(self):
        fifo = Fifo(capacity=3)
        fifo.push(0)
        with pytest.raises(SimulationError, match="overflows"):
            fifo.push_many([1, 2, 3])
        assert len(fifo) == 1  # nothing was enqueued
        assert fifo.pushes == 1

    def test_push_many_empty_batch(self):
        fifo = Fifo(capacity=1)
        fifo.push_many([])
        assert fifo.is_empty and fifo.pushes == 0

    def test_pop_many_in_order(self):
        fifo = Fifo(capacity=8)
        fifo.push_many(list(range(5)))
        assert fifo.pop_many(3) == [0, 1, 2]
        assert fifo.pops == 3
        assert len(fifo) == 2

    def test_pop_many_underflow_raises(self):
        fifo = Fifo(capacity=4)
        fifo.push(1)
        with pytest.raises(SimulationError, match="pop of 2"):
            fifo.pop_many(2)
        assert len(fifo) == 1  # nothing was dequeued
        with pytest.raises(SimulationError):
            fifo.pop_many(-1)

    def test_peek_many_never_removes(self):
        fifo = Fifo(capacity=8)
        fifo.push_many([1, 2, 3])
        assert fifo.peek_many(2) == [1, 2]
        assert fifo.peek_many(9) == [1, 2, 3]
        assert fifo.peek_many(0) == []
        assert len(fifo) == 3 and fifo.pops == 0
        with pytest.raises(SimulationError):
            fifo.peek_many(-1)


class TestStatistics:
    def test_counters(self):
        fifo = Fifo(capacity=4)
        fifo.push(1)
        fifo.push(2)
        fifo.pop()
        assert fifo.pushes == 2
        assert fifo.pops == 1

    def test_high_water(self):
        fifo = Fifo(capacity=8)
        for i in range(5):
            fifo.push(i)
        for _ in range(5):
            fifo.pop()
        fifo.push(9)
        assert fifo.high_water == 5

    def test_drain(self):
        fifo = Fifo(capacity=4)
        fifo.push(1)
        fifo.push(2)
        assert fifo.drain() == [1, 2]
        assert fifo.is_empty
        assert fifo.pops == 2
