"""Bounded FIFOs with stall semantics (§V-A).

"Each leaf has an input buffer that is implemented as a FIFO, which is as
wide as the DRAM bus (512 bits) and can hold two full read batches."

Capacity is measured in stream items (tuples or terminal markers).  A push
into a full FIFO raises :class:`~repro.errors.SimulationError` — producers
are expected to check :attr:`has_space` first, which is exactly the stall
behaviour of the hardware handshake.

Besides the per-item handshake the FIFO exposes a bulk surface —
:meth:`push_many`, :meth:`pop_many` and :meth:`peek_many` — for components
that move whole batches in one cycle (the data loader's burst delivery and
the output writer's credit-bounded drain).  Bulk calls are strictly
equivalent to the corresponding sequence of single-item calls: same
ordering, same statistics, same overflow/underflow errors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import SimulationError


@dataclass(slots=True)
class Fifo:
    """A bounded first-in-first-out queue between two components.

    Parameters
    ----------
    capacity:
        Maximum number of items held (tuples or terminal markers).
    name:
        Label used in statistics and error messages.
    """

    capacity: int
    name: str = "fifo"
    _items: deque = field(default_factory=deque, repr=False)
    #: statistics
    pushes: int = 0
    pops: int = 0
    high_water: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise SimulationError(f"FIFO capacity must be >= 1, got {self.capacity}")

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        """True when nothing is queued."""
        return not self._items

    @property
    def is_full(self) -> bool:
        """True when at capacity; a push now would raise."""
        return len(self._items) >= self.capacity

    @property
    def has_space(self) -> bool:
        """True when at least one more item fits."""
        return len(self._items) < self.capacity

    def free_slots(self) -> int:
        """Number of additional items the FIFO can accept."""
        return self.capacity - len(self._items)

    def push(self, item: object) -> None:
        """Enqueue one item; raises when full (producer missed a stall)."""
        items = self._items
        if len(items) >= self.capacity:
            raise SimulationError(f"push into full FIFO {self.name!r}")
        items.append(item)
        self.pushes += 1
        if len(items) > self.high_water:
            self.high_water = len(items)

    def push_many(self, batch: list) -> None:
        """Enqueue a sequence of items in order; raises when they overflow.

        Equivalent to ``for item in batch: self.push(item)`` but with one
        capacity check and one statistics update.  Either the whole batch
        fits or nothing is enqueued.
        """
        items = self._items
        if len(items) + len(batch) > self.capacity:
            raise SimulationError(
                f"push of {len(batch)} items overflows FIFO {self.name!r} "
                f"({self.capacity - len(items)} slots free)"
            )
        items.extend(batch)
        self.pushes += len(batch)
        if len(items) > self.high_water:
            self.high_water = len(items)

    def peek(self) -> object:
        """The oldest item without removing it; raises when empty."""
        if not self._items:
            raise SimulationError(f"peek into empty FIFO {self.name!r}")
        return self._items[0]

    def peek_many(self, limit: int) -> list:
        """The oldest ``limit`` items (or fewer) without removing them."""
        if limit < 0:
            raise SimulationError(f"peek_many limit must be >= 0, got {limit}")
        items = self._items
        if limit >= len(items):
            return list(items)
        return [items[index] for index in range(limit)]

    def pop(self) -> object:
        """Dequeue the oldest item; raises when empty."""
        if not self._items:
            raise SimulationError(f"pop from empty FIFO {self.name!r}")
        self.pops += 1
        return self._items.popleft()

    def pop_many(self, count: int) -> list:
        """Dequeue the oldest ``count`` items in order; raises on underflow.

        Equivalent to ``[self.pop() for _ in range(count)]``: either all
        ``count`` items are returned or nothing is dequeued.
        """
        items = self._items
        if count < 0 or count > len(items):
            raise SimulationError(
                f"pop of {count} items from FIFO {self.name!r} "
                f"holding {len(items)}"
            )
        popleft = items.popleft
        out = [popleft() for _ in range(count)]
        self.pops += count
        return out

    def drain(self) -> list:
        """Remove and return all items (used when tearing a stage down)."""
        out = list(self._items)
        self.pops += len(out)
        self._items.clear()
        return out
