"""The k-coupler (§II, Fig. 1).

"In order to feed the output of a p/2-merger to the parent p-merger, a
p-coupler is used between tree levels to concatenate adjacent p/2-element
tuples into p-element tuples suitable for input into the parent p-merger."

The coupler consumes one half-width tuple per cycle and emits one
full-width tuple every second cycle.  When a run ends on an odd number of
half-tuples, the held half is padded with max-key sentinels — those sort
to the end of the run inside the parent merger and are dropped by the
output filter (§V-B's zero-filter analogue).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.hw.fifo import Fifo
from repro.hw.terminal import TERMINAL, SENTINEL_KEY, is_terminal
from repro.units import is_power_of_two


@dataclass
class Coupler:
    """Concatenates adjacent ``k/2``-record tuples into ``k``-record tuples.

    Parameters
    ----------
    k:
        Output tuple width; the input carries ``k/2``-record tuples.
    """

    k: int
    input: Fifo
    output: Fifo
    name: str = "coupler"

    _held: tuple | None = field(init=False, default=None, repr=False)
    consumed_tuples: int = field(init=False, default=0)
    emitted_tuples: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.k) or self.k < 2:
            raise SimulationError(
                f"coupler width must be a power of two >= 2, got {self.k}"
            )

    @property
    def half_width(self) -> int:
        """Width of the input tuples (k/2)."""
        return self.k // 2

    def tick(self, cycle: int = 0) -> None:
        """Advance one clock cycle: move at most one input item."""
        output = self.output
        source = self.input
        if output.is_full or source.is_empty:
            return
        head = source.peek()
        if is_terminal(head):
            held = self._held
            if held is not None:
                # Odd half-tuple at the end of a run: pad with max-key
                # sentinels and emit; the terminal goes out next cycle.
                padded = held + (SENTINEL_KEY,) * self.half_width
                self._held = None
                output.push(padded)
                self.emitted_tuples += 1
                return
            source.pop()
            output.push(TERMINAL)
            return
        item = source.pop()
        if len(item) != self.half_width:
            raise SimulationError(
                f"{self.name}: expected {self.half_width}-record tuples, "
                f"got {len(item)}"
            )
        self.consumed_tuples += 1
        held = self._held
        if held is None:
            self._held = tuple(item)
            return
        output.push(held + tuple(item))
        self._held = None
        self.emitted_tuples += 1
