"""Synchronous clock scheduler.

All components expose ``tick(cycle)`` and communicate exclusively through
FIFOs.  Components are ticked in *root-to-leaf* order each cycle, so an
item pushed in cycle ``c`` is observed by its consumer no earlier than
cycle ``c + 1`` — the standard one-register-per-stage pipeline discipline.
The resulting pipeline fill latency matches the datapath depth, and
steady-state throughput is one tuple per component per cycle.

Two tick engines drive the same component graph:

* the **naive stepper** ticks every component on every cycle;
* the **event-driven fast path** (:mod:`repro.hw.fastpath`) puts
  provably-stalled components to sleep, wakes them on FIFO traffic or
  self-scheduled timers, and bulk-applies the skipped cycles' stall and
  idle accounting on wake; when the whole graph sleeps, the clock jumps
  straight to the next timer.  The two engines are cycle-exact
  equivalents — same final cycle count, same statistics, same data —
  which the differential suite in ``tests/hw/test_fastpath.py``
  verifies across randomized shapes.

A merge stage (:func:`repro.hw.tree.simulate_merge`) with
``engine="fast"`` does not tick at all: the timestamp engine
(:mod:`repro.hw.timestamp`) solves the stage's event times as a fixed
point.  Only the stages it cannot represent exactly come here, to the
fast path; ``engine="naive"`` always comes here, to the stepper.  The
unrolled and pipelined sorters run every stage through
``simulate_merge``, so they follow the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.errors import SimulationError
from repro.hw import fastpath

#: Default ``run_until`` cycle budget, shared by every stage driver
#: (:func:`repro.hw.tree.simulate_merge` threads it through unchanged).
#: Sized for the largest simulated stage plus an order of magnitude of
#: headroom: a timeout at this budget means deadlock, not slowness.
DEFAULT_MAX_CYCLES = 50_000_000


class Component(Protocol):
    """Anything with a per-cycle ``tick``."""

    def tick(self, cycle: int) -> None:  # pragma: no cover - protocol
        """Advance one clock cycle."""
        ...


@dataclass
class Simulation:
    """Runs a list of components until a completion predicate holds.

    Parameters
    ----------
    components:
        Tick order; producers of a FIFO should appear *after* its
        consumer for one-cycle-per-stage semantics.
    fast_forward:
        When true (the default) and every component implements the
        quiescence protocol of :mod:`repro.hw.fastpath`, ``run_until``
        uses the event-driven scheduler, which skips provably-stalled
        component ticks instead of executing them.  Cycle counts and
        statistics are identical either way; set false to force the
        naive stepper (e.g. when comparing the engines or stepping
        through a bug).
    """

    components: list = field(default_factory=list)
    cycle: int = 0
    fast_forward: bool = True

    def add(self, component: Component) -> None:
        """Append a component at the end of the tick order."""
        self.components.append(component)

    def step(self) -> None:
        """Advance the clock by one cycle."""
        for component in self.components:
            component.tick(self.cycle)
        self.cycle += 1

    def run_until(
        self, done: Callable[[], bool], max_cycles: int = DEFAULT_MAX_CYCLES
    ) -> int:
        """Step until ``done()`` is true; returns the elapsed cycle count.

        Raises
        ------
        SimulationError
            When ``max_cycles`` elapse first — almost always a deadlock
            in the component graph (a FIFO sized too small, or a
            terminal that never arrived).  The error message carries a
            stall snapshot: every FIFO's occupancy and high-water mark
            plus each merger's run state.
        """
        start = self.cycle
        limit = start + max_cycles
        components = self.components
        if self.fast_forward and fastpath.supports_fast_forward(components):
            try:
                self.cycle = fastpath.run_event_driven(
                    components, start, done, limit, max_cycles
                )
            except SimulationError:
                self.cycle = limit
                raise
            return self.cycle - start
        while not done():
            if self.cycle >= limit:
                raise SimulationError(
                    f"simulation did not complete within {max_cycles} cycles; "
                    "likely deadlock or missing terminal\n"
                    + fastpath.format_stall_report(components, self.cycle)
                )
            self.step()
        return self.cycle - start
