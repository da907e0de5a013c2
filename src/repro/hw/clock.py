"""Synchronous clock scheduler: the naive stepper.

All components expose ``tick(cycle)`` and communicate exclusively through
FIFOs.  Components are ticked in *root-to-leaf* order each cycle, so an
item pushed in cycle ``c`` is observed by its consumer no earlier than
cycle ``c + 1`` — the standard one-register-per-stage pipeline discipline.
The resulting pipeline fill latency matches the datapath depth, and
steady-state throughput is one tuple per component per cycle.

:class:`Simulation` ticks every component on every cycle.  It is the
oracle the timestamp engine (:mod:`repro.hw.timestamp`) is checked
against: a merge stage (:func:`repro.hw.tree.simulate_merge`) with
``engine="fast"`` does not tick at all, but solves the stage's event
times as a fixed point; ``engine="naive"`` comes here.  The unrolled and
pipelined sorters run every stage through ``simulate_merge``, so they
follow the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, Protocol

from repro.errors import SimulationError
from repro.hw.fifo import Fifo

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
    """

    components: list = field(default_factory=list)
    cycle: int = 0

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
            stall snapshot (:func:`format_stall_report`).
        """
        start = self.cycle
        limit = start + max_cycles
        while not done():
            if self.cycle >= limit:
                raise SimulationError(
                    f"simulation did not complete within {max_cycles} cycles; "
                    "likely deadlock or missing terminal\n"
                    + format_stall_report(self.components, self.cycle)
                )
            self.step()
        return self.cycle - start


def _component_fifos(component: object) -> list[Fifo]:
    """FIFOs referenced by a component's dataclass fields (one level)."""
    if not is_dataclass(component):
        return []
    out: list[Fifo] = []
    for spec in fields(component):
        value = getattr(component, spec.name, None)
        if isinstance(value, Fifo):
            out.append(value)
        elif isinstance(value, list):
            out.extend(item for item in value if isinstance(item, Fifo))
    return out


def format_stall_report(components: list, cycle: int) -> str:
    """Human-readable snapshot of why the simulation is not progressing.

    Lists every FIFO a component holds (occupancy/capacity/high-water
    mark) and each merger's run state (done flags, feedback register),
    so a ``max_cycles`` timeout is diagnosable without re-running the
    stage.
    """
    fifos: dict[int, Fifo] = {}
    merger_lines: list[str] = []
    other_lines: list[str] = []
    for component in components:
        for fifo in _component_fifos(component):
            fifos[id(fifo)] = fifo
        if hasattr(component, "_done_a") and hasattr(component, "_feedback"):
            merger_lines.append(
                f"    {getattr(component, 'name', type(component).__name__)}: "
                f"done_a={component._done_a} done_b={component._done_b} "
                f"feedback={'held' if component._feedback is not None else 'empty'} "
                f"run_in_progress={component.run_in_progress}"
            )
        elif hasattr(component, "_inflight_cycles_left"):
            exhausted = sum(1 for feed in component.feeds if feed.exhausted)
            other_lines.append(
                f"    loader: inflight_cycles_left={component._inflight_cycles_left} "
                f"parked_leaves={sorted(component._parked)} "
                f"feeds_exhausted={exhausted}/{len(component.feeds)}"
            )
        elif hasattr(component, "expected_runs"):
            other_lines.append(
                f"    writer: runs={len(component.runs)}/{component.expected_runs} "
                f"credit={component._credit:.1f}"
            )
    lines = [f"stall snapshot at cycle {cycle}:"]
    if fifos:
        lines.append("  fifos (occupancy/capacity, high-water):")
        for fifo in sorted(fifos.values(), key=lambda f: f.name):
            lines.append(
                f"    {fifo.name}: {len(fifo)}/{fifo.capacity} hw={fifo.high_water}"
            )
    if merger_lines:
        lines.append("  mergers:")
        lines.extend(sorted(merger_lines))
    if other_lines:
        lines.append("  endpoints:")
        lines.extend(other_lines)
    return "\n".join(lines)
