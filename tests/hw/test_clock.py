"""The synchronous scheduler."""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.errors import SimulationError
from repro.hw.clock import Simulation, format_stall_report
from repro.hw.fifo import Fifo


class Counter:
    def __init__(self) -> None:
        self.ticks = 0
        self.seen_cycles: list[int] = []

    def tick(self, cycle: int) -> None:
        self.ticks += 1
        self.seen_cycles.append(cycle)


class TestSimulation:
    def test_step_ticks_all_components_in_order(self):
        order = []

        class Probe:
            def __init__(self, tag):
                self.tag = tag

            def tick(self, cycle):
                order.append(self.tag)

        sim = Simulation()
        sim.add(Probe("first"))
        sim.add(Probe("second"))
        sim.step()
        assert order == ["first", "second"]

    def test_cycle_counter_advances(self):
        sim = Simulation()
        counter = Counter()
        sim.add(counter)
        sim.step()
        sim.step()
        assert sim.cycle == 2
        assert counter.seen_cycles == [0, 1]

    def test_run_until_returns_elapsed(self):
        sim = Simulation()
        counter = Counter()
        sim.add(counter)
        elapsed = sim.run_until(lambda: counter.ticks >= 5)
        assert elapsed == 5

    def test_run_until_times_out(self):
        sim = Simulation()
        with pytest.raises(SimulationError, match="did not complete"):
            sim.run_until(lambda: False, max_cycles=10)

    def test_run_until_immediate(self):
        sim = Simulation()
        assert sim.run_until(lambda: True) == 0


class TestStallReport:
    def test_report_lists_fifos_and_endpoints(self):
        """The snapshot names every FIFO with occupancy and high-water."""
        fifo = Fifo(4, name="amt.root")
        fifo.push((1,))
        fifo.push((2,))

        @dataclass
        class Probe:
            output: Fifo = field(default_factory=lambda: fifo)

            def tick(self, cycle):  # pragma: no cover - never ticked
                pass

        report = format_stall_report([Probe(output=fifo)], cycle=123)
        assert "stall snapshot at cycle 123" in report
        assert "amt.root: 2/4 hw=2" in report
