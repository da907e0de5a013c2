"""Fault injection and the §V-A loader-pausing experiment."""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.hw.clock import Simulation
from repro.hw.fifo import Fifo
from repro.hw.loader import DataLoader, OutputWriter, make_feeds
from repro.hw.terminal import TERMINAL
from repro.hw.tree import AmtTree
from tests.hw.faults import FaultInjector, PausingLoader, SortednessMonitor


def build_stage(runs, p=4, leaves=8, pause=None, inject_at=None):
    """Wire a full stage, optionally pausing the loader or injecting a
    fault between the tree root and the writer (through a monitor)."""
    tree = AmtTree(p=p, leaves=leaves)
    for fifo in tree.leaf_fifos:
        fifo.capacity = 600
    feeds = make_feeds(tree.leaf_fifos, runs, leaves)
    loader = DataLoader(
        feeds=feeds, tuple_width=tree.leaf_width, record_bytes=4,
        read_bytes_per_cycle=64.0, batch_bytes=1024,
    )
    if pause is not None:
        loader = PausingLoader(inner=loader, pause_start=pause[0], pause_stop=pause[1])

    checked = Fifo(capacity=16, name="checked")
    components = []
    if inject_at is not None:
        corrupted = Fifo(capacity=16, name="corrupted")
        injector = FaultInjector(
            input=tree.root_fifo, output=corrupted, trigger_tuple=inject_at
        )
        monitor = SortednessMonitor(input=corrupted, output=checked)
        components = [monitor, injector]
    else:
        monitor = SortednessMonitor(input=tree.root_fifo, output=checked)
        components = [monitor]

    n_groups = max(1, -(-len(runs) // leaves))
    writer = OutputWriter(
        source=checked, record_bytes=4, write_bytes_per_cycle=64.0,
        expected_runs=n_groups,
    )
    sim = Simulation()
    sim.add(writer)
    for component in components:
        sim.add(component)
    for component in tree.components:
        sim.add(component)
    sim.add(loader)
    return sim, writer, loader, monitor


def make_runs(seed=0, count=8, length=64):
    rng = random.Random(seed)
    return [sorted(rng.randrange(1, 10**6) for _ in range(length)) for _ in range(count)]


class TestLoaderPausing:
    """§V-A: "the AMT behaves correctly with empty input buffers"."""

    def test_pause_stalls_then_recovers(self):
        runs = make_runs(count=8, length=128)
        sim, writer, loader, monitor = build_stage(runs, pause=(40, 400))
        sim.run_until(lambda: writer.done, max_cycles=100_000)
        assert loader.paused_cycles == 360
        assert writer.runs[0] == sorted(x for run in runs for x in run)
        assert monitor.records_checked == sum(len(run) for run in runs)

    def test_pause_costs_roughly_its_duration(self):
        runs = make_runs(count=8, length=256)
        base_sim, base_writer, _, _ = build_stage(runs)
        base_cycles = base_sim.run_until(lambda: base_writer.done, max_cycles=100_000)
        paused_sim, paused_writer, _, _ = build_stage(runs, pause=(50, 550))
        paused_cycles = paused_sim.run_until(
            lambda: paused_writer.done, max_cycles=100_000
        )
        # The stall window is dead time; recovery costs little extra.
        assert base_cycles < paused_cycles <= base_cycles + 500 + 100

    def test_pause_before_any_data(self):
        runs = make_runs(count=4, length=32)
        sim, writer, _, _ = build_stage(runs, p=2, leaves=4, pause=(0, 200))
        sim.run_until(lambda: writer.done, max_cycles=100_000)
        assert writer.runs[0] == sorted(x for run in runs for x in run)


class TestFaultInjection:
    def test_monitor_catches_injected_fault(self):
        runs = make_runs(count=8, length=128)
        sim, writer, _, _ = build_stage(runs, inject_at=40)
        with pytest.raises(SimulationError, match="run order violated"):
            sim.run_until(lambda: writer.done, max_cycles=100_000)

    def test_clean_stream_passes_monitor(self):
        runs = make_runs(count=8, length=64)
        sim, writer, _, monitor = build_stage(runs)
        sim.run_until(lambda: writer.done, max_cycles=100_000)
        assert monitor.runs_checked == 1

    def test_injector_counts_faults(self):
        source, sink = Fifo(8), Fifo(8)
        injector = FaultInjector(input=source, output=sink, trigger_tuple=1)
        for item in [(5,), (9,), (12,), TERMINAL]:
            source.push(item)
        for _ in range(6):
            injector.tick()
        assert injector.faults_injected == 1
        assert injector.tuples_seen == 3

    def test_flip_mask_applied(self):
        source, sink = Fifo(8), Fifo(8)
        injector = FaultInjector(
            input=source, output=sink, trigger_tuple=0, flip_mask=0b100
        )
        source.push((8,))
        injector.tick()
        assert sink.pop() == (12,)


class TestMonitorEdgeCases:
    def test_resets_across_runs(self):
        source, sink = Fifo(16), Fifo(16)
        monitor = SortednessMonitor(input=source, output=sink)
        # Two runs; the second starts below the first's end — legal.
        for item in [(10,), (20,), TERMINAL, (1,), (2,), TERMINAL]:
            source.push(item)
        for _ in range(10):
            monitor.tick()
        assert monitor.runs_checked == 2

    def test_ignores_pad_sentinels(self):
        from repro.hw.terminal import SENTINEL_KEY

        source, sink = Fifo(16), Fifo(16)
        monitor = SortednessMonitor(input=source, output=sink)
        for item in [(10, SENTINEL_KEY), (11, 12), TERMINAL]:
            source.push(item)
        for _ in range(5):
            monitor.tick()  # must not raise despite sentinel > 11

    def test_pausing_loader_validation(self):
        runs = make_runs(count=4, length=16)
        tree = AmtTree(p=2, leaves=4)
        feeds = make_feeds(tree.leaf_fifos, runs, 4)
        loader = DataLoader(
            feeds=feeds, tuple_width=tree.leaf_width, record_bytes=4,
            read_bytes_per_cycle=64.0, batch_bytes=1024,
        )
        with pytest.raises(SimulationError, match="pause window"):
            PausingLoader(inner=loader, pause_start=10, pause_stop=5)
