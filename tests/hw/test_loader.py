"""The data loader and output writer (§V-A)."""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.hw.fifo import Fifo
from repro.hw.loader import DataLoader, OutputWriter, make_feeds
from repro.hw.terminal import SENTINEL_KEY, TERMINAL, is_terminal
from repro.hw.tree import simulate_merge
from tests.conftest import run_values


def drain_loader(loader: DataLoader, max_cycles: int = 100_000) -> None:
    for _ in range(max_cycles):
        if loader.done:
            return
        loader.tick()
    raise AssertionError("loader did not finish")


def fifo_contents(fifo: Fifo) -> list:
    return list(fifo._items)


class TestMakeFeeds:
    def test_round_robin_run_distribution(self):
        fifos = [Fifo(100, name=f"l{i}") for i in range(2)]
        feeds = make_feeds(fifos, [[1], [2], [3], [4], [5]], 2)
        assert feeds[0].runs == [[1], [3], [5]]
        assert feeds[1].runs == [[2], [4], []]  # padded with an empty run

    def test_rejects_wrong_fifo_count(self):
        with pytest.raises(SimulationError):
            make_feeds([Fifo(4)], [[1]], 2)

    def test_no_runs_still_one_group(self):
        feeds = make_feeds([Fifo(4), Fifo(4)], [], 2)
        assert feeds[0].runs == [[]]


class TestLoading:
    def test_delivers_tuples_and_terminal(self):
        fifo = Fifo(100)
        feeds = make_feeds([fifo], [[1, 2, 3, 4]], 1)
        loader = DataLoader(
            feeds=feeds,
            tuple_width=2,
            record_bytes=4,
            read_bytes_per_cycle=8,
            batch_bytes=16,
        )
        drain_loader(loader)
        assert fifo_contents(fifo) == [(1, 2), (3, 4), TERMINAL]

    def test_pads_partial_tail_tuple(self):
        fifo = Fifo(100)
        feeds = make_feeds([fifo], [[1, 2, 3]], 1)
        loader = DataLoader(
            feeds=feeds,
            tuple_width=2,
            record_bytes=4,
            read_bytes_per_cycle=8,
            batch_bytes=16,
        )
        drain_loader(loader)
        assert fifo_contents(fifo) == [(1, 2), (3, SENTINEL_KEY), TERMINAL]

    def test_batch_cut_mid_run_ends_at_tuple_boundary(self):
        """A batch quota that cuts a run between tuple boundaries ends the
        batch at the last whole tuple: pads only ever complete a run's
        final tuple, never a tuple in the middle of the run."""
        fifo = Fifo(100)
        feeds = make_feeds([fifo], [[1], [2, 3, 4, 5, 6]], 1)
        loader = DataLoader(
            feeds=feeds,
            tuple_width=2,
            record_bytes=4,
            read_bytes_per_cycle=8,
            batch_bytes=16,  # 4 records: run 0, 2 (not 3) of run 1, the rest
        )
        drain_loader(loader)
        assert fifo_contents(fifo) == [
            (1, SENTINEL_KEY), TERMINAL, (2, 3), (4, 5), (6, SENTINEL_KEY), TERMINAL,
        ]
        assert loader.stats.batches_issued == 2
        assert loader.stats.bytes_loaded == 6 * 4

    def test_mid_run_cut_keeps_simulated_merge_sorted(self):
        """Regression: a mid-run pad used to put a sentinel inside a run,
        and the merged output came back unsorted under both engines."""
        rng = random.Random(4)
        runs = [sorted(rng.randrange(0, 1000) for _ in range(17)) for _ in range(8)]
        for engine in ("fast", "naive"):
            out, _stats = simulate_merge(8, 2, runs, batch_bytes=64, engine=engine)
            assert run_values(out) == [sorted(runs[2 * g] + runs[2 * g + 1]) for g in range(4)]

    def test_empty_run_is_terminal_only(self):
        fifo = Fifo(100)
        feeds = make_feeds([fifo], [[]], 1)
        loader = DataLoader(
            feeds=feeds,
            tuple_width=1,
            record_bytes=4,
            read_bytes_per_cycle=8,
            batch_bytes=16,
        )
        drain_loader(loader)
        assert fifo_contents(fifo) == [TERMINAL]

    def test_batch_transfer_takes_bandwidth_cycles(self):
        fifo = Fifo(600)  # must fit a 256-record batch plus terminal
        feeds = make_feeds([fifo], [list(range(1, 257))], 1)
        loader = DataLoader(
            feeds=feeds,
            tuple_width=1,
            record_bytes=4,
            read_bytes_per_cycle=64.0,
            batch_bytes=1024,
        )
        # One full 1024-byte batch at 64 B/cycle takes 16 cycles.
        for _ in range(15):
            loader.tick()
        assert fifo.is_empty
        loader.tick()
        assert len(fifo) == 257  # 256 single-record tuples + terminal

    def test_round_robin_across_leaves(self):
        fifos = [Fifo(100) for _ in range(4)]
        feeds = make_feeds(fifos, [[1, 2], [3, 4], [5, 6], [7, 8]], 4)
        loader = DataLoader(
            feeds=feeds,
            tuple_width=1,
            record_bytes=4,
            read_bytes_per_cycle=1000.0,
            batch_bytes=8,  # 2 records per batch
        )
        drain_loader(loader)
        # Bit-reversed placement: leaf 1 <- run 2, leaf 2 <- run 1.
        for fifo, expected in zip(fifos, ([1, 2], [5, 6], [3, 4], [7, 8])):
            items = fifo_contents(fifo)
            assert items[:-1] == [(expected[0],), (expected[1],)]
            assert is_terminal(items[-1])

    def test_respects_fifo_space(self):
        fifo = Fifo(3)  # too small for a 4-tuple batch plus terminal
        feeds = make_feeds([fifo], [[1, 2, 3, 4, 5, 6, 7, 8]], 1)
        loader = DataLoader(
            feeds=feeds,
            tuple_width=1,
            record_bytes=4,
            read_bytes_per_cycle=1000.0,
            batch_bytes=16,
        )
        for _ in range(10):
            loader.tick()
        # Loader must not have overfilled the FIFO.
        assert len(fifo) <= 3

    def test_stats(self):
        fifo = Fifo(100)
        feeds = make_feeds([fifo], [[1, 2, 3, 4]], 1)
        loader = DataLoader(
            feeds=feeds,
            tuple_width=1,
            record_bytes=4,
            read_bytes_per_cycle=16,
            batch_bytes=16,
        )
        drain_loader(loader)
        assert loader.stats.bytes_loaded == 16
        assert loader.stats.runs_fed == 1
        assert loader.stats.batches_issued == 1


class TestLoaderValidation:
    def test_rejects_bad_parameters(self):
        fifo = Fifo(10)
        feeds = make_feeds([fifo], [[1]], 1)
        with pytest.raises(SimulationError):
            DataLoader(feeds=feeds, tuple_width=0, record_bytes=4,
                       read_bytes_per_cycle=8, batch_bytes=16)
        with pytest.raises(SimulationError):
            DataLoader(feeds=feeds, tuple_width=1, record_bytes=0,
                       read_bytes_per_cycle=8, batch_bytes=16)
        with pytest.raises(SimulationError):
            DataLoader(feeds=feeds, tuple_width=1, record_bytes=4,
                       read_bytes_per_cycle=0, batch_bytes=16)
        with pytest.raises(SimulationError):
            DataLoader(feeds=feeds, tuple_width=1, record_bytes=4,
                       read_bytes_per_cycle=8, batch_bytes=2)


class TestOutputWriter:
    def test_collects_runs_and_filters_sentinels(self):
        source = Fifo(100)
        for item in [(1, 2), (3, SENTINEL_KEY), TERMINAL, (4, 5), TERMINAL]:
            source.push(item)
        writer = OutputWriter(
            source=source, record_bytes=4, write_bytes_per_cycle=1000.0, expected_runs=2
        )
        for _ in range(10):
            writer.tick()
        assert writer.done
        assert writer.runs == [[1, 2, 3], [4, 5]]

    def test_write_bandwidth_paces_draining(self):
        source = Fifo(100)
        for value in range(10):
            source.push((value,))
        source.push(TERMINAL)
        writer = OutputWriter(
            source=source, record_bytes=4, write_bytes_per_cycle=4.0, expected_runs=1
        )
        writer.tick()
        # 4 B/cycle, 4-byte records: at most a few records early on
        # (small credit cap), never the whole stream in one cycle.
        drained_first_cycle = 10 - len(source)
        assert drained_first_cycle <= 4

    def test_bytes_written_excludes_sentinels(self):
        source = Fifo(100)
        source.push((7, SENTINEL_KEY))
        source.push(TERMINAL)
        writer = OutputWriter(
            source=source, record_bytes=4, write_bytes_per_cycle=100.0, expected_runs=1
        )
        for _ in range(5):
            writer.tick()
        assert writer.bytes_written == 4

    def test_validation(self):
        with pytest.raises(SimulationError):
            OutputWriter(source=Fifo(4), record_bytes=4,
                         write_bytes_per_cycle=0, expected_runs=1)
        with pytest.raises(SimulationError):
            OutputWriter(source=Fifo(4), record_bytes=4,
                         write_bytes_per_cycle=8, expected_runs=0)
