"""Differential verification of the event-driven fast path.

The whole value of ``repro.hw.fastpath`` rests on one claim: for any
stage the fast engine and the naive per-cycle stepper are observably
identical — same merged output, same final cycle count, same per-merger
and per-loader statistics, and the same error on deadlock.  This suite
asserts that claim over a randomized space of shapes (bandwidth budgets,
batch sizes, tree geometries, workload styles) plus the known corner
paths: the degenerate 1-merger tree, the auto-shrink late-stage path,
empty and single-record runs, and budget-exhausted timeouts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.hw import fastpath
from repro.hw.clock import Simulation
from repro.hw.fifo import Fifo
from repro.hw.tree import simulate_merge

RECORD_BYTES = 4


def gen_runs(rng: random.Random, n_runs: int, run_len: int, style: str):
    runs = []
    for index in range(n_runs):
        if style == "skew":
            base = rng.randrange(0, 50)
            run = sorted(rng.randrange(base, base + 200) for _ in range(run_len))
        elif style == "saw":
            run = sorted((j * 7 + index * 13) % 1000 for j in range(run_len))
        else:
            run = sorted(rng.randrange(0, 1 << 30) for _ in range(run_len))
        runs.append(run)
    return runs


def random_shape(seed: int) -> dict:
    """A seeded random (shape, workload) point covering the state space."""
    rng = random.Random(seed)
    p = rng.choice([1, 2, 4, 8])
    leaves = rng.choice([2, 4, 8, 16])
    demand = p * RECORD_BYTES
    read_factor = rng.choice([0.1, 0.25, 0.5, 1.0, None])
    write_factor = rng.choice([0.3, 0.5, 1.0, None])
    n_runs = rng.choice([1, leaves - 1, leaves, 2 * leaves, 3 * leaves + 1])
    return dict(
        p=p,
        leaves=leaves,
        runs=gen_runs(
            rng,
            max(1, n_runs),
            rng.choice([0, 1, 17, 200]),
            rng.choice(["skew", "saw", "rand"]),
        ),
        record_bytes=RECORD_BYTES,
        read_bytes_per_cycle=(
            None if read_factor is None else max(0.5, read_factor * demand)
        ),
        write_bytes_per_cycle=(
            None if write_factor is None else write_factor * demand
        ),
        batch_bytes=rng.choice([64, 256, 1024, 4096]),
    )


def run_both(**kwargs):
    """Run both engines; returns ((out, stats) | SimulationError) per engine."""
    results = []
    for engine in ("fast", "naive"):
        try:
            results.append(simulate_merge(engine=engine, **kwargs))
        except SimulationError as error:
            results.append(error)
    return results


def assert_identical(fast, naive, label=""):
    if isinstance(fast, SimulationError) or isinstance(naive, SimulationError):
        assert isinstance(fast, SimulationError), f"{label}: only naive raised"
        assert isinstance(naive, SimulationError), f"{label}: only fast raised"
        # Identical first line; the snapshot body reflects identical
        # component state, compared structurally below via the message.
        assert str(fast) == str(naive), label
        return
    out_fast, stats_fast = fast
    out_naive, stats_naive = naive
    assert out_fast == out_naive, f"{label}: merged output differs"
    assert stats_fast.cycles == stats_naive.cycles, (
        f"{label}: cycles {stats_fast.cycles} vs {stats_naive.cycles}"
    )
    assert stats_fast == stats_naive, f"{label}: StageStats differ"


#: Presorter run length of the multi-stage shapes (§VI-C).
PRESORT_RUN = 16


@dataclass(frozen=True)
class PinnedShape:
    """A committed simulator shape and the cycle count it must land on.

    Bandwidth factors are relative to the tree's demand of
    ``p * record_bytes`` bytes per cycle: 0.02 models an HDD-class
    source, 0.05 an SSD-class one, ``None`` an unthrottled port.
    ``n_records`` marks a full multi-stage sort (``stages`` of them);
    otherwise the shape is one merge stage over ``n_runs`` runs.
    """

    name: str
    p: int
    leaves: int
    cycles: int
    read_factor: float | None = None
    write_factor: float | None = None
    batch_bytes: int = 1024
    n_runs: int = 8
    run_length: int = 8000
    n_records: int | None = None
    stages: int | None = None
    key_range: int = 1 << 30

    def budgets(self) -> tuple[float | None, float | None]:
        demand = self.p * RECORD_BYTES
        read = None if self.read_factor is None else self.read_factor * demand
        write = None if self.write_factor is None else self.write_factor * demand
        return read, write

    def make_runs(self) -> list[list[int]]:
        rng = random.Random(1)
        length = max(500, self.run_length // 8)
        return [
            sorted(rng.randrange(0, self.key_range) for _ in range(length))
            for _ in range(self.n_runs)
        ]

    def make_records(self) -> list[int]:
        rng = random.Random(1)
        count = max(2000, self.n_records // 4)
        return [rng.randrange(0, self.key_range) for _ in range(count)]


PINNED_SHAPES = (
    PinnedShape("micro_hdd_read_starved", p=16, leaves=4, cycles=25_252,
                read_factor=0.02, write_factor=1.0, batch_bytes=4096),
    PinnedShape("micro_hdd_deep_tree", p=16, leaves=8, cycles=25_515,
                read_factor=0.02, write_factor=1.0, batch_bytes=4096),
    PinnedShape("micro_ssd_read_starved", p=16, leaves=4, cycles=10_252,
                read_factor=0.05, write_factor=1.0, batch_bytes=4096),
    PinnedShape("micro_balanced", p=8, leaves=16, cycles=5_224,
                n_runs=16, run_length=4000, read_factor=0.3, write_factor=0.3),
    PinnedShape("micro_unconstrained", p=8, leaves=16, cycles=1_299,
                n_runs=16, run_length=4000),
    PinnedShape("micro_compute_wide", p=8, leaves=32, cycles=2_617,
                n_runs=32, run_length=4000),
    PinnedShape("micro_dup_heavy", p=8, leaves=16, cycles=1_301,
                n_runs=16, run_length=4000, key_range=256),
    PinnedShape("e2e_hdd_sort", p=16, leaves=4, cycles=38_449,
                n_records=12000, stages=4, read_factor=0.02, batch_bytes=4096),
    PinnedShape("e2e_ssd_sort", p=16, leaves=4, cycles=15_947,
                n_records=12000, stages=4, read_factor=0.05, batch_bytes=4096),
)


class TestDifferential:
    @pytest.mark.parametrize(
        "shape", PINNED_SHAPES, ids=[shape.name for shape in PINNED_SHAPES]
    )
    def test_pinned_shapes(self, shape):
        """Both engines agree on the committed shapes, at committed cycles.

        Multi-stage shapes presort into 16-record runs and merge stage
        by stage down to one run, reads throttled and writes free (the
        storage-bound split of §IV-C).
        """
        read, write = shape.budgets()
        if shape.n_records is None:
            records = None
            runs = shape.make_runs()
        else:
            records = shape.make_records()
            runs = [
                sorted(records[start : start + PRESORT_RUN])
                for start in range(0, len(records), PRESORT_RUN)
            ]
        stages = cycles = 0
        while True:
            fast, naive = run_both(
                p=shape.p, leaves=shape.leaves, runs=runs,
                record_bytes=RECORD_BYTES, read_bytes_per_cycle=read,
                write_bytes_per_cycle=write, batch_bytes=shape.batch_bytes,
                check_sorted_inputs=False,
            )
            assert_identical(fast, naive, label=f"{shape.name} stage {stages}")
            runs, stats = fast
            stages += 1
            cycles += stats.cycles
            if records is None or len(runs) == 1:
                break
        assert cycles == shape.cycles
        if records is not None:
            assert stages == shape.stages
            assert runs[0] == sorted(records)


    @pytest.mark.parametrize("seed", range(32))
    def test_randomized_shapes(self, seed):
        shape = random_shape(seed)
        fast, naive = run_both(**shape)
        assert_identical(fast, naive, label=f"seed={seed}")

    def test_degenerate_single_merger(self):
        """p=1, l=2: one 1-merger, no couplers, record-at-a-time."""
        rng = random.Random(99)
        runs = gen_runs(rng, 2, 64, "rand")
        fast, naive = run_both(
            p=1, leaves=2, runs=runs, read_bytes_per_cycle=0.5,
            write_bytes_per_cycle=1.0, batch_bytes=64,
        )
        assert_identical(fast, naive, label="1-merger")

    def test_auto_shrink_late_stage(self):
        """Fewer runs than leaves: the shrunken-tree path (late stages)."""
        rng = random.Random(7)
        runs = gen_runs(rng, 3, 120, "rand")
        fast, naive = run_both(
            p=8, leaves=16, runs=runs, read_bytes_per_cycle=4.0,
            write_bytes_per_cycle=None, batch_bytes=256,
        )
        assert_identical(fast, naive, label="auto-shrink")
        out, _stats = fast
        assert out[0] == sorted(value for run in runs for value in run)

    def test_bandwidth_starved_quiescent_stage(self):
        """The fast path's home regime: read budget far below demand."""
        rng = random.Random(3)
        runs = gen_runs(rng, 4, 400, "rand")
        fast, naive = run_both(
            p=16, leaves=4, runs=runs, read_bytes_per_cycle=1.5,
            write_bytes_per_cycle=64.0, batch_bytes=4096,
        )
        assert_identical(fast, naive, label="starved")

    def test_deadlock_timeout_identical(self):
        """Both engines raise the same stall-snapshot error on timeout.

        A write credit cap (4x the per-cycle rate) smaller than one
        p-tuple means the writer can never retire output: a genuine
        model deadlock, detected at the cycle budget.
        """
        rng = random.Random(5)
        runs = gen_runs(rng, 4, 32, "rand")
        fast, naive = run_both(
            p=16, leaves=4, runs=runs, read_bytes_per_cycle=None,
            write_bytes_per_cycle=2.0,  # cap 8 bytes < 64-byte p-tuple
            batch_bytes=1024, max_cycles=4000,
        )
        assert isinstance(fast, SimulationError)
        assert str(fast) == str(naive)
        message = str(fast)
        assert "did not complete within 4000 cycles" in message
        # The satellite diagnostic: FIFO occupancy and merger run state.
        assert "stall snapshot at cycle" in message
        assert "hw=" in message and "run_in_progress" in message
        assert "writer: runs=0/1" in message


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

        report = fastpath.format_stall_report([Probe(output=fifo)], cycle=123)
        assert "stall snapshot at cycle 123" in report
        assert "amt.root: 2/4 hw=2" in report


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown simulation engine"):
            simulate_merge(2, 2, [[1], [2]], engine="warp")

    def test_protocol_detection(self):
        class Opaque:
            def tick(self, cycle):
                pass

        assert not fastpath.supports_fast_forward([Opaque()])

    def test_simulation_degrades_to_naive_for_opaque_components(self):
        """A component without the protocol falls back to the stepper."""
        ticks = []

        class Opaque:
            def tick(self, cycle):
                ticks.append(cycle)

        sim = Simulation(fast_forward=True)
        sim.add(Opaque())
        elapsed = sim.run_until(lambda: len(ticks) >= 5, max_cycles=10)
        assert elapsed == 5
        assert ticks == [0, 1, 2, 3, 4]
