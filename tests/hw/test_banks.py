"""Cycle-level unrolled execution on banked memory (§III-A2, §VI-D)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.hw.banks import UnrolledSimulation
from repro.records.valsort import content_digest


def make_array(length: int, seed: int = 0) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 10**6) for _ in range(length)]


class TestCorrectness:
    def test_sorts_full_array(self):
        sim = UnrolledSimulation(p=4, leaves=4, lambda_unroll=4)
        array = make_array(2_000, seed=1)
        sim.run(array)
        assert sim.output.tolist() == sorted(array)

    def test_two_way_unroll(self):
        sim = UnrolledSimulation(p=2, leaves=4, lambda_unroll=2)
        array = make_array(800, seed=2)
        sim.run(array)
        assert sim.output.tolist() == sorted(array)

    def test_rejects_single_unit(self):
        with pytest.raises(ConfigurationError):
            UnrolledSimulation(lambda_unroll=1)

    def test_timeout(self):
        sim = UnrolledSimulation(p=2, leaves=4, lambda_unroll=2)
        with pytest.raises(SimulationError):
            sim.run(make_array(2_000, seed=3), max_cycles=5)

    def test_budget_covers_all_of_a_units_stages(self):
        array = make_array(600, seed=11)
        sim = UnrolledSimulation(p=2, leaves=4, lambda_unroll=2)
        sim.run(array)
        UnrolledSimulation(p=2, leaves=4, lambda_unroll=2).run(
            array, max_cycles=sim.parallel_cycles
        )
        with pytest.raises(SimulationError, match="unrolled phase did not finish"):
            UnrolledSimulation(p=2, leaves=4, lambda_unroll=2).run(
                array, max_cycles=sim.parallel_cycles - 1
            )

    def test_final_merges_take_stages_until_one_run(self):
        # Two leaves cannot merge four ranges in one stage.
        sim = UnrolledSimulation(p=2, leaves=2, lambda_unroll=4)
        array = make_array(900, seed=10)
        total = sim.run(array)
        assert sim.output.tolist() == sorted(array)
        assert total == sim.parallel_cycles + sim.final_merge_cycles

    def test_uneven_tail_partition(self):
        sim = UnrolledSimulation(p=2, leaves=4, lambda_unroll=4)
        array = make_array(1_001, seed=4)  # not divisible by 4
        sim.run(array)
        assert sim.output.tolist() == sorted(array)


class TestConcurrency:
    """§VI-D: unrolling scales performance linearly — the parallel phase
    costs the slowest unit, not the sum of units."""

    def test_makespan_is_max_not_sum(self):
        sim = UnrolledSimulation(p=4, leaves=4, lambda_unroll=4,
                                 total_bytes_per_cycle=256.0)
        sim.run(make_array(4_000, seed=5))
        busiest = max(sim.unit_cycles)
        total_busy = sum(sim.unit_cycles)
        assert sim.parallel_cycles == pytest.approx(busiest, rel=0.01)
        assert sim.parallel_cycles < 0.5 * total_busy

    def test_units_balanced(self):
        sim = UnrolledSimulation(p=4, leaves=4, lambda_unroll=4,
                                 total_bytes_per_cycle=256.0)
        sim.run(make_array(4_000, seed=6))
        busy = sim.unit_cycles
        assert max(busy) <= 1.25 * min(busy)

    def test_unrolling_speeds_up_compute_bound_sorts(self):
        # Generous memory (compute-bound trees): 4 units finish the
        # parallel phase much faster than 2 units handle the same data.
        array = make_array(4_000, seed=7)
        two = UnrolledSimulation(p=2, leaves=4, lambda_unroll=2,
                                 total_bytes_per_cycle=1024.0)
        two.run(array)
        four = UnrolledSimulation(p=2, leaves=4, lambda_unroll=4,
                                  total_bytes_per_cycle=1024.0)
        four.run(array)
        assert four.parallel_cycles < 0.7 * two.parallel_cycles

    def test_final_merge_accounted_separately(self):
        sim = UnrolledSimulation(p=4, leaves=4, lambda_unroll=4)
        total = sim.run(make_array(2_000, seed=8))
        assert total == sim.parallel_cycles + sim.final_merge_cycles
        assert sim.final_merge_cycles > 0


class TestStalledUnit:
    def test_write_budget_below_quarter_root_tuple_raises_fast(self):
        """A unit writing 4 B/cycle cannot drain AMT(8, 4)'s 32-byte root
        tuples (the writer's credit caps at 4x its rate); the stage says
        so at once instead of ticking to the budget."""
        sim = UnrolledSimulation(p=8, leaves=4, lambda_unroll=4,
                                 total_bytes_per_cycle=16.0)
        with pytest.raises(SimulationError, match=(
            "unrolled phase did not finish within 5000000 cycles: write budget "
            "4 bytes/cycle caps the writer's credit at 16 bytes, below one "
            "32-byte root tuple"
        )):
            sim.run(make_array(2_000, seed=9))


# (p, leaves, λ, record bytes, batch bytes, presort run, total bytes per
# cycle, records, seed, key bits) -> (total, parallel, final, digest).
# Recorded from the per-unit tick driver that each unit used to run; the
# last shape moved from (11742, 10535, 1207) when the unit's leaf FIFOs
# took simulate_merge's two-batch capacity 2·(b+1) in place of 2·(2b+1).
PINNED_UNROLLED = [
    ((1, 8, 4, 4, 256, 32, 64.0, 1121, 0, 64), (1810, 668, 1142, "61ff2982616248a1")),
    ((8, 8, 2, 16, 512, 16, 256.0, 770, 2, 30), (284, 179, 105, "d6440d3ac20a3628")),
    ((1, 8, 3, 16, 1024, 4, 96.0, 1199, 4, 64), (2945, 1707, 1238, "389846329a2347b7")),
    ((2, 4, 2, 4, 512, 16, 8.0, 10, 13, 64), (27, 12, 15, "dc0e24633c8a16af")),
    ((4, 2, 2, 16, 512, 16, 256.0, 667, 17, 30), (686, 511, 175, "5b604e78c8acd698")),
    ((8, 4, 4, 4, 1024, 4, 64.0, 1325, 19, 30), (914, 677, 237, "44e51906e5530838")),
    ((2, 4, 2, 4, 512, 32, 4.0, 1488, 48, 30), (8772, 7028, 1744, "8301095ab81860fc")),
    ((4, 16, 4, 16, 256, 8, 512.0, 1160, 53, 30), (525, 218, 307, "5c42ebf4012f7d69")),
    ((8, 4, 4, 4, 512, 32, 64.0, 1144, 69, 64), (478, 294, 184, "4e6cbf308245d0b7")),
    ((1, 2, 2, 4, 256, 4, 4.0, 1070, 34, 64), (11873, 10666, 1207, "433024652f92948a")),
]


@pytest.mark.parametrize(
    "shape, expected", PINNED_UNROLLED,
    ids=[f"seed{shape[8]}" for shape, _ in PINNED_UNROLLED],
)
def test_pinned_cycles_and_digest(shape, expected):
    p, leaves, lam, record_bytes, batch_bytes, presort, budget, n, seed, bits = shape
    rng = random.Random(seed)
    array = [rng.randrange(0, 1 << bits) for _ in range(n)]
    sim = UnrolledSimulation(
        p=p, leaves=leaves, lambda_unroll=lam, record_bytes=record_bytes,
        presort_run=presort, total_bytes_per_cycle=budget,
        batch_bytes=batch_bytes,
    )
    total = sim.run(array)
    assert sim.output.dtype == np.uint64
    digest = content_digest(sim.output)
    assert (total, sim.parallel_cycles, sim.final_merge_cycles, digest) == expected
    assert sim.output.tolist() == sorted(array)
