"""Cycle-level AMT pipelining (§III-A3, Fig. 4)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.hw.pipeline import PipelineSimulation
from repro.records.valsort import content_digest


def make_arrays(count: int, length: int, seed: int = 0) -> list[list[int]]:
    rng = random.Random(seed)
    return [
        [rng.randrange(1, 10**6) for _ in range(length)] for _ in range(count)
    ]


class TestCorrectness:
    def test_sorts_every_array(self):
        pipeline = PipelineSimulation(p=4, leaves=4, lambda_pipe=2, presort_run=16)
        arrays = make_arrays(count=3, length=200)
        pipeline.run(arrays)
        for index, array in enumerate(arrays):
            assert pipeline.outputs[index].tolist() == sorted(array)

    def test_three_stage_pipeline(self):
        pipeline = PipelineSimulation(p=2, leaves=4, lambda_pipe=3, presort_run=4)
        arrays = make_arrays(count=2, length=250, seed=1)
        pipeline.run(arrays)
        for index, array in enumerate(arrays):
            assert pipeline.outputs[index].tolist() == sorted(array)

    def test_empty_array(self):
        pipeline = PipelineSimulation(p=2, leaves=4, lambda_pipe=2, presort_run=4)
        pipeline.run([[]])
        assert pipeline.outputs[0].tolist() == []

    def test_capacity_formula(self):
        pipeline = PipelineSimulation(p=4, leaves=4, lambda_pipe=2, presort_run=16)
        assert pipeline.capacity_records() == 16 * 16

    def test_rejects_oversized_array(self):
        pipeline = PipelineSimulation(p=2, leaves=2, lambda_pipe=2, presort_run=2)
        with pytest.raises(ConfigurationError, match="Eq. 5"):
            pipeline.run([list(range(1, 100))])

    def test_rejects_single_stage(self):
        with pytest.raises(ConfigurationError):
            PipelineSimulation(lambda_pipe=1)

    def test_timeout(self):
        pipeline = PipelineSimulation(p=2, leaves=4, lambda_pipe=2, presort_run=16)
        with pytest.raises(SimulationError, match="did not finish"):
            pipeline.run(make_arrays(count=1, length=200), max_cycles=5)

    def test_budget_covers_the_whole_makespan(self):
        arrays = make_arrays(count=3, length=200, seed=6)
        total = PipelineSimulation(p=2, leaves=4, lambda_pipe=2).run(arrays)
        PipelineSimulation(p=2, leaves=4, lambda_pipe=2).run(arrays, max_cycles=total)
        with pytest.raises(SimulationError, match="pipeline did not finish"):
            PipelineSimulation(p=2, leaves=4, lambda_pipe=2).run(
                arrays, max_cycles=total - 1
            )


class TestSteadyStateCadence:
    """§III-A3: "the pipelined approach ensures a constant throughput of
    sorted data to the I/O bus"."""

    def test_arrays_complete_at_constant_intervals(self):
        pipeline = PipelineSimulation(p=4, leaves=4, lambda_pipe=2, presort_run=16)
        arrays = make_arrays(count=6, length=256, seed=2)
        pipeline.run(arrays)
        intervals = pipeline.completion_intervals()
        # After the fill, one array per interval; intervals cluster
        # tightly around the single-stage service time.
        steady = intervals[1:]
        assert max(steady) - min(steady) <= 0.2 * max(steady)

    def test_pipeline_beats_sequential_makespan(self):
        arrays = make_arrays(count=6, length=256, seed=3)
        pipeline = PipelineSimulation(p=4, leaves=4, lambda_pipe=2, presort_run=16)
        total = pipeline.run(arrays)
        # Sequential: each array pays both stages back to back on one
        # tree; the pipeline overlaps them.
        sequential = PipelineSimulation(p=4, leaves=4, lambda_pipe=2, presort_run=16)
        seq_total = 0
        for array in arrays:
            fresh = PipelineSimulation(p=4, leaves=4, lambda_pipe=2, presort_run=16)
            seq_total += fresh.run([array])
        assert total < 0.75 * seq_total

    def test_stage_utilisation_balanced(self):
        pipeline = PipelineSimulation(p=4, leaves=4, lambda_pipe=2, presort_run=16)
        arrays = make_arrays(count=6, length=256, seed=4)
        pipeline.run(arrays)
        busy = pipeline.stage_busy_cycles
        assert max(busy) <= 1.5 * min(busy)

    def test_completion_order_is_fifo(self):
        pipeline = PipelineSimulation(p=4, leaves=4, lambda_pipe=2, presort_run=16)
        arrays = make_arrays(count=4, length=128, seed=5)
        pipeline.run(arrays)
        cycles = [pipeline.completion_cycles[i] for i in range(4)]
        assert cycles == sorted(cycles)


# (p, leaves, λ_pipe, record bytes, batch bytes, presort run, bank bytes
# per cycle, array lengths, seed, key bits) -> (completion cycles, digest
# of the outputs in array order).  Recorded from the per-stage tick
# driver the pipeline used to run.
PINNED_PIPELINE = [
    ((8, 4, 2, 4, 256, 4, 64.0, [54, 63, 60], 100, 30),
     ([40, 65, 90], "2b1cc418fbe0664f")),
    ((1, 4, 3, 8, 1024, 8, 8.0, [153, 297, 331, 279], 102, 64),
     ([940, 2138, 2961, 3525], "ff869133e5518586")),
    ((4, 4, 3, 4, 256, 16, 32.0, [171, 496, 239], 105, 64),
     ([206, 567, 639], "d0ff1282b68e8457")),
    ((4, 4, 3, 4, 512, 16, 4.0, [314, 433], 107, 64),
     ([1765, 3065], "960948ec21a4303a")),
    ((8, 2, 3, 8, 1024, 16, 16.0, [37, 107, 48, 98], 113, 64),
     ([114, 364, 412, 512], "04bf71c12525d7de")),
    ((2, 4, 2, 8, 1024, 4, 64.0, [2, 41], 118, 30),
     ([11, 82], "92b5fdfbdd6f3564")),
    ((2, 8, 2, 4, 1024, 8, 2.0, [129, 269, 476], 123, 64),
     ([1044, 2693, 5422], "69767768ff731993")),
]


@pytest.mark.parametrize(
    "shape, expected", PINNED_PIPELINE,
    ids=[f"seed{shape[8]}" for shape, _ in PINNED_PIPELINE],
)
def test_pinned_completion_cycles_and_digest(shape, expected):
    p, leaves, lam, record_bytes, batch_bytes, presort, bank, lengths, seed, bits = shape
    arrays = []
    for index, length in enumerate(lengths):
        rng = random.Random(seed * 10 + index)
        arrays.append([rng.randrange(0, 1 << bits) for _ in range(length)])
    pipeline = PipelineSimulation(
        p=p, leaves=leaves, lambda_pipe=lam, record_bytes=record_bytes,
        presort_run=presort, bank_bytes_per_cycle=bank, batch_bytes=batch_bytes,
    )
    total = pipeline.run(arrays)
    completions = [pipeline.completion_cycles[i] for i in range(len(arrays))]
    digest = content_digest(np.concatenate([pipeline.outputs[i] for i in range(len(arrays))]))
    assert (completions, digest) == expected
    assert total == completions[-1] + 1
    for index, array in enumerate(arrays):
        assert pipeline.outputs[index].tolist() == sorted(array)
