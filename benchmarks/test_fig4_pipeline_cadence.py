"""Fig. 4 / §III-A3: pipelined AMTs keep the I/O bus at constant rate.

Fig. 4 is the paper's pipelined-configuration diagram; its testable
claim is behavioural: "the pipelined approach ensures a constant
throughput of sorted data to the I/O bus."  This bench drives a queue of
arrays through the cycle-level two-stage pipeline and measures the
completion cadence: after the fill, sorted arrays must emerge at even
intervals close to the single-stage service time (not the two-stage
sum), and the pipeline's makespan must beat back-to-back execution.
"""

from __future__ import annotations

import random


from benchmarks.conftest import run_once
from repro.analysis.tables import render_table
from repro.hw.pipeline import PipelineSimulation

ARRAY_COUNT = 6
ARRAY_RECORDS = 256


def run_pipeline():
    rng = random.Random(4)
    arrays = [
        [rng.randrange(1, 10**6) for _ in range(ARRAY_RECORDS)]
        for _ in range(ARRAY_COUNT)
    ]
    pipeline = PipelineSimulation(p=4, leaves=4, lambda_pipe=2, presort_run=16)
    total = pipeline.run(arrays)
    sequential = 0
    for array in arrays:
        fresh = PipelineSimulation(p=4, leaves=4, lambda_pipe=2, presort_run=16)
        sequential += fresh.run([array])
    return pipeline, total, sequential, arrays


def test_fig4_pipeline_cadence(benchmark, save_report):
    pipeline, total, sequential, arrays = run_once(benchmark, run_pipeline)

    intervals = pipeline.completion_intervals()
    rows = [
        (index, pipeline.completion_cycles[index])
        for index in sorted(pipeline.completion_cycles)
    ]
    report = render_table(
        ("array", "completion cycle"),
        rows,
        title="Fig. 4 / §III-A3 - pipelined completion cadence "
              f"(intervals: {intervals})",
    )
    report += (
        f"\npipelined makespan: {total} cycles; "
        f"back-to-back: {sequential} cycles "
        f"({sequential / total:.2f}x slower)\n"
    )
    save_report("fig4_pipeline_cadence", report)

    for index, array in enumerate(arrays):
        assert pipeline.outputs[index].tolist() == sorted(array)
    # Constant cadence after the fill.
    steady = intervals[1:]
    assert max(steady) - min(steady) <= 0.2 * max(steady)
    # Overlap wins: the pipeline is meaningfully faster than serial runs.
    assert total < 0.75 * sequential
    benchmark.extra_info["speedup_vs_serial"] = sequential / total
