"""Cycle-level AMT pipelining (§III-A3, Fig. 4).

Chains two or more AMTs so that "each merge stage of the sorting
procedure is executed on a different AMT": while array ``i`` is being
merged by stage 2, array ``i+1`` occupies stage 1.  Each inter-stage hop
goes through a DRAM bank, modelled as a run buffer with the bank's
bandwidth on both sides.

The simulation drives a queue of arrays through the pipeline and records
when each array's sorted output completes, so tests can verify the
paper's claim directly: after the pipeline fills, sorted arrays emerge
at a constant cadence of one array per array-interval — the I/O bus
never idles (§III-A3).

Stages hand whole sorted-run sets across DRAM banks, so each (stage,
array) pass is one :func:`~repro.hw.tree.simulate_merge` call, and the
schedule is a flow shop: stage ``i`` starts array ``j`` once stage
``i - 1`` has finished it and stage ``i`` has finished array ``j - 1``,

    finish(i, j) = max(finish(i - 1, j), finish(i, j - 1)) + cycles(i, j)

An array completes on cycle ``finish(last stage, j) - 1``.

Scale note: like the rest of :mod:`repro.hw`, this is for laptop-scale
inputs; each stage's fan-in must cover the whole array
(``presort_run * leaves**stage_count >= n_records``, Eq. 5's depth bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.engine.stage import split_into_runs
from repro.errors import ConfigurationError, SimulationError
from repro.hw.tree import simulate_merge
from repro.parallel.shm import as_uint64_keys


@dataclass
class PipelineSimulation:
    """Drives a queue of arrays through λ_pipe chained AMT stages.

    Parameters
    ----------
    p / leaves / lambda_pipe:
        The pipeline's configuration (all stages share p and leaves,
        §III-A).
    presort_run:
        Input arrays arrive as sorted runs of this length (the
        presorter's output).
    bank_bytes_per_cycle:
        Per-stage DRAM-bank budget (§IV-C: "each AMT saturates the
        bandwidth capacity of one bank").
    """

    p: int = 4
    leaves: int = 4
    lambda_pipe: int = 2
    record_bytes: int = 4
    presort_run: int = 16
    bank_bytes_per_cycle: float = 64.0
    batch_bytes: int = 512

    stage_busy_cycles: list[int] = field(init=False, default_factory=list)
    completion_cycles: dict[int, int] = field(init=False, default_factory=dict)
    outputs: dict[int, np.ndarray] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.lambda_pipe < 2:
            raise ConfigurationError("pipeline needs >= 2 stages")

    # ------------------------------------------------------------------
    def capacity_records(self) -> int:
        """Eq. 5's depth bound for this pipeline."""
        return self.presort_run * self.leaves**self.lambda_pipe

    def run(self, arrays: list[Sequence[int]], max_cycles: int = 5_000_000) -> int:
        """Sort every array; returns total cycles.

        Arrays hold keys in ``[0, 2**64)``.  Completion cycles per array
        land in :attr:`completion_cycles`; sorted outputs in
        :attr:`outputs`; each stage's summed merge cycles in
        :attr:`stage_busy_cycles`.
        """
        queued = []
        for index, array in enumerate(arrays):
            if len(array) > self.capacity_records():
                raise ConfigurationError(
                    f"array {index} exceeds the Eq. 5 pipeline capacity "
                    f"({len(array)} > {self.capacity_records()})"
                )
            keys = as_uint64_keys(array)
            queued.append(split_into_runs(keys, self.presort_run) or [keys])

        self.stage_busy_cycles = [0] * self.lambda_pipe
        stage_free = [0] * self.lambda_pipe  # finish(i, j - 1)
        for index, runs in enumerate(queued):
            ready = 0  # finish(i - 1, j)
            for stage in range(self.lambda_pipe):
                start = max(ready, stage_free[stage])
                try:
                    runs, stats = simulate_merge(
                        p=self.p,
                        leaves=self.leaves,
                        runs=runs,
                        record_bytes=self.record_bytes,
                        read_bytes_per_cycle=self.bank_bytes_per_cycle,
                        write_bytes_per_cycle=self.bank_bytes_per_cycle,
                        batch_bytes=self.batch_bytes,
                        max_cycles=max_cycles - start,
                    )
                except SimulationError as exc:
                    raise SimulationError(
                        f"pipeline did not finish within {max_cycles} cycles: {exc}"
                    ) from exc
                ready = stage_free[stage] = start + stats.cycles
                self.stage_busy_cycles[stage] += stats.cycles
            if len(runs) != 1:
                raise SimulationError(
                    f"array {index} left the pipeline in "
                    f"{len(runs)} runs; pipeline too shallow"
                )
            self.completion_cycles[index] = ready - 1
            self.outputs[index] = runs[0]
        return stage_free[-1]

    # ------------------------------------------------------------------
    def completion_intervals(self) -> list[int]:
        """Cycles between consecutive array completions (the cadence)."""
        ordered = [self.completion_cycles[i] for i in sorted(self.completion_cycles)]
        return [b - a for a, b in zip(ordered, ordered[1:])]
