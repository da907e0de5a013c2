"""Pipelined execution: one AMT per merge stage (§III-A3, Fig. 4).

"We can pipeline multiple AMTs in such a way that each merge stage of
the sorting procedure is executed on a different AMT. [...] the
pipelined approach ensures a constant throughput of sorted data to the
I/O bus."

Functionally, a λ_pipe pipeline over one array is just λ_pipe merge
stages, whose output is one sort of the array; the value of pipelining
is *throughput across a queue of arrays*: while array ``i`` is in stage
2, array ``i+1`` occupies stage 1.
:meth:`PipelinedSorter.sort_batch` models that steady state: the batch
finishes after ``fill + (n - 1)`` array-intervals at the Eq. 3 rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.configuration import AmtConfig
from repro.core.parameters import HardwareParams, MergerArchParams
from repro.core.performance import PerformanceModel
from repro.engine.results import SortOutcome
from repro.engine.stage import sort_kind
from repro.errors import ConfigurationError
from repro.memory.traffic import TrafficMeter


@dataclass
class PipelinedSorter:
    """λ_pipe chained AMTs fed from the I/O bus."""

    config: AmtConfig
    hardware: HardwareParams
    arch: MergerArchParams = field(default_factory=MergerArchParams)
    presort_run: int = 256

    def __post_init__(self) -> None:
        if self.config.lambda_pipe < 2:
            raise ConfigurationError(
                "PipelinedSorter needs lambda_pipe >= 2; use AmtSorter for "
                "a single tree"
            )
        if self.config.lambda_unroll != 1:
            raise ConfigurationError(
                "unrolled pipelines: replicate PipelinedSorter per partition"
            )
        self.model = PerformanceModel(
            hardware=self.hardware, arch=self.arch, presort_run=self.presort_run
        )

    # ------------------------------------------------------------------
    def capacity_records(self) -> float:
        """Eq. 5: the largest array this pipeline can sort."""
        return self.model.pipeline_capacity_records(self.config)

    def check_capacity(self, n_records: int) -> None:
        """Raise when an array exceeds the Eq. 5 pipeline capacity."""
        capacity = self.capacity_records()
        if n_records > capacity:
            raise ConfigurationError(
                f"{n_records:,} records exceed the Eq. 5 pipeline capacity "
                f"of {capacity:,.0f} (lambda_pipe={self.config.lambda_pipe}, "
                f"leaves={self.config.leaves}, presort={self.presort_run})"
            )

    @property
    def throughput_bytes(self) -> float:
        """Eq. 3 steady-state rate."""
        return self.model.pipeline_throughput(self.config)

    # ------------------------------------------------------------------
    def sort(self, data: np.ndarray) -> SortOutcome:
        """Sort one array: λ_pipe stages, Eq. 4 latency."""
        data = np.asarray(data)
        if data.size == 0:
            return SortOutcome(
                data=data.copy(), seconds=0.0, stages=0,
                record_bytes=self.arch.record_bytes, mode="model",
            )
        self.check_capacity(data.size)
        # Every array passes through all λ stages (data cannot move
        # backwards in the pipeline), and the capacity check guarantees
        # they leave one run: their stable merges are one sort.
        output = np.array(data)
        output.sort(kind=sort_kind(output.dtype))
        total_bytes = data.size * self.arch.record_bytes
        seconds = total_bytes * self.config.lambda_pipe / self.throughput_bytes
        traffic = TrafficMeter()
        for _ in range(self.config.lambda_pipe):
            traffic.record_read("dram", total_bytes)
            traffic.record_write("dram", total_bytes)
        return SortOutcome(
            data=output,
            seconds=seconds,
            stages=self.config.lambda_pipe,
            record_bytes=self.arch.record_bytes,
            mode="model",
            traffic=traffic,
            detail={"lambda_pipe": self.config.lambda_pipe},
        )

    def simulate_batch(
        self, arrays: list[np.ndarray]
    ) -> tuple[list[np.ndarray], float]:
        """Cycle-accurate queue sort via :mod:`repro.hw.pipeline`.

        Drives the arrays through λ_pipe chained cycle-level stages
        (per-bank budgets) and returns the sorted arrays plus the
        simulated makespan in seconds.  Laptop-scale arrays only; the
        Eq. 5 depth bound applies per array.
        """
        from repro.hw.pipeline import PipelineSimulation

        if not arrays:
            return [], 0.0
        simulation = PipelineSimulation(
            p=self.config.p,
            leaves=self.config.leaves,
            lambda_pipe=self.config.lambda_pipe,
            record_bytes=self.arch.record_bytes,
            presort_run=min(self.presort_run, 64),
            bank_bytes_per_cycle=(
                self.hardware.beta_dram
                / self.config.lambda_pipe
                / self.arch.frequency_hz
            ),
            batch_bytes=min(self.hardware.batch_bytes, 1024),
        )
        cycles = simulation.run(arrays)
        outputs = [
            np.asarray(simulation.outputs[index], dtype=np.asarray(arrays[index]).dtype)
            for index in range(len(arrays))
        ]
        return outputs, cycles / self.arch.frequency_hz

    def sort_batch(self, arrays: list[np.ndarray]) -> tuple[list[np.ndarray], float]:
        """Sort a queue of arrays at pipeline steady state.

        Returns the sorted arrays and the modeled makespan: the first
        array pays the full Eq. 4 fill latency; each subsequent array
        adds one array-interval at the Eq. 3 rate (the I/O bus never
        idles, §III-A3).
        """
        if not arrays:
            return [], 0.0
        sorted_arrays = [self.sort(array) for array in arrays]
        fill = sorted_arrays[0].seconds
        steady = sum(
            outcome.total_bytes / self.throughput_bytes
            for outcome in sorted_arrays[1:]
        )
        return [outcome.data for outcome in sorted_arrays], fill + steady
