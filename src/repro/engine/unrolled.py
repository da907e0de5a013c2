"""Unrolled execution: multiple AMTs working in parallel (§III-A2, §IV-B).

Two variants, mirroring the paper's two data-distribution schemes:

* **Range partitioning** — "we first partition the data into λ_unrl
  equal-sized disjoint subsets of non-overlapping ranges and then have
  each AMT work on one subset independently".  The sorted subsets
  concatenate directly; partitioning overlaps the first merge stage and
  costs no extra time.
* **Address ranges** — "another approach is to forgo partitioning and let
  each AMT sort a pre-defined address range", after which the sorted
  ranges are merged by a dwindling subset of the AMTs (the HBM scheme of
  §IV-B, where "half of the AMTs are idled" each final stage).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro.core.configuration import AmtConfig
from repro.core.parameters import HardwareParams, MergerArchParams
from repro.engine.results import SortOutcome
from repro.engine.sorter import AmtSorter
from repro.engine.stage import sort_kind
from repro.errors import ConfigurationError
from repro.memory.traffic import TrafficMeter
from repro.obs.runtime import observation
from repro.parallel.plan import ParallelPlan


@dataclass
class UnrolledSorter:
    """λ_unrl independent AMTs over one array.

    ``parallel`` (serial by default) may run the cycle-simulated units
    of :meth:`simulate` in a process pool, one task per unit; results are
    bit-identical to the serial loop for every ``jobs`` setting.  Model
    mode always sorts its partitions in a serial loop: each one is a few
    in-place row sorts, cheaper than shipping it to a worker and back.
    """

    config: AmtConfig
    hardware: HardwareParams
    arch: MergerArchParams = field(default_factory=MergerArchParams)
    presort_run: int = 16
    partitioning: Literal["range", "address"] = "range"
    parallel: ParallelPlan = field(default_factory=ParallelPlan)

    def __post_init__(self) -> None:
        if self.config.lambda_unroll < 2:
            raise ConfigurationError(
                "UnrolledSorter needs lambda_unroll >= 2; use AmtSorter "
                "for a single tree"
            )
        if self.config.lambda_pipe != 1:
            raise ConfigurationError("combine pipelining via PipelinedSorter")
        single = AmtConfig(p=self.config.p, leaves=self.config.leaves)
        self._tree_sorter = AmtSorter(
            config=single,
            hardware=self._per_amt_hardware(),
            arch=self.arch,
            presort_run=self.presort_run,
        )

    def _per_amt_hardware(self) -> HardwareParams:
        """Each AMT sees a 1/λ share of DRAM bandwidth (§III-A2)."""
        lam = self.config.lambda_unroll
        return HardwareParams(
            beta_dram=self.hardware.beta_dram / lam,
            beta_io=self.hardware.beta_io,
            c_dram=max(1, self.hardware.c_dram // lam),
            c_bram=self.hardware.c_bram,
            c_lut=self.hardware.c_lut,
            batch_bytes=self.hardware.batch_bytes,
        )

    # ------------------------------------------------------------------
    def simulate(self, data: np.ndarray) -> SortOutcome:
        """Cycle-accurate address-range sort via :mod:`repro.hw.banks`.

        Runs λ concurrent sorter units on per-bank budgets plus the
        idling final merges; intended for laptop-scale arrays.  Timing
        comes from the simulated clock at ``arch.frequency_hz``.  The
        units share no state, so ``parallel`` only decides which process
        runs each one; outputs and cycle counts are the same for every
        plan.
        """
        from repro.hw.banks import UnrolledSimulation

        data = np.asarray(data)
        if data.size == 0:
            return SortOutcome(
                data=data.copy(), seconds=0.0, stages=0,
                record_bytes=self.arch.record_bytes, mode="simulate",
            )
        simulation = UnrolledSimulation(
            p=self.config.p,
            leaves=self.config.leaves,
            lambda_unroll=self.config.lambda_unroll,
            record_bytes=self.arch.record_bytes,
            presort_run=self.presort_run,
            total_bytes_per_cycle=self.hardware.beta_dram / self.arch.frequency_hz,
            batch_bytes=min(self.hardware.batch_bytes, 1024),
        )
        with observation().span(
            "unrolled.simulate", records=int(data.size),
            lambda_unroll=self.config.lambda_unroll,
        ) as span:
            cycles = simulation.run(data, plan=self.parallel)
            span.set(cycles=cycles)
        return SortOutcome(
            data=np.asarray(simulation.output, dtype=data.dtype),
            seconds=cycles / self.arch.frequency_hz,
            stages=simulation.stages_done,
            record_bytes=self.arch.record_bytes,
            mode="simulate",
            detail={
                "parallel_cycles": simulation.parallel_cycles,
                "final_merge_cycles": simulation.final_merge_cycles,
            },
        )

    def _sort_partitions(self, partitions: list[np.ndarray]) -> list[SortOutcome]:
        """Model-mode sort of the λ independent partitions, in order."""
        with observation().span(
            "unrolled.partitions", partitions=len(partitions)
        ):
            return [self._tree_sorter.sort(partition) for partition in partitions]

    def sort(self, data: np.ndarray) -> SortOutcome:
        """Sort an array across the unrolled AMTs; returns data + timing."""
        data = np.asarray(data)
        if data.size == 0:
            return SortOutcome(
                data=data.copy(), seconds=0.0, stages=0,
                record_bytes=self.arch.record_bytes, mode="model",
            )
        with observation().span(
            "unrolled.sort", partitioning=self.partitioning,
            records=int(data.size), lambda_unroll=self.config.lambda_unroll,
        ):
            if self.partitioning == "range":
                return self._sort_range_partitioned(data)
            return self._sort_address_ranges(data)

    # ------------------------------------------------------------------
    def _sort_range_partitioned(self, data: np.ndarray) -> SortOutcome:
        lam = self.config.lambda_unroll
        # Non-overlapping value ranges of near-equal population: exact
        # quantile splitters (the hardware pipelines this with stage one).
        order_stats = np.quantile(data, np.linspace(0, 1, lam + 1)[1:-1])
        boundaries = np.concatenate(
            ([data.min()], order_stats.astype(data.dtype), [data.max()])
        )
        partitions = []
        for index in range(lam):
            low = boundaries[index]
            high = boundaries[index + 1]
            if index == 0:
                mask = data <= high
            elif index == lam - 1:
                mask = data > low
            else:
                mask = (data > low) & (data <= high)
            partitions.append(data[mask])
        outcomes = self._sort_partitions(partitions)
        merged = np.concatenate([outcome.data for outcome in outcomes])
        seconds = max(outcome.seconds for outcome in outcomes) if outcomes else 0.0
        traffic = TrafficMeter()
        for outcome in outcomes:
            traffic.merge(outcome.traffic)
        return SortOutcome(
            data=merged,
            seconds=seconds,
            stages=max(outcome.stages for outcome in outcomes),
            record_bytes=self.arch.record_bytes,
            mode="model",
            traffic=traffic,
            detail={"partitioning": "range", "lambda_unroll": lam},
        )

    # ------------------------------------------------------------------
    def _sort_address_ranges(self, data: np.ndarray) -> SortOutcome:
        lam = self.config.lambda_unroll
        chunk = -(-data.size // lam)
        outcomes = self._sort_partitions(
            [data[start : start + chunk] for start in range(0, data.size, chunk)]
        )
        seconds = max(outcome.seconds for outcome in outcomes)
        stages = max(outcome.stages for outcome in outcomes)
        traffic = TrafficMeter()
        for outcome in outcomes:
            traffic.merge(outcome.traffic)
        # Final merges with idling AMTs: ranges shrink by `leaves` per
        # stage; each stage re-streams all data at the active AMTs'
        # aggregate rate.  Their stable merges of the sorted ranges are
        # one sort of the ranges laid end to end.
        output = np.concatenate([outcome.data for outcome in outcomes])
        if len(outcomes) > 1:
            output.sort(kind=sort_kind(output.dtype))
        runs = len(outcomes)
        per_amt_rate = min(
            self.arch.amt_throughput_bytes(self.config.p),
            self.hardware.beta_dram / lam,
        )
        total_bytes = data.size * self.arch.record_bytes
        extra_stages = 0
        obs = observation()
        while runs > 1:
            with obs.span("unrolled.final_merge", stage=extra_stages, runs=runs):
                groups = -(-runs // self.config.leaves)
            seconds += total_bytes / (groups * per_amt_rate)
            traffic.record_read("dram", total_bytes)
            traffic.record_write("dram", total_bytes)
            obs.count("engine.final_merge_records", int(data.size))
            obs.count("engine.bytes_read", total_bytes)
            obs.count("engine.bytes_written", total_bytes)
            runs = groups
            extra_stages += 1
        return SortOutcome(
            data=output,
            seconds=seconds,
            stages=stages + extra_stages,
            record_bytes=self.arch.record_bytes,
            mode="model",
            traffic=traffic,
            detail={
                "partitioning": "address",
                "lambda_unroll": lam,
                "final_merge_stages": extra_stages,
            },
        )
