"""The two-phase SSD sorter (§IV-C, Fig. 6).

Phase one forms DRAM-scale sorted runs through the throughput-optimal
pipeline; the FPGA is reprogrammed; phase two merges the runs through the
latency-optimal wide tree in as few SSD round trips as possible.

The engine executes the data path functionally and takes timing from
:class:`~repro.core.ssd_planner.SsdSortPlan` so the Table V breakdown
and the examples share one source of truth.  The chunk sorts and wide
merges give one sort of the array, so the engine sorts it once and
counts the phases' runs and stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.parameters import ArrayParams
from repro.core.ssd_planner import SsdSortPlan
from repro.engine.results import SortOutcome
from repro.engine.stage import sort_kind
from repro.errors import ConfigurationError
from repro.memory.traffic import TrafficMeter
from repro.obs.runtime import observation
from repro.records.record import RecordFormat, U32


@dataclass
class SsdSorter:
    """Sorts arrays larger than DRAM via the two-phase procedure.

    Parameters
    ----------
    plan:
        The two-phase plan (configurations, run size, hierarchy).
    scale_run_records:
        The engine runs the *data path* at laptop scale: the run size is
        mapped to ``scale_run_records`` records so a few-million-record
        array exercises the same phase structure (stage counts, run
        counts) the plan computes for terabytes.  Timing always comes
        from the plan at its true scale.
    """

    plan: SsdSortPlan = field(default_factory=SsdSortPlan)
    fmt: RecordFormat = U32
    scale_run_records: int = 4096

    def __post_init__(self) -> None:
        if self.scale_run_records < 2:
            raise ConfigurationError("scaled run size must be >= 2 records")

    # ------------------------------------------------------------------
    def sort(self, data: np.ndarray) -> SortOutcome:
        """Functionally sort ``data`` with the two-phase structure.

        ``data`` stands in for an SSD-resident array; run boundaries
        follow ``scale_run_records``.  The returned timing is the plan's
        model for an array with the same *run count* at true scale.
        """
        data = np.asarray(data)
        if data.size == 0:
            return SortOutcome(
                data=data.copy(), seconds=0.0, stages=0,
                record_bytes=self.fmt.width_bytes, mode="model",
            )
        arch = self.plan.arch
        traffic = TrafficMeter()
        total_bytes = data.size * self.fmt.width_bytes
        obs = observation()

        # The two phases' stable merges of stably sorted runs are one
        # sort of the array; the phases below count runs and stages.
        output = np.array(data)
        n_runs = -(-data.size // self.scale_run_records)

        # --- phase one: form sorted runs (pipelined, I/O saturating) ---
        with obs.span("ssd.phase_one", records=int(data.size)):
            output.sort(kind=sort_kind(output.dtype))
            traffic.record_read("ssd", total_bytes)
            traffic.record_write("ssd", total_bytes)
            obs.count("engine.ssd_runs_formed", n_runs)
            obs.count("engine.bytes_read", total_bytes, device="ssd")
            obs.count("engine.bytes_written", total_bytes, device="ssd")

        # --- phase two: wide merges, one SSD round trip per stage ------
        leaves = self.plan.phase_two_config.leaves
        phase_two_stages = 0
        runs = n_runs
        while runs > 1:
            with obs.span("ssd.phase_two", stage=phase_two_stages, runs=runs):
                runs = -(-runs // leaves)
            phase_two_stages += 1
            traffic.record_read("ssd", total_bytes)
            traffic.record_write("ssd", total_bytes)
            obs.count("engine.stage_records", int(data.size), mode="ssd")
            obs.count("engine.bytes_read", total_bytes, device="ssd")
            obs.count("engine.bytes_written", total_bytes, device="ssd")

        # --- timing at true scale --------------------------------------
        true_bytes = self.plan.run_bytes * n_runs
        breakdown = self.plan.plan(ArrayParams.from_bytes(true_bytes, self.fmt))
        return SortOutcome(
            data=output,
            seconds=breakdown.total_seconds,
            stages=phase_two_stages + 1,
            record_bytes=self.fmt.width_bytes,
            mode="model",
            traffic=traffic,
            detail={
                "breakdown": breakdown,
                "scaled_runs": n_runs,
                "true_bytes_modeled": true_bytes,
                "phase_two_stages_executed": phase_two_stages,
            },
        )

    # ------------------------------------------------------------------
    def modeled_breakdown(self, total_bytes: int):
        """Table V breakdown for a true-scale array size."""
        return self.plan.plan(ArrayParams.from_bytes(total_bytes, self.fmt))
