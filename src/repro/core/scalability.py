"""End-to-end scalability model: latency per GB across 0.5 GB - 1 PB+
(Fig. 13, the Bonsai rows of Table I).

Two regimes:

* **DRAM regime** (input fits DRAM): the implemented latency-optimized
  DRAM sorter — AMT(32, 64) with a 16-record presorter at the measured
  29 GB/s — sorts in ``ceil(log_64(N/16))`` stages (§VI-C1).
* **SSD regime** (input exceeds DRAM): the two-phase SSD sorter (§IV-C),
  planned by :class:`~repro.core.ssd_planner.SsdSortPlan`.

Fig. 13's four latency steps emerge from the stage arithmetic:
an extra DRAM stage at 2 GB, the DRAM-to-SSD switch past 64 GB, and
extra phase-two stages whenever the run count outgrows ``l**stages``.
The figure's own arithmetic implies 64 GB phase-one runs (the 32 TB
step = 256 x 64 GB x 2), so that is this model's default run size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.configuration import AmtConfig
from repro.core.parameters import ArrayParams, MergerArchParams
from repro.core.ssd_planner import SsdSortPlan
from repro.errors import ConfigurationError
from repro.memory.dram import DdrDram
from repro.memory.hierarchy import TwoTierHierarchy
from repro.memory.ssd import Ssd
from repro.records.record import RecordFormat, U32
from repro.units import GB, PB, ceil_log, ms_per_gb


@dataclass(frozen=True)
class ScalabilityPoint:
    """One point of the Fig. 13 curve."""

    total_bytes: int
    seconds: float
    regime: str
    stages: int

    @property
    def latency_ms_per_gb(self) -> float:
        """Fig. 13's y-axis."""
        return ms_per_gb(self.seconds, self.total_bytes)

    @property
    def throughput_bytes(self) -> float:
        """Sorted bytes per second at this size."""
        return self.total_bytes / self.seconds


@dataclass
class ScalabilityModel:
    """Latency model spanning the DRAM and SSD regimes.

    Parameters
    ----------
    dram_config:
        The implemented DRAM sorter (§VI-C1 uses AMT(32, 64)).
    presort_run:
        DRAM sorter presorter run length (16).
    dram_bandwidth:
        Effective DRAM rate; the measured 29 GB/s reproduces Table I's
        172 ms/GB row exactly (5 stages / 29 GB/s).
    ssd_run_bytes:
        Phase-one run size for the SSD regime; 64 GB reproduces Fig. 13's
        step placement (see module docstring).
    """

    dram_config: AmtConfig = AmtConfig(p=32, leaves=64)
    presort_run: int = 16
    dram_bandwidth: float = 29 * GB
    fmt: RecordFormat = U32
    arch: MergerArchParams = field(default_factory=MergerArchParams)
    hierarchy: TwoTierHierarchy = field(
        default_factory=lambda: TwoTierHierarchy(
            fast=DdrDram(), slow=Ssd(capacity_bytes=10 * PB)  # effectively unbounded
        )
    )
    ssd_run_bytes: int = 64 * GB

    def __post_init__(self) -> None:
        if self.dram_bandwidth <= 0:
            raise ConfigurationError("DRAM bandwidth must be positive")
        self._ssd_plan = SsdSortPlan(
            hierarchy=self.hierarchy,
            arch=self.arch,
            run_bytes=self.ssd_run_bytes,
        )

    # ------------------------------------------------------------------
    def dram_stages(self, total_bytes: int) -> int:
        """Merge stages of the DRAM sorter for an input of ``total_bytes``."""
        n_records = max(1, total_bytes // self.fmt.width_bytes)
        effective = max(1, math.ceil(n_records / self.presort_run))
        return max(1, ceil_log(effective, self.dram_config.leaves))

    def dram_seconds(self, total_bytes: int) -> float:
        """DRAM-regime sorting time: stages x streamed passes."""
        rate = min(
            self.arch.amt_throughput_bytes(self.dram_config.p), self.dram_bandwidth
        )
        return total_bytes * self.dram_stages(total_bytes) / rate

    # ------------------------------------------------------------------
    def point(self, total_bytes: int) -> ScalabilityPoint:
        """Latency at one input size, choosing the regime automatically."""
        if total_bytes <= 0:
            raise ConfigurationError(f"input size must be positive, got {total_bytes}")
        if self.hierarchy.fast.fits(total_bytes):
            return ScalabilityPoint(
                total_bytes=total_bytes,
                seconds=self.dram_seconds(total_bytes),
                regime="dram",
                stages=self.dram_stages(total_bytes),
            )
        array = ArrayParams.from_bytes(total_bytes, self.fmt)
        breakdown = self._ssd_plan.plan(array)
        return ScalabilityPoint(
            total_bytes=total_bytes,
            seconds=breakdown.total_seconds,
            regime="ssd",
            stages=breakdown.phase_two_stages,
        )

    def curve(self, sizes_bytes: list[int]) -> list[ScalabilityPoint]:
        """The Fig. 13 series over a list of input sizes."""
        return [self.point(size) for size in sizes_bytes]

    # ------------------------------------------------------------------
    def breakpoints(self, sizes_bytes: list[int], threshold: float = 1.05) -> list[dict]:
        """Where latency/GB jumps between consecutive sampled sizes.

        Returns dicts with the position, the jump factor and the cause —
        the annotations on Fig. 13's arrows.
        """
        points = self.curve(sorted(sizes_bytes))
        jumps = []
        for previous, current in zip(points, points[1:]):
            factor = current.latency_ms_per_gb / previous.latency_ms_per_gb
            if factor < threshold:
                continue
            if previous.regime == "dram" and current.regime == "ssd":
                cause = "switch to SSD sorter"
            elif previous.regime == "dram":
                cause = "extra stage"
            else:
                cause = "extra stage in second phase"
            jumps.append(
                {
                    "at_bytes": current.total_bytes,
                    "factor": factor,
                    "cause": cause,
                }
            )
        return jumps

    @staticmethod
    def paper_sizes() -> list[int]:
        """Fig. 13's sampled sizes: 0.5 GB doubling up to ~1024 TB
        (22 points)."""
        return [(GB // 2) << k for k in range(22)]
