"""Model-vs-simulator validation (§VI-B).

The paper validates the performance model against hardware measurements
("All sorting time results are within 10% of those predicted by our
performance model") and the resource model against synthesis reports
("within 5%").  Here the cycle-level simulator plays the hardware's role:
:func:`validate_performance` runs real merge stages through
:func:`repro.hw.tree.simulate_merge` and compares the elapsed cycles with
Eq. 1's prediction; :func:`validate_resources` compares Eq. 8 against the
structural component enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.configuration import AmtConfig
from repro.core.parameters import HardwareParams, MergerArchParams
from repro.core.performance import PerformanceModel
from repro.core.resources import ResourceModel
from repro.engine.stage import split_into_runs
from repro.errors import ConfigurationError
from repro.hw.clock import DEFAULT_MAX_CYCLES
from repro.hw.tree import merge_to_one_run
from repro.records.workloads import runs_of_sorted


@dataclass(frozen=True)
class ValidationPoint:
    """One measured-vs-predicted comparison."""

    config: AmtConfig
    n_records: int
    measured: float
    predicted: float

    @property
    def relative_error(self) -> float:
        """|measured - predicted| / measured."""
        if self.measured == 0:
            return float("inf")
        return abs(self.measured - self.predicted) / self.measured


def simulate_sort_cycles(
    config: AmtConfig,
    n_records: int,
    record_bytes: int,
    hardware: HardwareParams,
    frequency_hz: float,
    presort_run: int = 16,
    seed: int = 0,
) -> tuple[int, int]:
    """Run a full multi-stage sort in the cycle simulator.

    Returns ``(total_cycles, stages)``.  The data starts as presorted
    runs of ``presort_run`` records (the presorter is pipelined with
    loading and adds no stage time, §VI-C1) and passes through the tree
    until one run remains, exactly like steps 2-3 of Fig. 2.  The whole
    sort shares one cycle budget, :data:`~repro.hw.clock.DEFAULT_MAX_CYCLES`.
    """
    if n_records < 1:
        raise ConfigurationError("need at least one record")
    data = runs_of_sorted(n_records, seed=seed, run_length=presort_run)
    _run, cycles, stages = merge_to_one_run(
        split_into_runs(data, presort_run, presorted=True),
        DEFAULT_MAX_CYCLES,
        p=config.p,
        leaves=config.leaves,
        record_bytes=record_bytes,
        bytes_per_cycle=hardware.beta_dram / frequency_hz,
        batch_bytes=min(hardware.batch_bytes, 1024),
    )
    return cycles, stages


def validate_performance(
    configs: list[AmtConfig],
    n_records: int,
    hardware: HardwareParams,
    arch: MergerArchParams,
    presort_run: int = 16,
    seed: int = 0,
) -> list[ValidationPoint]:
    """Measured (simulated) vs Eq.-1-predicted sorting time per config."""
    model = PerformanceModel(hardware=hardware, arch=arch, presort_run=presort_run)
    points = []
    for config in configs:
        cycles, _ = simulate_sort_cycles(
            config,
            n_records,
            arch.record_bytes,
            hardware,
            arch.frequency_hz,
            presort_run=presort_run,
            seed=seed,
        )
        measured = cycles / arch.frequency_hz
        stages = model.stage_count(config, n_records)
        rate = min(model.amt_throughput(config), hardware.beta_dram)
        predicted = n_records * arch.record_bytes * stages / rate
        points.append(
            ValidationPoint(
                config=config,
                n_records=n_records,
                measured=measured,
                predicted=predicted,
            )
        )
    return points


def validate_resources(
    configs: list[AmtConfig],
    hardware: HardwareParams,
    arch: MergerArchParams,
) -> list[ValidationPoint]:
    """Structural ("synthesis") vs Eq.-8-predicted LUTs per config."""
    resources = ResourceModel(hardware=hardware, library=arch.library)
    points = []
    for config in configs:
        measured = resources.structural_tree_luts(config)
        predicted = resources.lut_eq8(config.p, config.leaves)
        points.append(
            ValidationPoint(
                config=config, n_records=0, measured=measured, predicted=predicted
            )
        )
    return points


def worst_relative_error(points: list[ValidationPoint]) -> float:
    """Largest deviation across a validation sweep."""
    return max(point.relative_error for point in points)


def geometric_mean_error(points: list[ValidationPoint]) -> float:
    """Geometric mean of (1 + relative error) minus 1."""
    log_sum = sum(math.log1p(p.relative_error) for p in points)
    return math.expm1(log_sum / len(points))
