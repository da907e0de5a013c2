"""Cycle-level unrolled execution: λ AMTs on banked memory (§III-A2, §IV-B).

The paper validates unrolling by running multiple AMTs concurrently,
each saturating its own DRAM bank(s) (§VI-D).  This module simulates
that arrangement: λ independent sorter units, each with a per-bank
bandwidth budget, each sorting its own address-range partition through
all of its merge stages.  The final cross-partition merges (the idling
scheme of §IV-B) run afterwards through a shrunken tree on the
aggregate bandwidth.

Every merge stage, in a unit or in the final merges, is one
:func:`~repro.hw.tree.simulate_merge` call; a unit's cycle count is the
sum of its stages'.  The units share no state, so each runs on its own
(possibly in a pool worker) and finishes on exactly the cycle it would
in one joint loop.  Key observable: the makespan of the parallel phase
equals the *slowest unit*, not the sum — which is precisely the
linear-scaling claim the paper demonstrates on DRAM banks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.engine.stage import split_into_runs
from repro.errors import ConfigurationError, SimulationError
from repro.hw.clock import DEFAULT_MAX_CYCLES
from repro.hw.tree import merge_to_one_run
from repro.parallel.plan import ParallelPlan


def sort_unit(
    chunk: np.ndarray, max_cycles: int, presort_run: int, **shape
) -> tuple[np.ndarray, int, int]:
    """One unrolled unit: sort a uint64 ``chunk`` from presorted runs.

    ``shape`` holds :func:`~repro.hw.tree.merge_to_one_run`'s keyword
    arguments.  Returns the sorted chunk, the unit's cycle count and its
    stage count.  A unit that cannot finish within ``max_cycles`` raises
    :class:`~repro.errors.SimulationError` carrying ``simulate_merge``'s
    stall diagnosis.
    """
    runs = split_into_runs(chunk, presort_run) or [chunk]
    try:
        return merge_to_one_run(runs, max_cycles, **shape)
    except SimulationError as exc:
        raise SimulationError(
            f"unrolled phase did not finish within {max_cycles} cycles: {exc}"
        ) from exc


@dataclass
class UnrolledSimulation:
    """λ address-range AMTs on per-bank budgets, plus the final merges.

    Parameters
    ----------
    p / leaves / lambda_unroll:
        Per-tree shape and the unroll factor.
    total_bytes_per_cycle:
        Aggregate memory budget; each unit gets a 1/λ share (its bank).
    """

    p: int = 8
    leaves: int = 8
    lambda_unroll: int = 4
    record_bytes: int = 4
    presort_run: int = 16
    total_bytes_per_cycle: float = 128.0
    batch_bytes: int = 512

    unit_cycles: list[int] = field(init=False, default_factory=list)
    stages_done: int = field(init=False, default=0)
    parallel_cycles: int = field(init=False, default=0)
    final_merge_cycles: int = field(init=False, default=0)
    output: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.lambda_unroll < 2:
            raise ConfigurationError("unrolled simulation needs lambda >= 2")

    # ------------------------------------------------------------------
    def run(
        self,
        array: Sequence[int],
        max_cycles: int = 5_000_000,
        plan: ParallelPlan = ParallelPlan(),
    ) -> int:
        """Sort ``array``; returns total cycles (parallel + final merges).

        ``array`` holds keys in ``[0, 2**64)`` (a list or an integer
        array).  Each unit sorts one address-range chunk on a 1/λ share
        of the budget within ``max_cycles``; the final merges keep
        ``simulate_merge``'s default budget.  ``plan`` (serial by default)
        only decides which process runs each unit; the task list, the
        ``max()`` reduction and the final merges are the same for every
        plan.  :attr:`stages_done` counts the slowest unit's stages plus
        the final merges.
        """
        from repro.parallel.api import simulate_units_sharded

        shape = {
            "p": self.p,
            "leaves": self.leaves,
            "record_bytes": self.record_bytes,
            "batch_bytes": self.batch_bytes,
        }
        unit_shape = {
            **shape,
            "presort_run": self.presort_run,
            "bytes_per_cycle": self.total_bytes_per_cycle / self.lambda_unroll,
        }
        ranges, results = simulate_units_sharded(
            array, self.lambda_unroll, unit_shape, max_cycles, plan
        )
        self.unit_cycles = [cycles for cycles, _stages in results]
        self.parallel_cycles = max(self.unit_cycles)

        # Final merges: λ sorted ranges through a shrunken tree at the
        # aggregate budget (only this phase idles units, §IV-B).
        merged, self.final_merge_cycles, final_stages = merge_to_one_run(
            ranges, DEFAULT_MAX_CYCLES,
            bytes_per_cycle=self.total_bytes_per_cycle, **shape,
        )
        self.stages_done = max(stages for _cycles, stages in results) + final_stages
        self.output = merged
        return self.parallel_cycles + self.final_merge_cycles
