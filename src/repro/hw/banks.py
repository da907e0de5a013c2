"""Cycle-level unrolled execution: λ AMTs on banked memory (§III-A2, §IV-B).

The paper validates unrolling by running multiple AMTs concurrently,
each saturating its own DRAM bank(s) (§VI-D).  This module simulates
that arrangement: λ independent sorter units share one clock, each with
a per-bank bandwidth budget, each sorting its own address-range
partition through all of its merge stages.  The final cross-partition
merges (the idling scheme of §IV-B) run afterwards through a shrunken
tree on the aggregate bandwidth.

The units share no state, so each is ticked to completion on its own
(possibly in a pool worker) and finishes on exactly the cycle it would
in one joint loop.  Key observable: the makespan of the parallel phase
equals the *slowest unit*, not the sum — which is precisely the
linear-scaling claim the paper demonstrates on DRAM banks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.hw.loader import DataLoader, OutputWriter, make_feeds
from repro.hw.tree import AmtTree, simulate_merge
from repro.parallel.plan import ParallelPlan


@dataclass
class _SorterUnit:
    """One AMT sorting one partition through successive stages."""

    p: int
    leaves: int
    record_bytes: int
    bytes_per_cycle: float
    batch_bytes: int
    presort_run: int

    runs: list[list[int]] = field(default_factory=list)
    _parts: dict | None = field(default=None, repr=False)
    done: bool = False
    output: list[int] = field(default_factory=list)
    busy_cycles: int = 0
    stages_done: int = 0

    @classmethod
    def run_to_completion(
        cls, array: list[int], max_cycles: int, **shape
    ) -> "_SorterUnit":
        """Build a unit, sort ``array`` through all its stages, return it.

        The unrolled simulation's one tick loop.  Units share no state,
        so a unit ticked alone visits exactly the cycles it would in a
        joint loop over all λ units, and its ``busy_cycles`` is the cycle
        it finishes on.
        """
        unit = cls(**shape)
        unit.runs = [
            sorted(array[start : start + unit.presort_run])
            for start in range(0, len(array), unit.presort_run)
        ] or [[]]
        while not unit.done:
            if unit.busy_cycles >= max_cycles:
                raise SimulationError(
                    f"unrolled phase did not finish within {max_cycles} cycles"
                )
            unit.tick(unit.busy_cycles)
        if len(unit.output) != len(array):
            raise SimulationError(
                f"record count mismatch: {len(array)} in, "
                f"{len(unit.output)} out"
            )
        return unit

    def tick(self, cycle: int) -> None:
        """Advance this unit's current merge stage by one cycle."""
        if self._parts is None:
            self._arm()
        self.busy_cycles += 1
        parts = self._parts
        parts["writer"].tick(cycle)
        for component in parts["tree"].components:
            component.tick(cycle)
        parts["loader"].tick(cycle)
        if parts["writer"].done:
            runs = parts["writer"].runs
            self.runs = runs
            self._parts = None
            self.stages_done += 1
            if len(runs) <= 1:
                self.done = True
                self.output = runs[0] if runs else []

    def _arm(self) -> None:
        leaves = self.leaves
        runs = self.runs
        record_bytes = self.record_bytes
        if len(runs) < leaves:
            shrunk = 1 << max(1, (max(2, len(runs)) - 1).bit_length())
            leaves = min(leaves, shrunk)
        tree = AmtTree(p=self.p, leaves=leaves)
        leaf_width = tree.leaf_width
        batch_tuples = max(
            1,
            (max(leaf_width, self.batch_bytes // record_bytes))
            // leaf_width,
        )
        for fifo in tree.leaf_fifos:
            fifo.capacity = max(fifo.capacity, 2 * (2 * batch_tuples + 1))
        n_groups = max(1, math.ceil(len(runs) / leaves))
        loader = DataLoader(
            feeds=make_feeds(tree.leaf_fifos, runs, leaves),
            tuple_width=leaf_width,
            record_bytes=record_bytes,
            read_bytes_per_cycle=self.bytes_per_cycle,
            batch_bytes=self.batch_bytes,
        )
        writer = OutputWriter(
            source=tree.root_fifo,
            record_bytes=record_bytes,
            write_bytes_per_cycle=self.bytes_per_cycle,
            expected_runs=n_groups,
        )
        self._parts = {"tree": tree, "loader": loader, "writer": writer}


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
    output: list[int] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if self.lambda_unroll < 2:
            raise ConfigurationError("unrolled simulation needs lambda >= 2")

    # ------------------------------------------------------------------
    def run(
        self,
        array: Sequence[int],
        max_cycles: int = 5_000_000,
        plan: ParallelPlan | None = None,
    ) -> int:
        """Sort ``array``; returns total cycles (parallel + final merges).

        ``array`` holds keys in ``[0, 2**64)`` (a list or an integer
        array).  Each unit sorts one address-range chunk on a 1/λ share
        of the budget.  ``plan`` (default: serial) only decides which
        process ticks each unit; the task list, the ``max()`` reduction
        and the final merge are the same for every plan.
        """
        from repro.parallel.api import simulate_units_sharded

        shape = {
            "p": self.p,
            "leaves": self.leaves,
            "record_bytes": self.record_bytes,
            "bytes_per_cycle": self.total_bytes_per_cycle / self.lambda_unroll,
            "batch_bytes": self.batch_bytes,
            "presort_run": self.presort_run,
        }
        ranges, results = simulate_units_sharded(
            array, self.lambda_unroll, shape, max_cycles,
            plan or ParallelPlan.serial(),
        )
        self.unit_cycles = [cycles for cycles, _stages in results]
        self.stages_done = max(stages for _cycles, stages in results)
        self.parallel_cycles = max(self.unit_cycles)

        # Final merges: λ sorted ranges through a shrunken tree at the
        # aggregate budget (only this phase idles units, §IV-B).
        merged, stats = simulate_merge(
            p=self.p,
            leaves=self.leaves,
            runs=ranges,
            record_bytes=self.record_bytes,
            read_bytes_per_cycle=self.total_bytes_per_cycle,
            write_bytes_per_cycle=self.total_bytes_per_cycle,
            batch_bytes=self.batch_bytes,
            check_sorted_inputs=False,
        )
        self.final_merge_cycles = stats.cycles
        self.output = merged[0]
        return self.parallel_cycles + self.final_merge_cycles

    # ------------------------------------------------------------------
    def unit_busy_cycles(self) -> list[int]:
        """Per-unit busy-cycle counts for balance checks."""
        return list(self.unit_cycles)
