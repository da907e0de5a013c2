"""AMT assembly and whole-stage simulation (§II, Fig. 1).

"To implement a p and l AMT, we put a p-merger at the root of the AMT,
two p/2-mergers as its children, then four p/4-mergers as their children,
etc., until the binary tree has log2(l) levels and can thus merge l
arrays.  In general, the tree nodes at the k-th level are p/2^k-mergers.
If for a given level k, we have 2^k > p, we use 1-mergers."

:class:`AmtTree` wires mergers, couplers and FIFOs into that shape;
:func:`simulate_merge` drives one full merge stage — data loader at the
leaves, output writer at the root — and returns the merged runs, one
numpy array per group, plus cycle-level statistics;
:func:`merge_to_one_run` repeats it until one run is left.  This is the
reproduction's stand-in for running the Verilog design on the FPGA.

Which records leave a stage depends on the keys alone, so a stage's
data is one key array merged by the group sort model mode uses
(:func:`repro.engine.stage.sort_groups`), and an engine solves only its
timing.  Which engine: ``engine="fast"`` (the default) solves it with
the timestamp engine (:mod:`repro.hw.timestamp`); ``engine="naive"``
ticks every component every cycle (:class:`~repro.hw.clock.Simulation`),
and so does a stage whose input runs are not sorted, which only
``check_sorted_inputs=False`` lets through.  The stepper merges the keys
itself, an independent oracle for the group sort; both engines give the
same runs, cycles and statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, chain, pairwise
from typing import Sequence

import numpy as np

from repro.engine.stage import sort_groups
from repro.errors import ConfigurationError, SimulationError
from repro.hw import timestamp
from repro.hw.clock import DEFAULT_MAX_CYCLES, Simulation
from repro.hw.coupler import Coupler
from repro.hw.fifo import Fifo
from repro.hw.loader import DataLoader, OutputWriter, make_feeds
from repro.hw.merger import KMerger
from repro.hw.probes import StageStats
from repro.obs.runtime import observation
from repro.parallel.shm import as_uint64_keys
from repro.units import is_power_of_two, log2_int

#: FIFO depth (in tuples) between internal tree levels; absorbs selection
#: jitter without hiding genuine skew stalls.
INTERNAL_FIFO_DEPTH = 8


@dataclass
class AmtTree:
    """An adaptive merge tree AMT(p, l) as a connected component graph.

    Attributes
    ----------
    leaf_fifos:
        ``l`` input FIFOs expecting ``leaf_width``-record sorted tuples.
    root_fifo:
        Output FIFO producing ``p``-record sorted tuples.
    components:
        All mergers and couplers in root-to-leaf tick order.
    """

    p: int
    leaves: int
    leaf_fifo_depth: int = 8
    name: str = "amt"

    leaf_fifos: list[Fifo] = field(init=False, default_factory=list)
    root_fifo: Fifo = field(init=False, repr=False, default=None)
    components: list = field(init=False, default_factory=list)
    mergers: list[KMerger] = field(init=False, default_factory=list)
    couplers: list[Coupler] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.p):
            raise ConfigurationError(f"throughput p must be a power of two, got {self.p}")
        if not is_power_of_two(self.leaves) or self.leaves < 2:
            raise ConfigurationError(
                f"leaf count must be a power of two >= 2, got {self.leaves}"
            )
        self._build()

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of merger levels (log2 of the leaf count)."""
        return log2_int(self.leaves)

    def merger_width_at(self, level: int) -> int:
        """Merger k at tree level ``level`` (root is level 0)."""
        if not 0 <= level < self.depth:
            raise ConfigurationError(
                f"level {level} outside tree of depth {self.depth}"
            )
        return max(1, self.p >> level)

    @property
    def leaf_width(self) -> int:
        """Records per leaf input tuple (the deepest mergers' k)."""
        return self.merger_width_at(self.depth - 1)

    # ------------------------------------------------------------------
    def _build(self) -> None:
        """Create mergers level by level, inserting couplers where the
        parent is wider than its children."""
        self.root_fifo = Fifo(INTERNAL_FIFO_DEPTH, name=f"{self.name}.root")
        # ``pending`` holds, per level, the FIFOs that feed each merger
        # input port, ordered left to right.
        pending: list[Fifo] = [self.root_fifo]
        for level in range(self.depth):
            width = self.merger_width_at(level)
            child_width = (
                self.merger_width_at(level + 1) if level + 1 < self.depth else None
            )
            next_pending: list[Fifo] = []
            for index, out_fifo in enumerate(pending):
                port_fifos = []
                for side in ("a", "b"):
                    label = f"{self.name}.L{level}.{index}.{side}"
                    if level == self.depth - 1:
                        port = Fifo(self.leaf_fifo_depth, name=f"{label}.leaf")
                        self.leaf_fifos.append(port)
                    elif child_width == width:
                        # Child is the same width: direct FIFO connection.
                        port = Fifo(INTERNAL_FIFO_DEPTH, name=label)
                        next_pending.append(port)
                    else:
                        # Child is half width: couple two child tuples.
                        port = Fifo(INTERNAL_FIFO_DEPTH, name=label)
                        child_out = Fifo(
                            INTERNAL_FIFO_DEPTH, name=f"{label}.precouple"
                        )
                        coupler = Coupler(
                            k=width,
                            input=child_out,
                            output=port,
                            name=f"{label}.coupler",
                        )
                        self.couplers.append(coupler)
                        self.components.append(coupler)
                        next_pending.append(child_out)
                    port_fifos.append(port)
                merger = KMerger(
                    k=width,
                    input_a=port_fifos[0],
                    input_b=port_fifos[1],
                    output=out_fifo,
                    name=f"{self.name}.L{level}.{index}",
                )
                self.mergers.append(merger)
                self.components.append(merger)
            pending = next_pending
        if len(self.leaf_fifos) != self.leaves:
            raise SimulationError(
                f"tree built {len(self.leaf_fifos)} leaves, expected {self.leaves}"
            )

    # ------------------------------------------------------------------
    def pipeline_latency_cycles(self) -> int:
        """Approximate fill latency: one cycle per component level plus
        half-merger depths; negligible against stage lengths but reported
        for completeness."""
        total = 0
        for level in range(self.depth):
            width = self.merger_width_at(level)
            total += 1 + (2 * max(1, math.ceil(math.log2(2 * width))) if width > 1 else 1)
        return total


def _stage_keys(runs: Sequence[Sequence[int]]) -> np.ndarray:
    """A stage's runs laid end to end: the one fresh key array it merges.

    Array runs keep their dtype, as numpy concatenates them; integer
    arrays whose common type is a float (int64 with uint64) would lose
    keys and are rejected.  Other runs become uint64 when every key is
    an int in ``[0, 2**64)`` (:func:`~repro.parallel.shm.as_uint64_keys`),
    and otherwise an object array of the caller's own keys.
    """
    if runs and all(isinstance(run, np.ndarray) for run in runs):
        keys = np.concatenate(runs)
        if keys.dtype.kind == "f" and all(run.dtype.kind in "iu" for run in runs):
            dtypes = sorted({str(run.dtype) for run in runs})
            raise ConfigurationError(
                f"runs of dtypes {dtypes} have no common integer dtype "
                f"(numpy would merge them as {keys.dtype})"
            )
        return keys
    flat = list(chain.from_iterable(runs))
    try:
        return as_uint64_keys(flat)
    except ConfigurationError:
        return np.array(flat, dtype=object)


def simulate_merge(
    p: int,
    leaves: int,
    runs: Sequence[Sequence[int]],
    record_bytes: int = 4,
    read_bytes_per_cycle: float | None = None,
    write_bytes_per_cycle: float | None = None,
    batch_bytes: int = 1024,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    check_sorted_inputs: bool = True,
    auto_shrink: bool = True,
    engine: str = "fast",
) -> tuple[list[np.ndarray], StageStats]:
    """Run one merge stage of AMT(p, l) over ``runs``.

    Parameters
    ----------
    runs:
        Sorted input runs, as integer sequences or numpy arrays; run
        ``j*l + i`` feeds leaf ``i`` in group ``j``.  Every group of
        ``l`` consecutive runs becomes one output run.
    record_bytes:
        Record width ``r``.
    read_bytes_per_cycle / write_bytes_per_cycle:
        Memory bandwidth budgets per cycle (``beta / f``); default is
        unconstrained (slightly above tree demand), letting the tree run
        at its natural ``p`` records/cycle.
    batch_bytes:
        Data-loader read batch size ``b`` (1-4 KB per §II).
    max_cycles:
        ``run_until`` budget before declaring deadlock; one shared
        default (:data:`repro.hw.clock.DEFAULT_MAX_CYCLES`) for every
        stage driver.
    engine:
        ``"fast"`` (default) runs the timestamp engine; ``"naive"`` forces
        the per-cycle stepper.  Both produce identical outputs, cycle
        counts and statistics — see ``docs/performance.md``.
    auto_shrink:
        When a stage has fewer runs than leaves, merge through the
        equivalently-shaped shallower tree AMT(p, 2^ceil(log2(runs))).
        This models how the hardware sustains full rate on late stages:
        a sorted run is a valid stream of k-wide sorted tuples at *any*
        tree level, so few long runs enter near the root through wide
        ports instead of trickling record-by-record through 1-merger
        leaves.  Eq. 1's per-stage rate assumes exactly this.

    Returns
    -------
    (output_runs, stats):
        Merged runs in group order, one numpy array per group, and
        cycle-level stage statistics.  Array runs keep their dtype;
        other runs come back as uint64 when every key is an int in
        ``[0, 2**64)``, and as object arrays of the caller's own keys
        otherwise.  The engines time the stage on the keys' dense ranks,
        so the dtype never changes a cycle.

    Raises
    ------
    ConfigurationError
        For an unsorted run (unless ``check_sorted_inputs`` is false),
        for NaN keys, which have no merge order, and for integer arrays
        with no common integer dtype (int64 with uint64).
    SimulationError
        When the stage cannot finish within ``max_cycles``.
    """
    if engine not in ("fast", "naive"):
        raise ConfigurationError(
            f"unknown simulation engine {engine!r}; expected 'fast' or 'naive'"
        )
    obs = observation()
    with obs.span("hw.merge_stage", p=p) as span:
        keys = _stage_keys(runs)
        lengths = np.fromiter((len(run) for run in runs), dtype=np.int64, count=len(runs))
        if keys.dtype.kind not in "iub" and np.any(keys != keys):
            raise ConfigurationError("NaN keys have no merge order")
        unsorted = timestamp.first_unsorted(keys, lengths)
        if unsorted is not None and check_sorted_inputs:
            index, offset = unsorted
            raise ConfigurationError(
                f"input run {index} is not sorted at value {runs[index][offset]!r}"
            )
        if auto_shrink and len(runs) < leaves:
            shrunk = 1 << max(1, (max(2, len(runs)) - 1).bit_length())
            leaves = min(leaves, shrunk)
        tree = AmtTree(p=p, leaves=leaves)
        demand_bytes = tree.p * record_bytes
        if read_bytes_per_cycle is None:
            read_bytes_per_cycle = float(2 * demand_bytes)
        if write_bytes_per_cycle is None:
            write_bytes_per_cycle = float(2 * demand_bytes)

        # Size leaf FIFOs to hold two full batches (§V-A).
        batch_tuples = max(
            1, (max(tree.leaf_width, batch_bytes // record_bytes)) // tree.leaf_width
        )
        for fifo in tree.leaf_fifos:
            fifo.capacity = max(fifo.capacity, 2 * (batch_tuples + 1))

        n_groups = max(1, math.ceil(len(runs) / leaves))
        span.set(leaves=leaves, groups=n_groups)
        # The timestamp engine reads only the loader's and writer's
        # parameters; the stepper below gives the loader its feeds.
        loader = DataLoader(
            feeds=[],
            tuple_width=tree.leaf_width,
            record_bytes=record_bytes,
            read_bytes_per_cycle=read_bytes_per_cycle,
            batch_bytes=batch_bytes,
        )
        writer = OutputWriter(
            source=tree.root_fifo,
            record_bytes=record_bytes,
            write_bytes_per_cycle=write_bytes_per_cycle,
            expected_runs=n_groups,
        )
        if engine == "fast" and unsorted is None:
            # Which records leave the stage follows from the keys alone:
            # the engine solves the timing, the group sort the data.
            solution = timestamp.solve(tree, keys, lengths, loader, writer, max_cycles)
            merged = sort_groups(keys, lengths, leaves)
            span.set(engine="timestamp", sweeps=solution.sweeps)
        else:
            # The stepper stays an independent oracle: it merges the
            # keys itself, and its writer's runs are the stage's output.
            flat = keys.tolist()
            bounds = list(accumulate(lengths.tolist(), initial=0))
            loader.feeds = make_feeds(
                tree.leaf_fifos, [flat[lo:hi] for lo, hi in pairwise(bounds)], leaves
            )
            sim = Simulation()
            sim.add(writer)
            for component in tree.components:
                sim.add(component)
            sim.add(loader)
            span.set(engine="naive")
            cycles = sim.run_until(lambda: writer.done, max_cycles=max_cycles)
            merged = [np.array(run, dtype=keys.dtype) for run in writer.runs]
            solution = timestamp.Solution(
                cycles=cycles,
                merger_stats=[merger.stats for merger in tree.mergers],
                loader_stats=loader.stats,
                bytes_written=writer.bytes_written,
                sweeps=0,
            )
        span.set(cycles=solution.cycles)

    records_in = int(keys.size)
    records_out = sum(int(run.size) for run in merged)
    stats = StageStats(
        cycles=solution.cycles,
        records_in=records_in,
        records_out=records_out,
        bytes_read=solution.loader_stats.bytes_loaded,
        bytes_written=solution.bytes_written,
        output_runs=len(merged),
        merger_stats=solution.merger_stats,
        loader_stats=solution.loader_stats,
        sweeps=solution.sweeps,
    )
    if records_out != records_in:
        raise SimulationError(
            f"record count mismatch: {records_in} in, {records_out} out"
        )
    stats.publish(obs)
    return merged, stats


def merge_to_one_run(
    runs: list[np.ndarray],
    max_cycles: int,
    *,
    p: int,
    leaves: int,
    record_bytes: int,
    bytes_per_cycle: float,
    batch_bytes: int,
) -> tuple[np.ndarray, int, int]:
    """Merge ``runs`` stage by stage on one AMT until one run is left.

    Reads and writes share the budget ``bytes_per_cycle``.  Runs at
    least one stage, even over a single run (the data still streams
    through the tree once).  Returns ``(run, cycles, stages)``, where
    ``cycles`` sums the stages' cycle counts.  ``max_cycles`` budgets
    the whole loop: each stage gets what the earlier ones left.
    """
    cycles = stages = 0
    while stages == 0 or len(runs) > 1:
        runs, stats = simulate_merge(
            p=p,
            leaves=leaves,
            runs=runs,
            record_bytes=record_bytes,
            read_bytes_per_cycle=bytes_per_cycle,
            write_bytes_per_cycle=bytes_per_cycle,
            batch_bytes=batch_bytes,
            max_cycles=max_cycles - cycles,
        )
        cycles += stats.cycles
        stages += 1
    return runs[0], cycles, stages
