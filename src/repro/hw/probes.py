"""Statistics records for simulator components.

The experiments section relies on three kinds of simulator observations:
per-merger activity (validates the p-records-per-cycle claim), loader
behaviour (validates that batching keeps memory at peak bandwidth, §V-A),
and whole-stage summaries (cycles, records, stalls) that the model
validation benches compare against Eq. 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass
class MergerStats:
    """Activity counters of one k-merger."""

    name: str = ""
    k: int = 1
    active_cycles: int = 0
    prime_cycles: int = 0
    flush_cycles: int = 0
    stall_input: int = 0
    stall_output: int = 0
    idle_cycles: int = 0
    runs_completed: int = 0

    @property
    def total_cycles(self) -> int:
        """Sum of all classified cycles."""
        return (
            self.active_cycles
            + self.prime_cycles
            + self.flush_cycles
            + self.stall_input
            + self.stall_output
            + self.idle_cycles
        )

    @property
    def utilization(self) -> float:
        """Fraction of cycles spent producing output."""
        total = self.total_cycles
        return self.active_cycles / total if total else 0.0


@dataclass
class LoaderStats:
    """Activity counters of the data loader."""

    batches_issued: int = 0
    bytes_loaded: int = 0
    runs_fed: int = 0
    cycles_bandwidth_limited: int = 0
    cycles_idle: int = 0


@dataclass
class StageStats:
    """Summary of one simulated merge stage."""

    cycles: int = 0
    records_in: int = 0
    records_out: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    output_runs: int = 0
    merger_stats: list[MergerStats] = field(default_factory=list)
    loader_stats: LoaderStats = field(default_factory=LoaderStats)
    #: Gauss-Seidel sweeps of the timestamp engine (0: the stepper ran).
    #: Engine bookkeeping, so it takes no part in comparing two stages.
    sweeps: int = field(default=0, compare=False)

    def seconds_at(self, frequency_hz: float) -> float:
        """Wall-clock stage time at a given clock frequency."""
        if frequency_hz <= 0:
            raise ConfigurationError(
                f"frequency must be positive, got {frequency_hz}"
            )
        return self.cycles / frequency_hz

    def publish(self, obs) -> None:
        """Bridge this stage's probes into an observation's registry.

        Merger activity is aggregated across the tree (per-merger
        series would explode the snapshot for wide trees); the loader's
        bandwidth-limited cycles land as their own counter because §V-A
        is exactly about keeping that number high.  ``sim.engine_sweeps``
        counts the timestamp engine's sweeps.
        """
        obs.count("sim.stages")
        obs.count("sim.cycles", self.cycles)
        obs.count("sim.records", self.records_out)
        obs.count("sim.bytes_read", self.bytes_read)
        obs.count("sim.bytes_written", self.bytes_written)
        active = stalled = idle = 0
        for merger in self.merger_stats:
            active += merger.active_cycles
            stalled += merger.stall_input + merger.stall_output
            idle += merger.idle_cycles
        obs.count("sim.merger_active_cycles", active)
        obs.count("sim.merger_stall_cycles", stalled)
        obs.count("sim.merger_idle_cycles", idle)
        obs.count("sim.loader_batches", self.loader_stats.batches_issued)
        obs.count(
            "sim.loader_bandwidth_limited_cycles",
            self.loader_stats.cycles_bandwidth_limited,
        )
        obs.count("sim.engine_sweeps", self.sweeps)

    @property
    def records_per_cycle(self) -> float:
        """Achieved stage throughput in records per cycle."""
        return self.records_out / self.cycles if self.cycles else 0.0
