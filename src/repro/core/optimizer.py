"""Bonsai: the AMT configuration optimizer (§III-C).

"Bonsai is an optimization strategy that exhaustively prunes all AMT
configurations that fit into on-chip resources and picks the one with
either minimal sorting time (latency-optimal) or maximal throughput
(throughput-optimal)."

The search space enumerates ``p`` and ``l`` over powers of two,
``λ_unrl`` over powers of two, and ``λ_pipe`` over small integers.
Feasibility is Eq. 9 (LUT) and Eq. 10 (BRAM); throughput optimization
additionally enforces the pipeline-capacity constraint Eq. 5.

Ties in the objective are broken toward fewer LUTs, then less BRAM —
which is exactly how the paper's reported optima fall out of the model:
e.g. the throughput-optimal SSD phase-1 design is the 4-deep pipeline of
AMT(8, 64), not AMT(32, 64) (same 8 GB/s I/O-bound throughput, fewer
LUTs) and not a 2-deep pipeline (Eq. 5 capacity falls short of 8 GB).

"Importantly, Bonsai can list all implementable AMT configurations in
decreasing order of performance" — :meth:`Bonsai.rank_by_latency` and
:meth:`Bonsai.rank_by_throughput` return that list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Literal

from repro.core.configuration import AmtConfig
from repro.core.parameters import ArrayParams, HardwareParams, MergerArchParams
from repro.core.performance import PerformanceModel
from repro.core.resources import ResourceModel
from repro.errors import ConfigurationError, NoFeasibleConfigError
from repro.obs.runtime import observation
from repro.parallel.plan import ParallelPlan
from repro.units import GB

UnrollMode = Literal["partition", "address_range"]

#: Most ``(array, mode)`` slices whose latency evaluations stay memoized,
#: oldest slice dropped first.  A long-lived optimizer (a serve daemon's
#: session) meets a new slice for every distinct array size, so an
#: unbounded memo would grow with every request; 16 keeps all 8 slices
#: of a four-size latency-and-throughput sweep resident.
LATENCY_CACHE_SLICES = 16


@dataclass(frozen=True)
class RankedConfig:
    """One feasible configuration with its predicted figures of merit."""

    config: AmtConfig
    latency_seconds: float
    throughput_bytes: float
    lut_usage: float
    bram_bytes: int

    def describe(self) -> str:
        """One-line summary: config, latency, throughput, LUTs."""
        return (
            f"{self.config.describe()}: "
            f"{self.latency_seconds:.3f} s, "
            f"{self.throughput_bytes / GB:.2f} GB/s, "
            f"{self.lut_usage:,.0f} LUTs"
        )


@dataclass
class Bonsai:
    """The optimizer: performance + resource models over a search space.

    Parameters
    ----------
    hardware / arch:
        Table II inputs.
    presort_run:
        Presorter run length available to designs (§VI-C); enters the
        stage count and the Eq. 5 capacity bound.
    p_max / leaves_max / unroll_max / pipe_max:
        Search-space bounds.  ``p_max`` defaults to 32 — the widest
        merger the paper built and timed at 250 MHz ("using even bigger
        mergers is also possible", §I-A, but their frequency is
        unvalidated); the other bounds comfortably cover every
        configuration the paper discusses.
    leaves_cap:
        Optional hard cap on ``l`` modelling routing-congestion
        frequency loss (§VI-C1 limits the implemented design to l = 64
        "because designs with more leaves have lower frequency").
    frequency_model:
        Optional smooth alternative to ``leaves_cap``: a
        :class:`~repro.core.frequency.FrequencyModel` that degrades each
        configuration's clock past its congestion thresholds, letting
        the implemented l = 64 choice *emerge* from the search.
    parallel:
        Optional :class:`~repro.parallel.plan.ParallelPlan` evaluating
        configuration chunks in worker processes.  Workers return
        evaluation tuples and the parent folds them into its frozen-key
        caches before ranking, so the ranking loop itself — and with it
        the order, ties and all — is byte-for-byte the serial one.
    observe:
        Whether this instance reports memo-hit/miss counters to the
        active observation.  Worker-side replicas are constructed with
        ``False`` so their internal cache population is not double
        counted against the parent's accounting.
    """

    hardware: HardwareParams
    arch: MergerArchParams
    presort_run: int = 16
    p_max: int = 32
    leaves_max: int = 4096
    unroll_max: int = 64
    pipe_max: int = 8
    leaves_cap: int | None = None
    frequency_model: object | None = None
    parallel: ParallelPlan | None = None
    observe: bool = True

    performance: PerformanceModel = field(init=False)
    resources: ResourceModel = field(init=False)

    # Memoization (§III-C is an exhaustive search, and callers ranking a
    # sweep of arrays re-evaluate the same configurations over and
    # over).  Every input dataclass is frozen and the models are pure
    # functions of construction-time parameters, so results are cached
    # per key and shared across ``rank_by_latency``,
    # ``rank_by_throughput`` and the ``*_optimal`` helpers.  The caches
    # assume the optimizer's parameters are not mutated after
    # construction — build a new ``Bonsai`` for new hardware.
    _resource_cache: dict = field(init=False, default_factory=dict, repr=False)
    _feasible_cache: dict = field(init=False, default_factory=dict, repr=False)
    _latency_cache: dict = field(init=False, default_factory=dict, repr=False)
    # The latency memo's keys per ``(array, mode)`` slice, oldest slice
    # first: the eviction order of ``_store_latency``.
    _latency_slices: dict = field(init=False, default_factory=dict, repr=False)
    _throughput_cache: dict = field(init=False, default_factory=dict, repr=False)
    # Cache keys filled by a pool prefetch whose first parent-side
    # lookup has not happened yet.  Memo accounting treats that first
    # lookup as a *miss* (the evaluation really ran, just in a worker),
    # which keeps hit/miss counters identical between serial and
    # sharded runs by construction.
    _fresh_keys: set = field(init=False, default_factory=set, repr=False)

    def __post_init__(self) -> None:
        for label, value in (
            ("p_max", self.p_max),
            ("leaves_max", self.leaves_max),
            ("unroll_max", self.unroll_max),
            ("pipe_max", self.pipe_max),
        ):
            if value < 1:
                raise ConfigurationError(f"{label} must be >= 1, got {value}")
        self.performance = PerformanceModel(
            hardware=self.hardware,
            arch=self.arch,
            presort_run=self.presort_run,
            frequency_model=self.frequency_model,
        )
        self.resources = ResourceModel(
            hardware=self.hardware, library=self.arch.library
        )

    # ------------------------------------------------------------------
    # search space
    # ------------------------------------------------------------------
    def _powers(self, start: int, limit: int) -> Iterator[int]:
        value = start
        while value <= limit:
            yield value
            value *= 2

    def _note_memo(self, cache: str, hit: bool) -> None:
        """Report one memo lookup to the active observation."""
        if not self.observe:
            return
        observation().count(
            "optimizer.memo_hits" if hit else "optimizer.memo_misses",
            cache=cache,
        )

    def _resource_figures(self, config: AmtConfig) -> tuple[bool, float, int]:
        """Memoized ``(fits, lut_usage, bram_bytes)`` for a config."""
        cached = self._resource_cache.get(config)
        if cached is None:
            cached = (
                self.resources.fits(config),
                self.resources.lut_usage(config),
                self.resources.bram_bytes(config),
            )
            self._resource_cache[config] = cached
            self._note_memo("resource", hit=False)
        else:
            self._note_memo("resource", hit=True)
        return cached

    def feasible_configs(self, include_pipelines: bool = False) -> Iterator[AmtConfig]:
        """All configurations satisfying Eq. 9 and Eq. 10."""
        cached = self._feasible_cache.get(include_pipelines)
        if cached is None:
            cached = tuple(self._enumerate_feasible(include_pipelines))
            self._feasible_cache[include_pipelines] = cached
        yield from cached

    def _enumerate_feasible(self, include_pipelines: bool) -> Iterator[AmtConfig]:
        leaves_limit = self.leaves_max
        if self.leaves_cap is not None:
            leaves_limit = min(leaves_limit, self.leaves_cap)
        pipe_range = range(1, self.pipe_max + 1) if include_pipelines else (1,)
        for p in self._powers(1, self.p_max):
            for leaves in self._powers(2, leaves_limit):
                # Cheap monotone pruning: if the single tree already
                # violates a bound, wider λ only makes it worse.
                base = AmtConfig(p=p, leaves=leaves)
                if not self._resource_figures(base)[0]:
                    continue
                for lambda_pipe in pipe_range:
                    for lambda_unroll in self._powers(1, self.unroll_max):
                        config = AmtConfig(
                            p=p,
                            leaves=leaves,
                            lambda_unroll=lambda_unroll,
                            lambda_pipe=lambda_pipe,
                        )
                        if self._resource_figures(config)[0]:
                            yield config

    # ------------------------------------------------------------------
    # latency optimization (§III-C, first program)
    # ------------------------------------------------------------------
    def _latency(self, config: AmtConfig, array: ArrayParams, mode: str) -> float:
        key = (config, array, mode)
        cached = self._latency_cache.get(key)
        if cached is None:
            if mode == "address_range":
                cached = self.performance.latency_unrolled_address_range(config, array)
            elif mode == "combined":
                cached = self.performance.latency_combined(config, array)
            else:
                cached = self.performance.latency_unrolled(config, array)
            self._store_latency(key, cached)
            self._note_memo("latency", hit=False)
        elif ("latency", key) in self._fresh_keys:
            self._fresh_keys.discard(("latency", key))
            self._note_memo("latency", hit=False)
        else:
            self._note_memo("latency", hit=True)
        return cached

    def _store_latency(self, key: tuple, latency: float, fresh: bool = False) -> None:
        """Insert one latency memo entry: the memo's single insert path.

        Entries are grouped by their ``(array, mode)`` slice.  A new
        slice beyond :data:`LATENCY_CACHE_SLICES` evicts the oldest
        slice's entries and their fresh marks.  ``fresh`` marks an entry
        a pool prefetch filled, whose first lookup still counts as a miss.
        """
        members = self._latency_slices.get(key[1:])
        if members is None:
            members = self._latency_slices[key[1:]] = []
            while len(self._latency_slices) > LATENCY_CACHE_SLICES:
                oldest = next(iter(self._latency_slices))
                for old in self._latency_slices.pop(oldest):
                    del self._latency_cache[old]
                    self._fresh_keys.discard(("latency", old))
        members.append(key)
        self._latency_cache[key] = latency
        if fresh:
            self._fresh_keys.add(("latency", key))

    def _throughput(self, config: AmtConfig) -> float:
        cached = self._throughput_cache.get(config)
        if cached is None:
            cached = self.performance.throughput_combined(config)
            self._throughput_cache[config] = cached
            self._note_memo("throughput", hit=False)
        elif ("throughput", config) in self._fresh_keys:
            self._fresh_keys.discard(("throughput", config))
            self._note_memo("throughput", hit=False)
        else:
            self._note_memo("throughput", hit=True)
        return cached

    # ------------------------------------------------------------------
    # parallel cache prefetch
    # ------------------------------------------------------------------
    def _worker_kwargs(self) -> dict:
        """Constructor kwargs for a worker-side replica of this optimizer.

        Everything except ``parallel`` (workers never nest pools), so
        the replica evaluates the exact same models over the exact same
        search space.
        """
        return {
            "hardware": self.hardware,
            "arch": self.arch,
            "presort_run": self.presort_run,
            "p_max": self.p_max,
            "leaves_max": self.leaves_max,
            "unroll_max": self.unroll_max,
            "pipe_max": self.pipe_max,
            "leaves_cap": self.leaves_cap,
            "frequency_model": self.frequency_model,
            "observe": False,
        }

    def _prefetch_latencies(self, array: ArrayParams, unroll_mode: str) -> None:
        """Fill ``_latency_cache`` for every feasible config via the pool."""
        if self.parallel is None:
            return
        configs = [
            config
            for config in self.feasible_configs(include_pipelines=False)
            if (config, array, unroll_mode) not in self._latency_cache
        ]
        if not self.parallel.wants_processes(len(configs)):
            return
        from repro.parallel.workers import worker_eval_latency

        kwargs = self._worker_kwargs()
        tasks = [
            (kwargs, tuple(configs[i] for i in chunk), array, unroll_mode)
            for chunk in self.parallel.chunks(len(configs))
        ]
        for pairs in self.parallel.map(worker_eval_latency, tasks):
            for config, latency in pairs:
                self._store_latency((config, array, unroll_mode), latency, fresh=True)

    def _prefetch_throughputs(self, array: ArrayParams) -> None:
        """Fill throughput/latency caches for the Eq. 5-feasible configs."""
        if self.parallel is None:
            return
        configs = [
            config
            for config in self.feasible_configs(include_pipelines=True)
            if config not in self._throughput_cache
        ]
        if not self.parallel.wants_processes(len(configs)):
            return
        from repro.parallel.workers import worker_eval_throughput

        kwargs = self._worker_kwargs()
        tasks = [
            (kwargs, tuple(configs[i] for i in chunk), array)
            for chunk in self.parallel.chunks(len(configs))
        ]
        for rows in self.parallel.map(worker_eval_throughput, tasks):
            for config, can_sort, throughput, latency in rows:
                if not can_sort:
                    continue
                self._throughput_cache[config] = throughput
                self._fresh_keys.add(("throughput", config))
                self._store_latency((config, array, "combined"), latency, fresh=True)

    def rank_by_latency(
        self,
        array: ArrayParams,
        unroll_mode: UnrollMode = "partition",
        top: int | None = None,
    ) -> list[RankedConfig]:
        """All feasible configs in increasing sorting-time order.

        Pipelining is excluded: "Pipelining is not used in the latency
        optimization model, because it does not improve sorting time."
        """
        obs = observation()
        with obs.span(
            "optimizer.rank_latency",
            records=array.n_records, unroll_mode=unroll_mode,
        ) as span:
            self._prefetch_latencies(array, unroll_mode)
            ranked = []
            for config in self.feasible_configs(include_pipelines=False):
                latency = self._latency(config, array, unroll_mode)
                _, lut_usage, bram_bytes = self._resource_figures(config)
                ranked.append(
                    RankedConfig(
                        config=config,
                        latency_seconds=latency,
                        throughput_bytes=array.total_bytes / latency,
                        lut_usage=lut_usage,
                        bram_bytes=bram_bytes,
                    )
                )
            # Equal-latency ties prefer more leaves (robustness to larger
            # N: "then builds as many leaves as can be implemented",
            # §IV-A), then fewer LUTs (which settles p at the
            # bandwidth-matching width rather than anything wider).
            ranked.sort(
                key=lambda r: (
                    r.latency_seconds,
                    -r.config.leaves,
                    r.lut_usage,
                    r.bram_bytes,
                )
            )
            if self.observe:
                obs.count("optimizer.configs_ranked", len(ranked), sweep="latency")
            span.set(configs=len(ranked))
        return ranked[:top] if top is not None else ranked

    def latency_optimal(
        self, array: ArrayParams, unroll_mode: UnrollMode = "partition"
    ) -> RankedConfig:
        """The minimum-sorting-time configuration (argmin of §III-C)."""
        ranked = self.rank_by_latency(array, unroll_mode=unroll_mode, top=1)
        if not ranked:
            raise NoFeasibleConfigError(
                "no AMT configuration fits the available on-chip resources"
            )
        return ranked[0]

    # ------------------------------------------------------------------
    # throughput optimization (§III-C, second program)
    # ------------------------------------------------------------------
    def rank_by_throughput(
        self, array: ArrayParams, top: int | None = None
    ) -> list[RankedConfig]:
        """Feasible pipelined configs in decreasing throughput order.

        Enforces the Eq. 5 capacity constraint
        ``min(C_DRAM/(λ_pipe λ_unrl), l**λ_pipe) >= N``.
        """
        obs = observation()
        with obs.span(
            "optimizer.rank_throughput", records=array.n_records
        ) as span:
            self._prefetch_throughputs(array)
            ranked = []
            for config in self.feasible_configs(include_pipelines=True):
                if not self.pipeline_can_sort(config, array):
                    continue
                throughput = self._throughput(config)
                _, lut_usage, bram_bytes = self._resource_figures(config)
                ranked.append(
                    RankedConfig(
                        config=config,
                        latency_seconds=self._latency(config, array, "combined"),
                        throughput_bytes=throughput,
                        lut_usage=lut_usage,
                        bram_bytes=bram_bytes,
                    )
                )
            ranked.sort(
                key=lambda r: (-r.throughput_bytes, r.lut_usage, r.bram_bytes)
            )
            if self.observe:
                obs.count(
                    "optimizer.configs_ranked", len(ranked), sweep="throughput"
                )
            span.set(configs=len(ranked))
        return ranked[:top] if top is not None else ranked

    def throughput_optimal(self, array: ArrayParams) -> RankedConfig:
        """The maximum-throughput configuration (argmax of §III-C)."""
        ranked = self.rank_by_throughput(array, top=1)
        if not ranked:
            raise NoFeasibleConfigError(
                "no pipelined AMT configuration can sort arrays of "
                f"{array.total_bytes:,} bytes within resources and Eq. 5"
            )
        return ranked[0]

    def pipeline_can_sort(self, config: AmtConfig, array: ArrayParams) -> bool:
        """Eq. 5 capacity check with combined unrolling.

        The DRAM term divides by all resident AMTs (every tree stores its
        intermediate output on DRAM); the depth term is per pipeline.
        """
        dram_bound = self.hardware.c_dram / config.total_amts / self.arch.record_bytes
        depth_bound = self.presort_run * float(config.leaves) ** config.lambda_pipe
        per_pipeline_records = math.ceil(array.n_records / config.lambda_unroll)
        return min(dram_bound, depth_bound) >= per_pipeline_records
