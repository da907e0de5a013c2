# bonsai-lint: disable-file=determinism -- the executor measures host
# wall-clock by design (the Table I figure of merit needs real elapsed
# time); everything it times is seeded, oracle-verified and digested.
"""Execute the cluster sort with real processes and measure it.

:class:`ClusterExecutor` runs the GraySort plan the analytical
:class:`~repro.distributed.cluster.Cluster` only models:

1. **splitters** — a seeded oversampled key sketch yields the range
   boundaries (:func:`~repro.distributed.exchange.sample_splitters`);
2. **exchange** — the parent packs the input chunks, one slot per
   sender, into the ``in`` block of the shared-memory arena it leases
   (:func:`~repro.parallel.plan.lease`);
3. **local sort** — one task per receiver, in one
   :meth:`~repro.parallel.plan.ParallelPlan.map`, pulls the keys of its
   range from every sender slot
   (:func:`~repro.distributed.exchange.pull_partition`), sorts them
   through a single-tree :class:`~repro.engine.sorter.AmtSorter`, and
   writes them into the arena's ``out`` block at the offset its pull
   counted (the keys below its range);
4. **merge** — the parent copies the output block, where the nodes'
   sorted partitions lie end to end in receiver order (range
   partitioning makes that globally sorted by construction).

The pool and the arena are the process's warm set
(:mod:`repro.parallel.plan`): a repeated sort reuses the same worker
processes and the same already-faulted blocks, so none of the four
phases pays for a fork or for fresh shared-memory pages.

Each node scans all ``N`` input keys, which is ``nodes x N`` compares
in total.  On one host that costs far less than the separate exchange
map it replaces (a pool round trip plus a stable group-by-receiver
argsort per sender): a cluster sort is one pool round trip.

Every run then verifies the output bit-exactly against a serial oracle
``np.sort`` of the kind :func:`~repro.engine.stage.sort_kind` picks (the
stable sort's bytes) — the verification is outside the timed window, so
the measured figure covers exactly the four phases above.  The report pairs
the measured Table I figure of merit (``elapsed x nodes / GB``) with
the analytical model's prediction at the *measured* partition skew, so
the measured-vs-modeled delta is one number.

Straggler tolerance is the parallel layer's: each node is one task of
the map, so a node whose task raised is recomputed alone in the parent,
and a killed worker breaks the pool, so the parent recomputes every
node the pool had not yet returned (:meth:`ParallelPlan.map`'s crash
fallback).  The output stays
bit-exact, and ``parallel.recomputed_chunks`` counts each recompute.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.configuration import AmtConfig
from repro.core.parameters import HardwareParams, MergerArchParams
from repro.distributed.cluster import Cluster, ClusterSortReport
from repro.distributed.exchange import (
    DEFAULT_OVERSAMPLE,
    ShuffleLayout,
    sample_splitters,
)
from repro.distributed.node import SortingNode
from repro.engine.stage import sort_kind
from repro.errors import ConfigurationError, SimulationError
from repro.obs.runtime import observation
from repro.parallel.plan import ParallelPlan, lease
from repro.parallel.shm import as_uint64_keys
from repro.parallel.workers import worker_cluster_node
from repro.records.valsort import content_digest
from repro.units import ms_per_gb

@dataclass(frozen=True)
class ClusterExecutionReport:
    """One executed, verified cluster sort: measured next to modeled."""

    nodes: int
    records: int
    total_bytes: int
    elapsed_seconds: float
    splitter_seconds: float
    exchange_seconds: float
    sort_seconds: float
    merge_seconds: float
    measured_skew: float
    partition_records: tuple[int, ...]
    node_model_seconds: tuple[float, ...]
    node_stages: tuple[int, ...]
    modeled: ClusterSortReport
    digest: str
    data: np.ndarray | None = field(repr=False, compare=False, default=None)

    @property
    def measured_ms_per_gb(self) -> float:
        """The executed Table I figure of merit (elapsed x nodes / GB)."""
        return ms_per_gb(self.elapsed_seconds * self.nodes, self.total_bytes)

    @property
    def modeled_ms_per_gb(self) -> float:
        """The analytical prediction at the measured partition skew."""
        return self.modeled.per_node_ms_per_gb

    @property
    def measured_vs_modeled(self) -> float:
        """Measured over modeled — the reproduction's honesty gap (the
        functional Python engine against modeled FPGA hardware)."""
        return self.measured_ms_per_gb / self.modeled_ms_per_gb


def _default_config() -> AmtConfig:
    return AmtConfig(p=8, leaves=16)


def _default_hardware() -> HardwareParams:
    from repro.core import presets

    return presets.aws_f1_measured().hardware


@dataclass
class ClusterExecutor:
    """Run one measured cluster sort; see the module docstring.

    Parameters
    ----------
    nodes:
        Partition count — also the worker task count of the node map.
    config / hardware / arch / presort_run / mode:
        Per-node :class:`AmtSorter` parameters (every node runs the
        same single-tree sorter the serial path would).
    plan:
        The default serial plan runs every node in-process (same
        results, no pool); a process plan runs the node tasks as actual
        worker processes.
    oversample / seed:
        Splitter sketch parameters (seeded: same data + seed = same
        splitters at every ``jobs`` setting).
    node_model:
        The analytical node used for the modeled comparison report.
    """

    nodes: int = 4
    config: AmtConfig = field(default_factory=_default_config)
    hardware: HardwareParams = field(default_factory=_default_hardware)
    arch: MergerArchParams = field(default_factory=MergerArchParams)
    presort_run: int = 16
    mode: str = "model"
    plan: ParallelPlan = field(default_factory=ParallelPlan)
    oversample: int = DEFAULT_OVERSAMPLE
    seed: int = 0
    node_model: SortingNode = field(default_factory=SortingNode)

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ConfigurationError(f"cluster needs >= 1 node, got {self.nodes}")
        if self.mode not in ("model", "simulate"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")

    # ------------------------------------------------------------------
    def execute(self, data: np.ndarray) -> ClusterExecutionReport:
        """Sort ``data`` across the cluster; verify; measure; report."""
        keys = as_uint64_keys(data)
        if keys.size == 0:
            raise ConfigurationError("cannot cluster-sort zero records")
        obs = observation()
        record_bytes = self.arch.record_bytes
        total_bytes = int(keys.size) * record_bytes
        chunks = np.array_split(keys, self.nodes)
        started = time.perf_counter()
        with obs.span(
            "cluster.sort", nodes=self.nodes, records=int(keys.size),
            mode=self.mode,
        ) as sort_span:
            with obs.span("cluster.splitters", oversample=self.oversample):
                splitters = sample_splitters(
                    keys, self.nodes, self.oversample, self.seed
                )
            split_done = time.perf_counter()
            with lease() as arena:
                with obs.span("cluster.exchange", nodes=self.nodes):
                    in_desc = arena.pack(chunks)
                exchange_done = time.perf_counter()
                out_desc = arena.layout([int(keys.size)], np.uint64)
                # Node r owns [bounds[r], bounds[r + 1]); None is open.
                bounds = [None, *(int(s) for s in splitters), None]
                with obs.span("cluster.local_sort", nodes=self.nodes):
                    node_tasks = [
                        (
                            in_desc, out_desc, receiver,
                            bounds[receiver], bounds[receiver + 1],
                            self.config, self.hardware, self.arch,
                            self.presort_run, self.mode,
                        )
                        for receiver in range(self.nodes)
                    ]
                    node_results = self.plan.map(worker_cluster_node, node_tasks)
                sorts_done = time.perf_counter()
                with obs.span("cluster.merge", nodes=self.nodes):
                    output = arena.view(out_desc, 0).copy()
                merge_done = time.perf_counter()
            _, node_seconds, node_stages, columns = zip(*node_results)
            layout = ShuffleLayout(counts=tuple(zip(*columns)))
            # Verification sits outside the timed window (the oracle
            # sort would otherwise dominate the measured figure) but
            # inside the dispatch span: a divergent run never reports.
            oracle = np.sort(keys, kind=sort_kind(keys.dtype))
            if output.size != oracle.size or not np.array_equal(output, oracle):
                raise SimulationError(
                    f"executed cluster sort diverged from the serial oracle "
                    f"({int(output.size)} records out vs {int(oracle.size)} in)"
                )
            digest = content_digest(output)
            sort_span.set(skew=round(layout.skew, 4), digest=digest)
        elapsed = merge_done - started
        modeled = Cluster(
            node=self.node_model, nodes=self.nodes, skew_factor=layout.skew
        ).sort_report(total_bytes)
        obs.count("cluster.sorts", nodes=self.nodes)
        return ClusterExecutionReport(
            nodes=self.nodes,
            records=int(keys.size),
            total_bytes=total_bytes,
            elapsed_seconds=elapsed,
            splitter_seconds=split_done - started,
            exchange_seconds=exchange_done - split_done,
            sort_seconds=sorts_done - exchange_done,
            merge_seconds=merge_done - sorts_done,
            measured_skew=layout.skew,
            partition_records=tuple(layout.partition_lengths()),
            node_model_seconds=node_seconds,
            node_stages=node_stages,
            modeled=modeled,
            digest=digest,
            data=output,
        )
