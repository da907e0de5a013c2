"""Differential observability: worker metrics merge back losslessly.

The contract riding on top of the parallel layer's bit-identical
execution guarantee: the *metrics* of a sharded run, after the parent
absorbs every worker snapshot, equal the serial run's registry for all
deterministic series.  Only ``parallel.*`` bookkeeping (map/chunk/task
counts) legitimately differs with execution shape, so the comparison
ignores exactly that prefix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import presets
from repro.core.configuration import AmtConfig
from repro.core.optimizer import Bonsai
from repro.core.parameters import ArrayParams, MergerArchParams
from repro.engine.unrolled import UnrolledSorter
from repro.obs.metrics import diff_counters
from repro.obs.runtime import activated, live_observation
from repro.parallel import ParallelPlan
from repro.units import GB

IGNORED = ("parallel.",)


@pytest.fixture(scope="module")
def hardware():
    return presets.aws_f1_measured().hardware


def observed_counters(fn):
    """Run ``fn`` under a fresh live observation; return its counters."""
    live = live_observation()
    with activated(live):
        result = fn()
    return result, live


class TestUnrolledSortMerge:
    @pytest.mark.parametrize("partitioning", ["range", "address"])
    def test_serial_and_jobs2_counters_identical(self, hardware, partitioning):
        rng = np.random.default_rng(11)
        data = rng.integers(0, 1 << 30, size=5000)
        config = AmtConfig(p=8, leaves=16, lambda_unroll=4)

        def run(plan):
            sorter = UnrolledSorter(
                config=config, hardware=hardware,
                partitioning=partitioning, parallel=plan,
            )
            return sorter.sort(data)

        serial_outcome, serial = observed_counters(lambda: run(None))
        sharded_outcome, sharded = observed_counters(
            lambda: run(ParallelPlan(jobs=2))
        )
        assert np.array_equal(serial_outcome.data, sharded_outcome.data)
        problems = diff_counters(
            serial.registry.counters(),
            sharded.registry.counters(),
            ignore_prefixes=IGNORED,
        )
        assert problems == []

    def test_parallel_bookkeeping_does_differ(self, hardware):
        # Guard against the comparison passing vacuously: the sharded
        # run must actually have taken the pool path.
        rng = np.random.default_rng(12)
        data = rng.integers(0, 1 << 30, size=5000)
        config = AmtConfig(p=8, leaves=16, lambda_unroll=4)
        _, sharded = observed_counters(
            lambda: UnrolledSorter(
                config=config, hardware=hardware,
                parallel=ParallelPlan(jobs=2),
            ).sort(data)
        )
        registry = sharded.registry
        assert registry.counter_value("parallel.maps", mode="pool") > 0
        assert registry.counter_total("parallel.tasks") > 0


class TestOptimizerSweepMerge:
    def build(self, plan):
        platform = presets.aws_f1()
        return Bonsai(
            hardware=platform.hardware,
            arch=MergerArchParams(),
            presort_run=16,
            p_max=8,
            leaves_max=64,
            unroll_max=2,
            pipe_max=2,
            parallel=plan,
        )

    def test_memo_accounting_matches_serial(self):
        array = ArrayParams.from_bytes(GB)
        serial_ranking, serial = observed_counters(
            lambda: self.build(None).rank_by_latency(array)
        )
        sharded_ranking, sharded = observed_counters(
            lambda: self.build(ParallelPlan(jobs=2)).rank_by_latency(array)
        )
        assert sharded_ranking == serial_ranking
        problems = diff_counters(
            serial.registry.counters(),
            sharded.registry.counters(),
            ignore_prefixes=IGNORED,
        )
        assert problems == []

    def test_bounded_latency_memo_matches_serial(self, monkeypatch):
        """Evictions fall at the same lookups serially and pooled."""
        monkeypatch.setattr("repro.core.optimizer.LATENCY_CACHE_SLICES", 2)
        arrays = [ArrayParams.from_bytes(n * GB) for n in (1, 2, 4, 1, 8, 2)]

        def sweep(plan):
            bonsai = self.build(plan)
            latency = [bonsai.rank_by_latency(array) for array in arrays]
            return latency + [bonsai.rank_by_throughput(array) for array in arrays[:2]]

        serial_rankings, serial = observed_counters(lambda: sweep(None))
        sharded_rankings, sharded = observed_counters(
            lambda: sweep(ParallelPlan(jobs=2))
        )
        assert sharded_rankings == serial_rankings
        assert diff_counters(
            serial.registry.counters(),
            sharded.registry.counters(),
            ignore_prefixes=IGNORED,
        ) == []
        # With two slices kept, the repeated sizes were evicted first.
        assert serial.registry.counter_value("optimizer.memo_hits", cache="latency") == 0

    def test_throughput_sweep_matches_serial(self):
        array = ArrayParams.from_bytes(GB)
        serial_ranking, serial = observed_counters(
            lambda: self.build(None).rank_by_throughput(array)
        )
        sharded_ranking, sharded = observed_counters(
            lambda: self.build(ParallelPlan(jobs=2)).rank_by_throughput(array)
        )
        assert sharded_ranking == serial_ranking
        assert diff_counters(
            serial.registry.counters(),
            sharded.registry.counters(),
            ignore_prefixes=IGNORED,
        ) == []


class TestWorkerSpans:
    def test_worker_spans_land_in_parent_sink_linked(self, hardware):
        rng = np.random.default_rng(13)
        data = rng.integers(0, 1 << 30, size=5000)
        config = AmtConfig(p=8, leaves=16, lambda_unroll=4)
        _, live = observed_counters(
            lambda: UnrolledSorter(
                config=config, hardware=hardware,
                parallel=ParallelPlan(jobs=2),
            ).sort(data)
        )
        spans = live.sink.spans()
        worker_spans = [s for s in spans if s["proc"] != "main"]
        assert worker_spans, "pool run must ship worker spans back"
        map_span_ids = {
            s["span"] for s in spans if s["name"] == "parallel.map"
        }
        # Every worker span tree hangs off a parent-side dispatch span.
        roots = [s for s in worker_spans if s["parent"] in map_span_ids]
        assert roots
        trace_ids = {s["trace"] for s in spans}
        assert len(trace_ids) == 1


class TestClusterSortMerge:
    """The executed cluster sort rides the same absorb contract: a
    pooled run's counters equal the serial run's, and a recomputed
    straggler partition is counted exactly once."""

    def run_cluster(self, data, plan=None, straggler=None):
        from repro.distributed.executor import ClusterExecutor

        return ClusterExecutor(
            nodes=4, plan=plan, straggler=straggler
        ).execute(data)

    def test_serial_and_jobs2_counters_identical(self):
        rng = np.random.default_rng(14)
        data = rng.integers(0, 1 << 30, size=8000, dtype=np.uint64)
        serial_report, serial = observed_counters(
            lambda: self.run_cluster(data)
        )
        pooled_report, pooled = observed_counters(
            lambda: self.run_cluster(data, plan=ParallelPlan(jobs=2))
        )
        assert serial_report.digest == pooled_report.digest
        assert diff_counters(
            serial.registry.counters(),
            pooled.registry.counters(),
            ignore_prefixes=IGNORED,
        ) == []

    def test_straggler_recompute_counts_exactly_once(self):
        from repro.distributed.executor import StragglerSpec

        rng = np.random.default_rng(15)
        data = rng.integers(0, 1 << 30, size=8000, dtype=np.uint64)
        serial_report, serial = observed_counters(
            lambda: self.run_cluster(data)
        )
        straggled_report, straggled = observed_counters(
            lambda: self.run_cluster(
                data,
                plan=ParallelPlan(jobs=2),
                straggler=StragglerSpec(node=1, mode="kill"),
            )
        )
        assert straggled_report.straggler_recovered
        assert straggled_report.digest == serial_report.digest
        # The recomputed partition's records land once — either from
        # the absorbed worker snapshot or from the parent's recompute,
        # never both.
        assert diff_counters(
            serial.registry.counters(),
            straggled.registry.counters(),
            ignore_prefixes=IGNORED,
        ) == []
        assert straggled.registry.counter_total("parallel.recomputed_chunks") >= 1

    def test_node_worker_spans_link_under_cluster_dispatch(self):
        rng = np.random.default_rng(16)
        data = rng.integers(0, 1 << 30, size=8000, dtype=np.uint64)
        _, live = observed_counters(
            lambda: self.run_cluster(data, plan=ParallelPlan(jobs=2))
        )
        spans = live.sink.spans()
        by_id = {s["span"]: s for s in spans}
        names = {s["name"] for s in spans}
        assert {
            "cluster.sort", "cluster.splitters", "cluster.exchange",
            "cluster.local_sort", "cluster.merge",
        } <= names
        cluster_ids = {s["span"] for s in spans if s["name"] == "cluster.sort"}
        assert len(cluster_ids) == 1
        # Phase spans hang directly off the one dispatch span.
        for phase in ("cluster.exchange", "cluster.local_sort", "cluster.merge"):
            phase_spans = [s for s in spans if s["name"] == phase]
            assert phase_spans
            assert all(s["parent"] in cluster_ids for s in phase_spans)
        # Worker spans hang off a parallel.map span whose ancestry
        # reaches the cluster.sort dispatch span.
        worker_spans = [s for s in spans if s["proc"] != "main"]
        assert worker_spans, "pool run must ship worker spans back"
        map_span_ids = {s["span"] for s in spans if s["name"] == "parallel.map"}
        roots = [s for s in worker_spans if s["parent"] in map_span_ids]
        assert roots
        for root in roots:
            node = by_id[root["parent"]]
            while node["parent"] in by_id:
                node = by_id[node["parent"]]
            assert node["span"] in cluster_ids
        assert len({s["trace"] for s in spans}) == 1
