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
from repro.engine.unrolled import UnrolledSorter
from repro.obs.metrics import diff_counters
from repro.obs.runtime import activated, live_observation
from repro.parallel import ParallelPlan

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
    """An unrolled sorter carrying a jobs=2 plan: its model sort runs in
    the parent, its simulated units run in the pool, and both keep the
    serial counters."""

    def run(self, hardware, partitioning, plan):
        rng = np.random.default_rng(11)
        data = rng.integers(0, 1 << 30, size=5000)
        sorter = UnrolledSorter(
            config=AmtConfig(p=8, leaves=16, lambda_unroll=4),
            hardware=hardware, partitioning=partitioning, parallel=plan,
        )
        return sorter.sort(data), sorter.simulate(data[:1200])

    @pytest.mark.parametrize("partitioning", ["range", "address"])
    def test_serial_and_jobs2_counters_identical(self, hardware, partitioning):
        serial_outcomes, serial = observed_counters(
            lambda: self.run(hardware, partitioning, ParallelPlan())
        )
        sharded_outcomes, sharded = observed_counters(
            lambda: self.run(hardware, partitioning, ParallelPlan(jobs=2))
        )
        for serial_outcome, sharded_outcome in zip(serial_outcomes, sharded_outcomes):
            assert np.array_equal(serial_outcome.data, sharded_outcome.data)
        problems = diff_counters(
            serial.registry.counters(),
            sharded.registry.counters(),
            ignore_prefixes=IGNORED,
        )
        assert problems == []

    def test_parallel_bookkeeping_does_differ(self, hardware):
        # Guard against the comparison passing vacuously: the sharded
        # run must actually have taken the pool path, once, for the
        # simulated units.
        _, sharded = observed_counters(
            lambda: self.run(hardware, "range", ParallelPlan(jobs=2))
        )
        registry = sharded.registry
        assert registry.counter_value("parallel.maps", mode="pool") == 1
        assert registry.counter_total("parallel.tasks") > 0


class TestWorkerSpans:
    def test_worker_spans_land_in_parent_sink_linked(self, hardware):
        rng = np.random.default_rng(13)
        data = rng.integers(0, 1 << 30, size=1200)
        config = AmtConfig(p=8, leaves=16, lambda_unroll=4)
        _, live = observed_counters(
            lambda: UnrolledSorter(
                config=config, hardware=hardware,
                parallel=ParallelPlan(jobs=2),
            ).simulate(data)
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

    def run_cluster(self, data, plan=ParallelPlan()):
        from repro.distributed.executor import ClusterExecutor

        return ClusterExecutor(nodes=4, plan=plan).execute(data)

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

    def test_straggler_recompute_counts_exactly_once(self, straggler):
        rng = np.random.default_rng(15)
        data = rng.integers(0, 1 << 30, size=8000, dtype=np.uint64)
        serial_report, serial = observed_counters(
            lambda: self.run_cluster(data)
        )
        straggler(1)
        straggled_report, straggled = observed_counters(
            lambda: self.run_cluster(data, plan=ParallelPlan(jobs=2))
        )
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
