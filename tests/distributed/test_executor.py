"""The measured cluster executor: bit-exact output, skew, stragglers."""

from __future__ import annotations

import dataclasses
import multiprocessing
import random

import numpy as np
import pytest

from repro.core import presets
from repro.core.configuration import AmtConfig
from repro.distributed.executor import ClusterExecutor
from repro.engine.sorter import AmtSorter
from repro.errors import ConfigurationError
from repro.obs.runtime import activated, live_observation
from repro.parallel import ParallelPlan
from repro.records.valsort import content_digest
from repro.records.workloads import skewed_nearly_sorted


def execute_observed(executor: ClusterExecutor, data: np.ndarray):
    """Run ``executor`` under a live observation; return the report and
    how many node tasks the parent had to recompute."""
    live = live_observation()
    with activated(live):
        report = executor.execute(data)
    return report, live.registry.counter_total("parallel.recomputed_chunks")


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    rng = np.random.default_rng(21)
    return rng.integers(0, 1 << 32, size=20_000, dtype=np.uint64)


@pytest.fixture(scope="module")
def oracle_digest(data) -> str:
    return content_digest(np.sort(data, kind="stable"))


class TestSerialExecution:
    def test_matches_oracle_bit_exactly(self, data, oracle_digest):
        report = ClusterExecutor(nodes=4).execute(data)
        assert report.digest == oracle_digest
        assert np.array_equal(report.data, np.sort(data))
        assert report.records == data.size
        assert sum(report.partition_records) == data.size

    def test_phase_times_compose_elapsed(self, data):
        report = ClusterExecutor(nodes=4).execute(data)
        phases = (
            report.splitter_seconds + report.exchange_seconds
            + report.sort_seconds + report.merge_seconds
        )
        assert report.elapsed_seconds == pytest.approx(phases, rel=1e-6)

    def test_reports_measured_next_to_modeled(self, data):
        report = ClusterExecutor(nodes=4).execute(data)
        assert report.measured_ms_per_gb > 0
        assert report.modeled_ms_per_gb > 0
        assert report.measured_vs_modeled == pytest.approx(
            report.measured_ms_per_gb / report.modeled_ms_per_gb
        )
        assert report.modeled.skew_factor == report.measured_skew
        assert report.measured_skew >= 1.0

    def test_single_node_cluster_degenerates_cleanly(self, data, oracle_digest):
        report = ClusterExecutor(nodes=1).execute(data)
        assert report.digest == oracle_digest
        assert report.measured_skew == 1.0

    def test_seed_moves_splitters_not_output(self, data, oracle_digest):
        for seed in (0, 99):
            report = ClusterExecutor(nodes=4, seed=seed).execute(data)
            assert report.digest == oracle_digest


class TestCommittedDigest:
    def test_cluster_and_single_tree_land_on_the_committed_digest(self):
        """50,000 seeded keys through a 4-node AMT(8,16) cluster and
        through one tree give the same committed output bytes."""
        rng = random.Random(1)
        data = np.asarray(
            [rng.randrange(0, 1 << 30) for _ in range(50_000)], dtype=np.uint64
        )
        config = AmtConfig(p=8, leaves=16)
        report = ClusterExecutor(nodes=4, config=config, seed=1).execute(data)
        single = AmtSorter(config=config, hardware=presets.aws_f1_measured().hardware)
        assert report.digest == "6bf847c43fc199d1"
        assert content_digest(single.sort(data).data) == "6bf847c43fc199d1"


class TestPooledExecution:
    def test_jobs2_bit_identical_to_serial(self, data, oracle_digest):
        plan = ParallelPlan.from_jobs(2)
        report, recomputed = execute_observed(
            ClusterExecutor(nodes=4, plan=plan), data
        )
        assert report.digest == oracle_digest
        assert recomputed == 0

    def test_partitions_identical_across_jobs(self, data):
        serial = ClusterExecutor(nodes=4).execute(data)
        pooled = ClusterExecutor(
            nodes=4, plan=ParallelPlan.from_jobs(2)
        ).execute(data)
        assert serial.partition_records == pooled.partition_records
        assert serial.measured_skew == pooled.measured_skew


class TestOneRoundTrip:
    def test_pooled_sort_makes_one_pool_map(self, data, oracle_digest):
        live = live_observation()
        with activated(live):
            report = ClusterExecutor(
                nodes=4, plan=ParallelPlan(jobs=2)
            ).execute(data)
        assert report.digest == oracle_digest
        # Each node pulls its range and sorts it in the same task.
        assert live.registry.counter_value("parallel.maps", mode="pool") == 1
        assert live.registry.counter_value("parallel.maps", mode="serial") == 0


class TestEmptyPartitions:
    @pytest.fixture(scope="class")
    def tied(self) -> np.ndarray:
        # 80% of the mass on one key ties two splitters at 7, so node 0
        # owns nothing.
        rng = np.random.default_rng(3)
        return np.where(
            rng.random(20_000) < 0.8,
            np.uint64(7),
            rng.integers(0, 1 << 40, size=20_000, dtype=np.uint64),
        )

    def test_empty_node_at_every_jobs_setting(self, tied):
        oracle = content_digest(np.sort(tied, kind="stable"))
        serial = ClusterExecutor(nodes=4, seed=1).execute(tied)
        pooled = ClusterExecutor(
            nodes=4, seed=1, plan=ParallelPlan(jobs=2)
        ).execute(tied)
        assert serial.digest == pooled.digest == oracle
        assert serial.partition_records == pooled.partition_records
        assert serial.partition_records == (0, 16570, 73, 3357)
        assert 0 in serial.partition_records
        assert serial.measured_skew == pooled.measured_skew
        assert serial.measured_skew == pytest.approx(3.314)


class TestSkewedWorkload:
    def test_zipf_nearly_sorted_still_bit_exact(self):
        skewed = np.asarray(skewed_nearly_sorted(20_000, seed=1), dtype=np.uint64)
        report = ClusterExecutor(nodes=4).execute(skewed)
        assert report.digest == content_digest(np.sort(skewed, kind="stable"))
        # The oversampled sketch keeps even an adversarial histogram
        # within a modest skew; the report carries the measured number.
        assert 1.0 <= report.measured_skew < 4.0


class TestStragglers:
    @pytest.mark.parametrize("node", [0, 3])
    def test_killed_node_recovers_bit_exactly(
        self, data, oracle_digest, straggler, node
    ):
        straggler(node)
        report, recomputed = execute_observed(
            ClusterExecutor(nodes=4, plan=ParallelPlan.from_jobs(2)), data
        )
        assert report.digest == oracle_digest
        assert recomputed >= 1
        assert multiprocessing.active_children() == []

    def test_recompute_visible_in_trace(self, data, oracle_digest, straggler):
        straggler(1)
        executor = ClusterExecutor(nodes=4, plan=ParallelPlan.from_jobs(2))
        live = live_observation()
        with activated(live):
            report = executor.execute(data)
        assert report.digest == oracle_digest
        assert live.registry.counter_total("parallel.recomputed_chunks") >= 1
        names = {span["name"] for span in live.sink.spans()}
        assert {"cluster.sort", "cluster.exchange", "cluster.local_sort"} <= names


class TestValidation:
    def test_rejects_unpackable_keys(self):
        with pytest.raises(ConfigurationError, match="uint64"):
            ClusterExecutor(nodes=2).execute(np.asarray([-1, 2], dtype=np.int64))
        with pytest.raises(ConfigurationError, match="uint64"):
            ClusterExecutor(nodes=2).execute(np.asarray([1.5, 2.5]))

    def test_rejects_empty_input(self):
        with pytest.raises(ConfigurationError, match="zero records"):
            ClusterExecutor(nodes=2).execute(np.empty(0, dtype=np.uint64))

    def test_rejects_bad_cluster_shapes(self):
        with pytest.raises(ConfigurationError, match=">= 1 node"):
            ClusterExecutor(nodes=0)
        with pytest.raises(ConfigurationError, match="unknown mode"):
            ClusterExecutor(nodes=2, mode="explode")

    def test_report_round_trips_replace(self, data):
        report = ClusterExecutor(nodes=2).execute(data)
        trimmed = dataclasses.replace(report, data=None)
        assert trimmed.digest == report.digest
        assert trimmed.data is None
