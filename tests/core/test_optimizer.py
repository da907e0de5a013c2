"""The Bonsai optimizer (§III-C)."""

from __future__ import annotations

import pytest

from repro.core import presets
from repro.core.configuration import AmtConfig
from repro.core.optimizer import LATENCY_CACHE_SLICES, Bonsai
from repro.core.parameters import (
    ArrayParams,
    HardwareParams,
    MergerArchParams,
)
from repro.errors import ConfigurationError, NoFeasibleConfigError
from repro.units import GB, KiB


@pytest.fixture
def f1_bonsai() -> Bonsai:
    return presets.aws_f1().bonsai()


class TestFeasibleSpace:
    def test_all_yielded_configs_fit(self, f1_bonsai):
        for config in f1_bonsai.feasible_configs(include_pipelines=True):
            assert f1_bonsai.resources.fits(config)

    def test_leaves_cap_applies(self):
        bonsai = presets.aws_f1().bonsai(leaves_cap=64)
        assert all(
            config.leaves <= 64 for config in bonsai.feasible_configs()
        )

    def test_paper_synthesizable_set_is_feasible(self, f1_bonsai):
        # §VI-B: "all AMTs such that p <= 32 and l <= 256" were
        # implementable on the F1.
        feasible = set(
            (c.p, c.leaves)
            for c in f1_bonsai.feasible_configs()
            if c.lambda_unroll == 1
        )
        for p in (1, 2, 4, 8, 16, 32):
            for leaves in (4, 16, 64, 256):
                assert (p, leaves) in feasible

    def test_rejects_bad_bounds(self):
        platform = presets.aws_f1()
        with pytest.raises(ConfigurationError):
            Bonsai(hardware=platform.hardware, arch=MergerArchParams(), p_max=0)


class TestLatencyOptimal:
    def test_paper_dram_config(self, f1_bonsai):
        # §IV-A: "The latency-optimized configuration for this setup uses
        # a single AMT(32, 256)."
        best = f1_bonsai.latency_optimal(ArrayParams.from_bytes(16 * GB))
        assert best.config == AmtConfig(p=32, leaves=256)

    def test_paper_implemented_config_under_cap(self):
        # §VI-C1: with routing congestion capping l at 64: AMT(32, 64).
        bonsai = presets.aws_f1().bonsai(leaves_cap=64)
        best = bonsai.latency_optimal(ArrayParams.from_bytes(16 * GB))
        assert best.config == AmtConfig(p=32, leaves=64)

    def test_ssd_phase_two_config(self):
        # §IV-C: latency-optimal with the SSD as memory is AMT(8, 256)
        # ("p of our AMT is not high because peak SSD bandwidth is low").
        bonsai = presets.ssd_as_memory().bonsai()
        best = bonsai.latency_optimal(ArrayParams.from_bytes(64 * GB))
        assert best.config == AmtConfig(p=8, leaves=256)

    def test_low_bandwidth_prefers_low_p(self):
        bonsai = presets.custom_dram(2 * GB).bonsai()
        best = bonsai.latency_optimal(ArrayParams.from_bytes(4 * GB))
        assert best.config.p == 2

    def test_ranked_list_is_sorted(self, f1_bonsai):
        ranked = f1_bonsai.rank_by_latency(ArrayParams.from_bytes(8 * GB), top=20)
        latencies = [entry.latency_seconds for entry in ranked]
        assert latencies == sorted(latencies)

    def test_ranked_entries_report_resources(self, f1_bonsai):
        entry = f1_bonsai.rank_by_latency(ArrayParams.from_bytes(8 * GB), top=1)[0]
        assert entry.lut_usage > 0
        assert entry.bram_bytes > 0
        assert "AMT(" in entry.describe()

    def test_no_feasible_raises(self):
        hardware = HardwareParams(
            beta_dram=32 * GB, beta_io=8 * GB, c_dram=64 * GB,
            c_bram=1 * KiB, c_lut=100, batch_bytes=1 * KiB,
        )
        bonsai = Bonsai(hardware=hardware, arch=MergerArchParams())
        with pytest.raises(NoFeasibleConfigError):
            bonsai.latency_optimal(ArrayParams.from_bytes(1 * GB))

    def test_hbm_prefers_heavy_unrolling(self):
        # §IV-B: with 512 GB/s the model unrolls aggressively (the paper
        # picks 16x AMT(32, 2); the model's exact optimum trades leaves
        # against unroll inside the same BRAM budget).
        bonsai = presets.alveo_u50().bonsai()
        best = bonsai.latency_optimal(
            ArrayParams.from_bytes(16 * GB), unroll_mode="address_range"
        )
        assert best.config.lambda_unroll >= 8
        assert best.config.p == 32

    def test_paper_hbm_config_is_feasible(self):
        bonsai = presets.alveo_u50().bonsai()
        paper_config = AmtConfig(p=32, leaves=2, lambda_unroll=16)
        assert bonsai.resources.fits(paper_config)


class TestThroughputOptimal:
    def test_paper_ssd_phase_one(self):
        # §IV-C: "The pipeline contains 4 AMT(8, 64)" for 8 GB arrays.
        bonsai = presets.ssd_node().bonsai(presort_run=256)
        best = bonsai.throughput_optimal(ArrayParams.from_bytes(8 * GB))
        assert best.config == AmtConfig(p=8, leaves=64, lambda_pipe=4)
        assert best.throughput_bytes == pytest.approx(8 * GB)

    def test_capacity_constraint_rules_out_shallow_pipes(self):
        # lambda_pipe = 2 saturates I/O equally but fails Eq. 5 at 8 GB.
        bonsai = presets.ssd_node().bonsai(presort_run=256)
        shallow = AmtConfig(p=8, leaves=64, lambda_pipe=2)
        assert not bonsai.pipeline_can_sort(shallow, ArrayParams.from_bytes(8 * GB))

    def test_throughput_ranked_descending(self):
        bonsai = presets.ssd_node().bonsai(presort_run=256)
        ranked = bonsai.rank_by_throughput(ArrayParams.from_bytes(4 * GB), top=10)
        rates = [entry.throughput_bytes for entry in ranked]
        assert rates == sorted(rates, reverse=True)

    def test_all_ranked_satisfy_capacity(self):
        bonsai = presets.ssd_node().bonsai(presort_run=256)
        array = ArrayParams.from_bytes(8 * GB)
        for entry in bonsai.rank_by_throughput(array, top=25):
            assert bonsai.pipeline_can_sort(entry.config, array)

    def test_infeasible_array_raises(self):
        bonsai = presets.ssd_node().bonsai(presort_run=16)
        huge = ArrayParams.from_bytes(10**15)
        with pytest.raises(NoFeasibleConfigError):
            bonsai.throughput_optimal(huge)


class TestOptimizerClaims:
    """§III-A1: "increasing p is more beneficial than increasing l up
    until the AMT throughput reaches the DRAM bandwidth"."""

    def test_p_scaling_dominates_below_bandwidth(self, f1_bonsai):
        array = ArrayParams.from_bytes(16 * GB)
        model = f1_bonsai.performance
        low_p = model.latency_single(AmtConfig(p=4, leaves=256), array)
        double_p = model.latency_single(AmtConfig(p=8, leaves=256), array)
        double_l_only = model.latency_single(AmtConfig(p=4, leaves=512), array)
        assert double_p < double_l_only

    def test_leaves_still_help_at_saturation(self, f1_bonsai):
        # "increasing the number of leaves reduces the total number of
        # merge stages, thus reducing sorting time even when the AMT
        # throughput is high enough to saturate DRAM bandwidth."
        model = f1_bonsai.performance
        array = ArrayParams.from_bytes(64 * GB)
        narrow = model.latency_single(AmtConfig(p=32, leaves=64), array)
        wide = model.latency_single(AmtConfig(p=32, leaves=256), array)
        assert wide < narrow


class TestMemoization:
    """Repeated rankings reuse cached evaluations, bit for bit."""

    def test_warm_rankings_identical_to_fresh_instance(self, f1_bonsai):
        array = ArrayParams.from_bytes(16 * GB)
        warm_latency = f1_bonsai.rank_by_latency(array, top=10)
        warm_latency_again = f1_bonsai.rank_by_latency(array, top=10)
        warm_throughput = f1_bonsai.rank_by_throughput(array, top=10)
        fresh = presets.aws_f1().bonsai()
        assert warm_latency == warm_latency_again
        assert warm_latency == fresh.rank_by_latency(array, top=10)
        assert warm_throughput == fresh.rank_by_throughput(array, top=10)

    def test_caches_populate_and_are_reused(self, f1_bonsai):
        array = ArrayParams.from_bytes(4 * GB)
        assert not f1_bonsai._latency_cache
        first = f1_bonsai.rank_by_latency(array)
        n_latency = len(f1_bonsai._latency_cache)
        n_resource = len(f1_bonsai._resource_cache)
        assert n_latency > 0 and n_resource > 0
        second = f1_bonsai.rank_by_latency(array)
        # A repeat pass adds no new entries and returns equal results.
        assert len(f1_bonsai._latency_cache) == n_latency
        assert len(f1_bonsai._resource_cache) == n_resource
        assert first == second

    def test_caches_keyed_per_array(self, f1_bonsai):
        small = ArrayParams.from_bytes(1 * GB)
        large = ArrayParams.from_bytes(64 * GB)
        f1_bonsai.rank_by_latency(small)
        entries_after_small = len(f1_bonsai._latency_cache)
        f1_bonsai.rank_by_latency(large)
        # Different arrays are distinct keys, never stale hits.
        assert len(f1_bonsai._latency_cache) > entries_after_small
        best_small = f1_bonsai.latency_optimal(small)
        best_fresh = presets.aws_f1().bonsai().latency_optimal(small)
        assert best_small == best_fresh

    def test_latency_cache_stops_growing(self, f1_bonsai):
        arrays = [
            ArrayParams.from_bytes((n + 1) * GB) for n in range(3 * LATENCY_CACHE_SLICES)
        ]
        sizes = []
        for array in arrays:
            f1_bonsai.rank_by_latency(array)
            sizes.append(len(f1_bonsai._latency_cache))
        per_slice = sizes[0]
        assert sizes[:LATENCY_CACHE_SLICES] == [
            per_slice * (n + 1) for n in range(LATENCY_CACHE_SLICES)
        ]
        assert set(sizes[LATENCY_CACHE_SLICES:]) == {per_slice * LATENCY_CACHE_SLICES}
        # An evicted slice is evaluated again, identically.
        fresh = presets.aws_f1().bonsai()
        assert f1_bonsai.rank_by_latency(arrays[0]) == fresh.rank_by_latency(arrays[0])
