"""Differential suite: parallel == serial, bit for bit.

The acceptance contract of the execution layer — for every surface that
takes a ``jobs`` setting (unrolled trees in both modes), every setting
must reproduce the serial plan's results exactly: sorted bytes, modeled
seconds, cycle counts and traffic.  Each surface is exercised across at
least three jobs settings and eight workload seeds.  Only work that pays
for a pool round trip reaches one: session sorts and optimizer rankings
always run in the parent, a long-lived session (the serve daemon's)
sorts exactly like a fresh one and like the ``np.sort`` oracle, and the
optimizer's memo must rank a warm instance exactly like a cold one.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import presets
from repro.core.configuration import AmtConfig
from repro.core.optimizer import Bonsai
from repro.core.parameters import ArrayParams, MergerArchParams
from repro.engine.sorter import AmtSorter
from repro.engine.unrolled import UnrolledSorter
from repro.obs.runtime import activated, live_observation
from repro.parallel import ParallelPlan
from repro.records.valsort import content_digest
from repro.records.workloads import WorkloadSpec, generate
from repro.serve.session import OptimizeJob, SortJob, SortSession
from repro.units import GB

SEEDS = tuple(range(8))

#: The serial default first, as every surface's reference, then three
#: pooled jobs settings; "auto" rides along to cover CPU-count resolution.
JOBS_SETTINGS = (
    ParallelPlan(),
    ParallelPlan(jobs=2),
    ParallelPlan(jobs=4),
    ParallelPlan(jobs="auto"),
)


@pytest.fixture(scope="module")
def hardware():
    return presets.aws_f1_measured().hardware


def pool_maps(fn):
    """Run ``fn`` under a live observation; return its result and the
    number of maps it dispatched to a process pool."""
    live = live_observation()
    with activated(live):
        result = fn()
    return result, live.registry.counter_value("parallel.maps", mode="pool")


def outcomes_identical(left, right) -> bool:
    return (
        np.array_equal(left.data, right.data)
        and left.data.dtype == right.data.dtype
        and left.seconds == right.seconds
        and left.stages == right.stages
        and left.traffic == right.traffic
        and left.mode == right.mode
    )


#: One long-lived session, as the serve daemon keeps: each job below runs
#: on it after every job before it.
SHARED_SESSION = SortSession()


def assert_session_parity(job: SortJob) -> None:
    """A long-lived session's sort payload — digest, checksum, stages,
    model or simulated seconds — is a fresh session's, and its digest is
    the ``np.sort`` oracle's."""
    reference = SortSession().run_sort(job)
    assert reference["stages"] > 1
    oracle = np.sort(generate(WorkloadSpec(
        kind=job.workload, n_records=job.records, seed=job.seed,
    )))
    assert reference["digest"] == content_digest(oracle)
    assert SHARED_SESSION.run_sort(job) == reference


class TestAmtSorterModel:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_model_sort_matches_serial(self, seed):
        assert_session_parity(SortJob(records=4000, seed=seed, p=8, leaves=8))

    def test_model_sort_never_dispatches_to_the_pool(self):
        """One in-place row sort per stage: a session does no pool work
        for a model-mode sort."""
        job = SortJob(records=50_000)
        payload, maps = pool_maps(lambda: SortSession().run_sort(job))
        assert maps == 0
        assert payload["stages"] > 1


class TestAmtSorterSimulate:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_simulate_sort_matches_across_jobs(self, seed):
        """Simulate mode: outputs *and* cycle-derived seconds, bit for bit."""
        assert_session_parity(
            SortJob(records=900, seed=seed, p=8, leaves=8, mode="simulate")
        )


class TestUnrolledModel:
    @pytest.mark.parametrize("partitioning", ["range", "address"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_model_sort_matches_serial(self, hardware, partitioning, seed):
        """The λ partitions sort in a serial loop at every jobs setting:
        same outcome, and no map ever reaches the pool."""
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 1 << 30, size=5000)
        config = AmtConfig(p=8, leaves=16, lambda_unroll=4)
        serial = UnrolledSorter(
            config=config, hardware=hardware, partitioning=partitioning
        ).sort(data)
        for plan in JOBS_SETTINGS:
            parallel, maps = pool_maps(lambda: UnrolledSorter(
                config=config,
                hardware=hardware,
                partitioning=partitioning,
                parallel=plan,
            ).sort(data))
            assert maps == 0, plan
            assert outcomes_identical(serial, parallel)
            assert parallel.detail == serial.detail

    def test_duplicate_heavy_partitions_match(self, hardware):
        # Heavy duplication can empty interior range partitions; a
        # plan-carrying sorter must reproduce that case too.
        rng = np.random.default_rng(0)
        data = rng.integers(0, 4, size=3000)
        config = AmtConfig(p=8, leaves=16, lambda_unroll=4)
        serial = UnrolledSorter(config=config, hardware=hardware).sort(data)
        parallel = UnrolledSorter(
            config=config, hardware=hardware, parallel=ParallelPlan(jobs=4)
        ).sort(data)
        assert outcomes_identical(serial, parallel)


class TestUnrolledSimulate:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sharded_units_match_joint_simulation(self, hardware, seed):
        """Per-unit workers reproduce the serial simulation exactly —
        including ``parallel_cycles = max(unit completion cycles)``."""
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 1 << 30, size=1200)
        config = AmtConfig(p=8, leaves=8, lambda_unroll=4)
        joint = UnrolledSorter(config=config, hardware=hardware).simulate(data)
        for plan in JOBS_SETTINGS:
            sharded = UnrolledSorter(
                config=config, hardware=hardware, parallel=plan
            ).simulate(data)
            assert np.array_equal(joint.data, sharded.data)
            assert joint.seconds == sharded.seconds
            assert joint.stages == sharded.stages
            assert joint.detail == sharded.detail

    def test_committed_digest_and_cycles(self, hardware):
        """λ_unrl=4 over 3,000 seeded keys lands on the committed output
        digest and cycle counts under every jobs setting."""
        rng = random.Random(1)
        data = np.asarray(
            [rng.randrange(0, 1 << 30) for _ in range(3000)], dtype=np.uint64
        )
        config = AmtConfig(p=8, leaves=8, lambda_unroll=4)
        for plan in JOBS_SETTINGS:
            outcome = UnrolledSorter(
                config=config, hardware=hardware, parallel=plan
            ).simulate(data)
            assert content_digest(outcome.data) == "6a6788ed479c1c01"
            assert outcome.detail["parallel_cycles"] == 453
            assert outcome.detail["final_merge_cycles"] == 424


class TestOptimizerRanking:
    @pytest.fixture(scope="class")
    def space(self):
        platform = presets.aws_f1()
        def build():
            return Bonsai(
                hardware=platform.hardware,
                arch=MergerArchParams(),
                presort_run=16,
                p_max=8,
                leaves_max=128,
                unroll_max=4,
                pipe_max=4,
            )
        return build

    @pytest.fixture(scope="class")
    def warm(self, space):
        """One optimizer whose memo already holds every slice below."""
        bonsai = space()
        for size_gb in (1, 4, 16):
            array = ArrayParams.from_bytes(size_gb * GB)
            bonsai.rank_by_latency(array)
            bonsai.rank_by_throughput(array)
        return bonsai

    @pytest.mark.parametrize("size_gb", [1, 4, 16])
    def test_latency_ranking_identical(self, space, warm, size_gb):
        array = ArrayParams.from_bytes(size_gb * GB)
        cold = space().rank_by_latency(array)
        assert cold, "bounded space must stay non-empty"
        assert warm.rank_by_latency(array) == cold

    @pytest.mark.parametrize("size_gb", [1, 4])
    def test_throughput_ranking_identical(self, space, warm, size_gb):
        array = ArrayParams.from_bytes(size_gb * GB)
        assert warm.rank_by_throughput(array) == space().rank_by_throughput(array)

    def test_second_ranking_is_all_memo_hits(self, space):
        """A repeated ranking is answered from the memo alone and
        equals a fresh optimizer's."""
        array = ArrayParams.from_bytes(GB)
        bonsai = space()
        first = bonsai.rank_by_latency(array)
        cached = dict(bonsai._latency_cache)
        live = live_observation()
        with activated(live):
            second = bonsai.rank_by_latency(array)
        assert first == second == space().rank_by_latency(array)
        assert bonsai._latency_cache == cached
        registry = live.registry
        assert registry.counter_value("optimizer.memo_misses", cache="latency") == 0
        assert registry.counter_value(
            "optimizer.memo_hits", cache="latency"
        ) == len(first)

    @pytest.mark.parametrize("objective", ["latency", "throughput"])
    def test_session_optimize_never_dispatches_to_the_pool(self, objective):
        job = OptimizeJob(size_bytes=GB, objective=objective)
        payload, maps = pool_maps(lambda: SortSession().run_optimize(job))
        assert maps == 0
        assert payload["rows"]


class TestFullRangeKeys:
    def test_max_uint64_key_survives_every_simulate_surface(self, hardware):
        """2**64 - 1 is an ordinary key: the pad sentinel sits above it,
        so no simulate path drops or miscounts it."""
        rng = np.random.default_rng(3)
        data = rng.integers(0, 1 << 64, size=320, dtype=np.uint64)
        data[::4] = np.iinfo(np.uint64).max
        expected = np.sort(data)
        for mode in ("model", "simulate"):
            outcome = AmtSorter(
                config=AmtConfig(p=4, leaves=4), hardware=hardware, mode=mode
            ).sort(data)
            assert np.array_equal(outcome.data, expected), mode
        config = AmtConfig(p=4, leaves=4, lambda_unroll=4)
        for plan in (ParallelPlan(), ParallelPlan(jobs=2)):
            outcome = UnrolledSorter(
                config=config, hardware=hardware, parallel=plan
            ).simulate(data)
            assert np.array_equal(outcome.data, expected), plan


class TestSimulateShmTransport:
    """The zero-copy simulate-mode transport's uint64 record space."""

    def test_uint64_range_packs(self):
        from repro.hw.banks import UnrolledSimulation
        from repro.parallel.shm import as_uint64_keys

        # numpy infers float64 for this list; the gate must not.
        full_range = [0, 2**64 - 1]
        packed = [
            as_uint64_keys(keys)
            for keys in (full_range, np.asarray([7], dtype=np.uint32))
        ]
        assert all(run.dtype == np.uint64 for run in packed)
        assert packed[0].tolist() == full_range
        keys = [2**64 - 1, 5, 2**63, 0, 9, 2**64 - 2, 1, 2**63 + 1]
        for plan in (ParallelPlan(), ParallelPlan(jobs=2)):
            sim = UnrolledSimulation(p=2, leaves=2, lambda_unroll=2)
            sim.run(keys, plan=plan)
            assert sim.output.tolist() == sorted(keys), plan
