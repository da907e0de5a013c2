"""Perf-trajectory smoke suite (quick-mode ``bonsai bench``).

Runs the benchmark harness in quick mode, which *also* differentially
verifies on every scenario that the event-driven engine and the naive
stepper produce identical outputs and statistics (the runner raises if
they diverge).  Speedup floors here are deliberately conservative —
about half the full-run targets recorded in ``BENCH_simulator.json`` —
so CI noise cannot flake them; the committed trajectory carries the
headline numbers.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pathlib

import pytest

from repro.bench import SCENARIOS, compare_to_baseline, run_suite
from repro.bench.runner import SCHEMA, build_report
from repro.bench.scenarios import BY_NAME
from repro.errors import ConfigurationError

BASELINE_PATH = pathlib.Path(__file__).parent / "baseline.json"


#: The compute-bound parity shapes: the vectorized record path's claim
#: is that these no longer regress below 1.0x (gated at the quick-mode
#: half-target like every other floor).
COMPUTE_BOUND_NAMES = (
    "micro_balanced",
    "micro_unconstrained",
    "micro_compute_wide",
    "micro_dup_heavy",
)


@pytest.fixture(scope="module")
def quick_results():
    """One quick run of the bandwidth-bound + optimizer scenarios."""
    names = [s.name for s in SCENARIOS if s.bandwidth_bound] + ["optimizer_sweep"]
    return run_suite(names=names, quick=True)


@pytest.fixture(scope="module")
def compute_results():
    """One quick run of the compute-bound parity scenarios."""
    return run_suite(names=list(COMPUTE_BOUND_NAMES), quick=True)


def test_bandwidth_bound_shapes_speed_up(quick_results):
    """The fast engine beats the stepper on every bandwidth-bound shape.

    The runner has already asserted bit-identical outputs; this checks
    the speedups that motivate the engine, at noise-proof floors.
    """
    for result in quick_results:
        if result.kind == "optimizer":
            continue
        floor = (BY_NAME[result.name].target_speedup or 2.0) / 2
        assert result.speedup >= floor, (
            f"{result.name}: {result.speedup:.1f}x under quick-mode "
            f"floor {floor:.1f}x"
        )


def test_compute_bound_shapes_hold_parity(compute_results):
    """The former regression shapes clear their ≥1.0x targets.

    Quick mode halves the floor (0.5x) so host noise cannot flake CI;
    the committed full-mode trajectory carries the real ≥1.0x claim.
    """
    for result in compute_results:
        floor = (BY_NAME[result.name].target_speedup or 1.0) / 2
        assert result.speedup >= floor, (
            f"{result.name}: {result.speedup:.2f}x under quick-mode "
            f"floor {floor:.2f}x"
        )


def test_compute_bound_targets_are_real():
    """Every compute-bound shape carries an explicit ≥1.0x target (the
    old null targets let regressions hide)."""
    for name in COMPUTE_BOUND_NAMES:
        assert (BY_NAME[name].target_speedup or 0.0) >= 1.0


def test_end_to_end_figure_benchmark_speeds_up(quick_results):
    """The Fig. 13-regime full sort clears the end-to-end floor."""
    by_name = {result.name: result for result in quick_results}
    assert by_name["e2e_hdd_sort"].speedup >= 1.5
    assert by_name["e2e_hdd_sort"].extra["stages"] >= 2  # genuinely multi-stage


def test_optimizer_memoization_speeds_up(quick_results):
    """A warm shared Bonsai beats fresh instances, with identical ranks."""
    by_name = {result.name: result for result in quick_results}
    sweep = by_name["optimizer_sweep"]
    assert sweep.speedup >= 1.5  # runner asserts the rankings match


def test_report_schema(quick_results):
    report = build_report(quick_results, quick=True)
    assert report["schema"] == SCHEMA
    assert report["quick"] is True
    for name, payload in report["scenarios"].items():
        assert name in BY_NAME
        for key in ("kind", "naive_seconds", "fast_seconds", "speedup"):
            assert key in payload, f"{name} missing {key}"


def test_committed_baseline_is_coherent():
    """The CI gate's baseline names real scenarios and quick mode."""
    baseline = json.loads(BASELINE_PATH.read_text())
    assert baseline["schema"] == SCHEMA
    assert baseline["quick"] is True
    assert set(baseline["scenarios"]) == set(BY_NAME)
    for payload in baseline["scenarios"].values():
        assert payload["fast_seconds"] > 0


def test_baseline_gate_catches_slowdowns():
    baseline = json.loads(BASELINE_PATH.read_text())
    assert compare_to_baseline(baseline, baseline) == []
    slowed = copy.deepcopy(baseline)
    name = next(iter(slowed["scenarios"]))
    slowed["scenarios"][name]["fast_seconds"] = (
        3 * baseline["scenarios"][name]["fast_seconds"]
    )
    problems = compare_to_baseline(slowed, baseline, max_slowdown=2.0)
    assert len(problems) == 1 and name in problems[0]
    # Scenarios unknown to the baseline are ignored, not failed.
    extra = copy.deepcopy(baseline)
    extra["scenarios"]["brand_new_shape"] = {"fast_seconds": 99.0}
    assert compare_to_baseline(extra, baseline) == []


@pytest.fixture(scope="module")
def parallel_results():
    """One quick worker-count scan of both parallel scenarios."""
    results = run_suite(
        names=["parallel_unrolled_sort", "parallel_optimizer_sweep"], quick=True
    )
    return {result.name: result for result in results}


def test_scenarios_carry_one_explicit_seed():
    """Every scenario is seeded (no unseeded data paths) and the suite
    shares one default, so ``--seed`` overrides apply uniformly."""
    assert {scenario.seed for scenario in SCENARIOS} == {1}


def test_workload_generators_are_seed_deterministic():
    micro = BY_NAME["micro_balanced"]
    assert micro.make_runs(quick=True) == micro.make_runs(quick=True)
    assert (
        dataclasses.replace(micro, seed=99).make_runs(quick=True)
        != micro.make_runs(quick=True)
    )
    e2e = BY_NAME["e2e_hdd_sort"]
    assert e2e.make_records(quick=True) == e2e.make_records(quick=True)
    assert (
        dataclasses.replace(e2e, seed=99).make_records(quick=True)
        != e2e.make_records(quick=True)
    )


def test_suite_seed_override_reaches_the_workload(parallel_results):
    """``run_suite(seed=N)`` must rewrite the scenario's data, not just
    its label: the output digest moves with the seed and is stable for
    repeated runs at the same seed."""
    base = parallel_results["parallel_unrolled_sort"]
    (reseeded,) = run_suite(names=["parallel_unrolled_sort"], quick=True, seed=2)
    assert reseeded.extra["digest"] != base.extra["digest"]
    (again,) = run_suite(names=["parallel_unrolled_sort"], quick=True, seed=2)
    assert reseeded.extra["digest"] == again.extra["digest"]


def test_parallel_scenarios_stay_bit_identical(parallel_results):
    """The runner raises on any serial/parallel divergence; `identical`
    records that every jobs setting was actually compared."""
    for result in parallel_results.values():
        assert result.extra["identical"] is True
        assert set(result.extra["jobs_seconds"]) == {"1", "2", "4", "auto"}
        assert result.extra["host_cpus"] >= 1
    assert parallel_results["parallel_unrolled_sort"].extra["digest"]


def test_parallel_headline_matches_host_shape(parallel_results):
    """On a multicore host the headline times four workers; on a
    single-CPU host the pooled legs are annotated and excluded (they
    time process-spawn overhead, not parallelism, and recorded 0.05x
    "slowdowns" before)."""
    from repro.parallel import available_cpus

    expected = "4" if available_cpus() >= 2 else "1"
    for result in parallel_results.values():
        assert result.extra["headline_jobs"] == expected
        assert round(result.fast_seconds, 4) == result.extra["jobs_seconds"][expected]
        if expected == "1":
            assert "multi_job_timing" in result.extra
            assert result.speedup == 1.0
        else:
            assert "multi_job_timing" not in result.extra


def test_headline_key_picks_serial_leg_on_one_cpu(monkeypatch):
    import repro.bench.runner as runner

    monkeypatch.setattr(runner, "available_cpus", lambda: 1)
    key, note = runner._headline_jobs_key()
    assert key == "1" and "single-CPU" in note
    monkeypatch.setattr(runner, "available_cpus", lambda: 8)
    key, note = runner._headline_jobs_key()
    assert key == "4" and note == ""


def test_parallel_sort_speedup_floor_on_multicore(parallel_results):
    """Half the full-run 2.5x target, and only where 4 workers can
    physically exist; single-core hosts record honest <1x numbers."""
    result = parallel_results["parallel_unrolled_sort"]
    if result.extra["host_cpus"] < 4:
        pytest.skip("speedup floor needs >= 4 host CPUs")
    assert result.speedup >= 1.25


@pytest.fixture(scope="module")
def cluster_result():
    """One quick run of the executed cluster-sort scenario."""
    (result,) = run_suite(names=["cluster_sort"], quick=True)
    return result


def test_cluster_sort_executes_verified_with_full_report(cluster_result):
    """Every jobs leg landed on the serial single-tree output bytes
    (the runner raises otherwise), and the measured Table I figure sits
    next to the model's prediction in the report."""
    extra = cluster_result.extra
    assert extra["identical"] is True
    assert set(extra["jobs_seconds"]) == {"1", "2", "4", "auto"}
    assert extra["digest"]
    assert extra["cluster_nodes"] == 4
    assert extra["measured_ms_per_gb"] > 0
    assert extra["modeled_ms_per_gb"] > 0
    assert extra["measured_vs_modeled"] > 0
    assert extra["measured_skew"] >= 1.0
    assert extra["skew_leg"]["identical"] is True
    assert extra["skew_leg"]["measured_skew"] >= 1.0


def test_cluster_sort_headline_matches_host_shape(cluster_result):
    """Same exclusion rule as the parallel scenarios: single-CPU hosts
    pin the headline to the serial leg and annotate why."""
    from repro.parallel import available_cpus

    expected = "4" if available_cpus() >= 2 else "1"
    assert cluster_result.extra["headline_jobs"] == expected
    assert (
        round(cluster_result.fast_seconds, 4)
        == cluster_result.extra["jobs_seconds"][expected]
    )
    if expected == "1":
        assert "multi_job_timing" in cluster_result.extra
    else:
        assert "multi_job_timing" not in cluster_result.extra


def test_cluster_sort_speedup_floor_on_multicore(cluster_result):
    """Half the ≥1.0x full-run target, and only where four workers can
    physically exist: the executed multi-node leg must not cost more
    than twice the single-process serial sort it replaces."""
    if cluster_result.extra["host_cpus"] < 4:
        pytest.skip("speedup floor needs >= 4 host CPUs")
    floor = (BY_NAME["cluster_sort"].target_speedup or 1.0) / 2
    assert cluster_result.speedup >= floor


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        run_suite(names=["no_such_shape"])


class TestObservabilityOverhead:
    """The ≤2% instrumentation-off overhead gate.

    Strategy: count every instrumentation call the obs workload makes
    (one observed pass), measure the per-call cost of the disabled
    path, and require that their product fits in 2% of the workload's
    uninstrumented wall clock.  This bounds what instrumentation *could*
    add — it fails if the disabled path grows allocations/locks, or if
    someone lands per-record instrumentation (call counts scaling with
    data size blow the budget immediately) — without flaking on the
    noise of comparing two close wall-clock measurements.
    """

    def test_obs_scenario_reports_budget_inputs(self):
        from repro.bench import run_suite as run

        (result,) = run(names=["obs_noop_overhead"], quick=True)
        assert result.extra["metric_updates"] > 0
        assert result.extra["spans_closed"] > 0
        assert result.fast_seconds > 0 and result.naive_seconds > 0

    def test_disabled_instrumentation_fits_two_percent_budget(self):
        import time

        from repro.bench.scenarios import run_obs_workload
        from repro.obs.runtime import DISABLED, activated, live_observation

        scenario = BY_NAME["obs_noop_overhead"]
        records = scenario.make_records(quick=True)

        live = live_observation()
        with activated(live):
            run_obs_workload(scenario, records)
        updates = live.registry.total_updates
        spans = live.tracer.spans_closed
        assert updates > 0 and spans > 0

        calls = 200_000
        start = time.perf_counter()
        for _ in range(calls):
            DISABLED.count("x", 1)
        count_cost = (time.perf_counter() - start) / calls
        start = time.perf_counter()
        for _ in range(calls):
            with DISABLED.span("x"):
                pass
        span_cost = (time.perf_counter() - start) / calls

        with activated(DISABLED):
            start = time.perf_counter()
            run_obs_workload(scenario, records)
            runtime = time.perf_counter() - start

        ceiling = updates * count_cost + spans * span_cost
        assert ceiling <= 0.02 * runtime, (
            f"{updates} counter updates and {spans} spans could add "
            f"{ceiling * 1e6:.0f}us to a {runtime * 1e3:.1f}ms run "
            f"(gate: {0.02 * runtime * 1e6:.0f}us)"
        )
