"""Instrumentation end to end: CLI sessions, engine and optimizer series.

The acceptance bar for the observability layer: a traced CLI run writes
a valid JSONL trace whose phase attribution covers at least 95% of the
run's wall time, plus a metrics snapshot and a run manifest; and the
engine/optimizer counters describe the work actually performed.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import presets
from repro.core.configuration import AmtConfig
from repro.core.optimizer import Bonsai
from repro.core.parameters import ArrayParams, MergerArchParams
from repro.engine.sorter import AmtSorter
from repro.obs.manifest import MANIFEST_SCHEMA
from repro.obs.report import build_report
from repro.obs.runtime import DISABLED, activated, live_observation, observation
from repro.obs.sink import read_jsonl
from repro.units import GB

COVERAGE_FLOOR = 0.95


@pytest.fixture(scope="module")
def hardware():
    return presets.aws_f1_measured().hardware


class TestCliSession:
    def test_sort_writes_trace_metrics_and_manifest(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        manifest = tmp_path / "run.json"
        code = main([
            "sort", "--records", "5000",
            "--trace", str(trace), "--metrics", str(metrics),
            "--manifest", str(manifest),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "wrote trace" in err and "wrote manifest" in err

        events = read_jsonl(trace)
        spans = [e for e in events if e.get("kind") == "span"]
        assert any(
            s["name"] == "cli.sort" and s["parent"] is None for s in spans
        )
        names = {s["name"] for s in spans}
        assert {"sort.load", "sorter.sort", "sorter.stage",
                "sort.validate", "sort.digest"} <= names
        # The trace is self-contained: the metrics snapshot rides along.
        assert any(e.get("kind") == "metrics" for e in events)

        report = build_report(trace)
        assert report["coverage"] >= COVERAGE_FLOOR

        snapshot = json.loads(metrics.read_text())
        counters = {
            (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
            for c in snapshot["counters"]
        }
        assert counters[("engine.sorts", ())] == 1

        document = json.loads(manifest.read_text())
        assert document["schema"] == MANIFEST_SCHEMA
        assert document["command"] == "sort"
        assert document["exit_code"] == 0
        assert document["config"]["records"] == 5000
        assert len(document["config_digest"]) == 64

    def test_optimize_trace_meets_coverage_floor(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        code = main([
            "optimize", "--size", "1GB", "--top", "1", "--trace", str(trace),
        ])
        assert code == 0
        report = build_report(trace)
        assert report["coverage"] >= COVERAGE_FLOOR
        names = {r["name"] for r in report["rows"]}
        assert "optimizer.rank_latency" in names

    def test_metrics_only_run_writes_no_trace(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        assert main([
            "sort", "--records", "2000", "--metrics", str(metrics),
        ]) == 0
        snapshot = json.loads(metrics.read_text())
        assert any(c["name"] == "engine.sorts" for c in snapshot["counters"])
        assert not (tmp_path / "t.jsonl").exists()

    def test_no_flags_leaves_observability_disabled(self, capsys):
        assert main(["sort", "--records", "2000"]) == 0
        assert observation() is DISABLED

    def test_failed_run_still_writes_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "run.json"
        code = main([
            "sort", "--input", str(tmp_path / "missing.bin"),
            "--manifest", str(manifest),
        ])
        assert code == 2
        document = json.loads(manifest.read_text())
        assert document["exit_code"] == 2


class TestEngineCounters:
    def test_model_sort_counts_records_and_bytes(self, hardware):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 1 << 30, size=4000)
        live = live_observation()
        sorter = AmtSorter(config=AmtConfig(p=8, leaves=8), hardware=hardware)
        with activated(live):
            outcome = sorter.sort(data)
        registry = live.registry
        assert registry.counter_value("engine.sorts") == 1
        assert registry.counter_value("engine.stages", mode="model") == (
            outcome.stages
        )
        # Every stage touches every record once, in and out.
        assert registry.counter_total("engine.stage_records") == (
            4000 * outcome.stages
        )
        record_bytes = sorter.arch.record_bytes
        assert registry.counter_value("engine.bytes_read") == (
            4000 * outcome.stages * record_bytes
        )

    def test_simulate_sort_publishes_cycle_series(self, hardware):
        rng = np.random.default_rng(4)
        data = rng.integers(0, 1 << 30, size=900)
        live = live_observation()
        with activated(live):
            outcome = AmtSorter(
                config=AmtConfig(p=8, leaves=8),
                hardware=hardware,
                mode="simulate",
            ).sort(data)
        registry = live.registry
        assert registry.counter_total("sim.cycles") > 0
        assert registry.counter_total("sim.records") > 0
        stage_spans = [
            s for s in live.sink.spans() if s["name"] == "sorter.stage"
        ]
        assert len(stage_spans) == outcome.stages
        assert all(s.get("cycles", 0) > 0 for s in stage_spans)

    def test_disabled_observation_records_nothing(self, hardware):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 1 << 30, size=2000)
        AmtSorter(config=AmtConfig(p=8, leaves=8), hardware=hardware).sort(data)
        assert observation() is DISABLED
        assert observation().registry.total_updates == 0


class TestOptimizerCounters:
    def test_memo_hits_and_misses_accounted(self):
        platform = presets.aws_f1()
        bonsai = Bonsai(
            hardware=platform.hardware,
            arch=MergerArchParams(),
            presort_run=16,
            p_max=8,
            leaves_max=64,
            unroll_max=2,
            pipe_max=2,
        )
        array = ArrayParams.from_bytes(GB)
        live = live_observation()
        with activated(live):
            first = bonsai.rank_by_latency(array)
        cold = live.registry
        assert cold.counter_value("optimizer.configs_ranked", sweep="latency") \
            == len(first)
        assert cold.counter_total("optimizer.memo_misses") > 0

        rerun = live_observation()
        with activated(rerun):
            second = bonsai.rank_by_latency(array)
        assert second == first
        warm = rerun.registry
        assert warm.counter_value("optimizer.memo_misses", cache="latency") == 0
        assert warm.counter_value("optimizer.memo_hits", cache="latency") > 0
