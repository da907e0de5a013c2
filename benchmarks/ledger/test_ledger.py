"""Smoke tests of the ledger: ``python -m pytest benchmarks/ledger -q``.

Every workload runs at ``--smoke`` sizes in its own subprocess, exactly
as the benchmark command does, once untraced and twice traced.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from benchmarks.ledger import compare, run

run.require_source()
from benchmarks.ledger import workloads  # noqa: E402  (needs the checkout's src)

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "ledger" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [entry["name"] for entry in SPEC["workloads"]]


def ledger_run(tmp: Path, workload: str, trace: int, tag: str, **popen) -> tuple[int, str, dict]:
    """One smoke run; returns exit code, stdout and the written detail."""
    out = tmp / f"{workload}-{trace}-{tag}.json"
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=170, cwd=ROOT, **popen,
    )
    detail = json.loads(out.read_text()) if out.is_file() else {}
    return proc.returncode, proc.stdout, detail


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ledger")
    results = {}
    for name in NAMES:
        for trace, tag in ((0, "a"), (1, "a"), (1, "b")):
            results[name, trace, tag] = ledger_run(tmp, name, trace, tag)
    return results


def last_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert NAMES == list(workloads.WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + NAMES
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup == {**setup, "unit": "s", "better": "lower"}
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_with_its_unit(smoke, workload):
    for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        code, stdout, detail = smoke[workload, trace, "a"]
        assert code == 0, stdout
        line = last_line(stdout)
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in wanted]
        for metric in wanted:
            entry = line["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] is not None or entry["unmeasured"]
            assert f" {metric['name']} " in stdout
        assert {"usable_cpus", "python", "numpy", "git_revision", "seed"} <= set(detail["host"])


@pytest.mark.parametrize("workload", NAMES)
def test_ledger_spans_explain_the_traced_wall_time(smoke, workload):
    _code, _stdout, detail = smoke[workload, 1, "a"]
    assert detail["metrics"]["obs.span_coverage_pct"]["value"] >= 95
    assert detail["attribution"]["coverage"] >= 0.95
    assert "obs.trace_overhead_pct" in detail["metrics"]


@pytest.mark.parametrize("workload", NAMES)
def test_exact_counts_repeat_for_a_seed(smoke, workload):
    first = smoke[workload, 1, "a"][2]["metrics"]
    second = smoke[workload, 1, "b"][2]["metrics"]
    for name in compare.EXACT:
        assert first[name]["value"] == second[name]["value"], name


def test_simulated_layers_report_their_counts(smoke):
    layers = {name: smoke[name, 1, "a"][2]["metrics"] for name in NAMES}
    for name in ("simulate_compute", "simulate_storage"):
        assert layers[name]["hw.sim_cycles"]["value"] > 0
        assert layers[name]["hw.cycles_vs_model_x"]["value"] >= 1
    assert layers["oneshot_sort"]["hw.sim_cycles"]["value"] == 0
    assert layers["cluster_skewed"]["distributed.skew"]["value"] >= 1
    assert layers["serve_mixed"]["serve.cache_hit_ratio"]["value"] > 0


def _corrupt_digest(monkeypatch):
    original = workloads.SortSession.run_sort

    def run_sort(self, job):
        return {**original(self, job), "digest": "0" * 16}

    monkeypatch.setattr(workloads.SortSession, "run_sort", run_sort)
    return "oneshot_sort"


def _full_range_reversal(monkeypatch):
    # Keys 2**64 - 1 apart: a signed difference wraps, so an order check
    # through int64 would call [2**64 - 1, 0] sorted.
    monkeypatch.setattr(
        workloads.SimulateStorage, "generate_input",
        lambda self: np.array([0, 2**64 - 1], dtype=np.uint64),
    )
    monkeypatch.setattr(workloads.SimulateStorage, "op", lambda self: [2**64 - 1, 0])
    return "simulate_storage"


@pytest.mark.parametrize("corrupt", [_corrupt_digest, _full_range_reversal])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_wrong_output_fails_the_run(monkeypatch, capsys, corrupt, trace):
    workload = corrupt(monkeypatch)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.05",
                     "--trace", trace, "--smoke"])
    assert code == 1
    line = last_line(capsys.readouterr().out)
    assert line["correct"] is False and line["failed"] >= 1


def test_oracle_digest_orders_the_full_uint64_range():
    keys = np.array([2**64 - 1, 0], dtype=np.uint64)
    assert workloads.oracle_digest(keys) == workloads.key_digest([0, 2**64 - 1])
    assert workloads.oracle_digest(keys) != workloads.key_digest(keys)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_cpu_marks_pooled_legs_unmeasured(tmp_path):
    one_cpu = {"preexec_fn": lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})}
    code, stdout, detail = ledger_run(tmp_path, "cluster_skewed", 0, "pinned", **one_cpu)
    assert code == run.UNMEASURED
    assert "unmeasured" in detail and '"metrics"' not in stdout
    code, stdout, _detail = ledger_run(tmp_path, "simulate_storage", 1, "pinned", **one_cpu)
    assert code == 0
    entry = last_line(stdout)["metrics"]["parallel.map_overhead_ms"]
    assert entry["value"] is None and "CPU" in entry["unmeasured"]


def session_processes(session: int) -> list[str]:
    """``pid state name`` of every live or unreaped process in ``session``."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            if os.getsid(int(pid)) == session:
                stat = Path(f"/proc/{pid}/stat").read_text()
                found.append(f"{pid} {stat.rsplit(')', 1)[1].split()[0]} {stat.split()[1]}")
        except (OSError, IndexError):
            continue  # exited while we looked
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="needs /proc")
@pytest.mark.parametrize("trace", [0, 1])
def test_a_run_leaves_no_process_behind(tmp_path, trace):
    # cluster_skewed starts pool workers and, through shared memory, the
    # multiprocessing resource tracker; both must be gone when it exits.
    out = tmp_path / "cluster.json"
    proc = subprocess.Popen(
        [sys.executable, str(RUN), "--workload", "cluster_skewed", "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke", "--out", str(out)],
        stdout=subprocess.DEVNULL, cwd=ROOT, start_new_session=True,
    )
    code = proc.wait(timeout=170)
    assert code in (0, run.UNMEASURED)
    assert session_processes(proc.pid) == []


def test_without_the_program_it_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "ledger", tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "oneshot_sort",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _ledger_file(path: Path, values: dict[str, float], failed_fraction: float = 0.0) -> str:
    metrics = {name: {"value": value} for name, value in values.items()}
    path.write_text(json.dumps({
        "workload": "oneshot_sort", "trace": False, "metrics": metrics,
        "failed_fraction": failed_fraction,
    }))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    base = {m["name"]: 100.0 for m in SPEC["end_to_end"]}
    noise = [1.0, 0.99, 1.01, 1.0, 0.995, 1.005, 1.0, 0.99, 1.01, 1.0]
    parent = [_ledger_file(tmp_path / f"p{i}.json", {k: v * f for k, v in base.items()})
              for i, f in enumerate(noise)]

    def change(tag: str, **scales: float) -> list[str]:
        return [
            _ledger_file(tmp_path / f"{tag}{i}.json",
                         {k: v * f * scales.get(k, 1.0) for k, v in base.items()})
            for i, f in enumerate(noise)
        ]

    assert compare.main(parent + change("same")) == 0
    assert "unchanged" in capsys.readouterr().out
    assert compare.main(parent + change("fast", records_per_s=1.05)) == 0
    rows = capsys.readouterr().out
    assert re.search(r"records_per_s .* better", rows)
    assert compare.main(parent + change("slow", records_per_s=0.7)) == 1
    assert re.search(r"records_per_s .* worse", capsys.readouterr().out)
    failing = [_ledger_file(tmp_path / f"f{i}.json", base, failed_fraction=0.1) for i in range(10)]
    assert compare.main(parent + failing) == 1
    assert re.search(r"failed_fraction .* worse", capsys.readouterr().out)
    assert compare.main(parent[:3]) == 2
