"""Run the performance ledger.

One workload, the form the benchmark contract uses::

    python3 benchmarks/ledger/run.py --workload oneshot_sort --seed 1 \\
        --seconds 15 --trace 0

prints every metric by name with its unit, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  It exits 1
on any wrong output or failed operation and 3 when the host cannot run
the workload (``cluster_skewed`` needs two usable CPUs).

Every workload, each in a fresh subprocess, written to one ledger::

    python3 benchmarks/ledger/run.py --seed 1 --out ledger.json \\
        [--trace 1 --trace-out traces/]

``--trace-out`` keeps each traced run's spans as JSONL for
``bonsai report``.  ``--smoke`` shrinks every input for tests.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3
#: Exit code of a workload the host cannot run (never a faked number).
UNMEASURED = 3
#: The counters ``StageStats.publish`` adds per simulated stage.
SIM_COUNTERS = (
    "sim.stages", "sim.cycles", "sim.merger_active_cycles",
    "sim.merger_stall_cycles", "sim.merger_idle_cycles",
    "sim.loader_bandwidth_limited_cycles",
)


def require_source() -> None:
    """Put the checkout's ``src`` first on the path, or exit 2 without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ledger: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)
    for path in (str(ROOT), str(SRC)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summary(values: list[float]) -> dict:
    """Median with quartiles and the sample count."""
    return {
        "median": statistics.median(values),
        "q1": percentile(values, 25),
        "q3": percentile(values, 75),
        "n": len(values),
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    from repro.units import MB

    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def host_info(seed: int) -> dict:
    import numpy as np

    from repro.obs.manifest import git_revision
    from repro.parallel.plan import available_cpus

    return {
        "usable_cpus": available_cpus(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": git_revision(ROOT),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# end-to-end metrics (untraced)
# ----------------------------------------------------------------------
def end_to_end(measurement, setup_s: float) -> dict:
    """The end-to-end metrics of one untraced window.

    Rates come from the window's fastest operation.  On a shared host,
    other load slows every operation by 10-30% for stretches of seconds;
    a window's median moves with how much of it such a stretch covers,
    while its fastest operation does not.  The rates' medians and
    quartiles and the request latency percentiles, with their sample
    counts, are kept for the full ledger.
    """
    from repro.units import MS

    ops, requests = measurement.ops, measurement.requests
    if not ops:  # the first output was wrong: nothing verified to time
        return {"setup_s": {"value": setup_s}, "peak_rss_mb": {"value": peak_rss_mb()},
                "records_per_s": {"value": None}, "requests_per_s": {"value": None}}

    def rate(work: int) -> dict:
        return {"value": work / min(ops), **summary([work / s for s in ops])}

    latencies = summary([s / MS for s in requests])
    return {
        "setup_s": {"value": setup_s},
        "records_per_s": rate(measurement.records_per_op),
        "requests_per_s": rate(measurement.requests_per_op),
        "peak_rss_mb": {"value": peak_rss_mb()},
        "request_p50_ms": {"value": latencies["median"], **latencies, "unit": "ms"},
        "request_p95_ms": {"value": percentile(requests, 95) / MS, "n": len(requests),
                           "unit": "ms"},
    }


# ----------------------------------------------------------------------
# per-layer metrics (traced)
# ----------------------------------------------------------------------
def traced_pass(workload, seconds: float):
    """Repeat the traced decomposition for ``seconds`` (at least once).

    Each repetition runs the workload's operation untraced and traced,
    then every layer call of :func:`workloads.trace_layers`; all of it
    under one root span, so the ledger spans account for the window.
    """
    from benchmarks.ledger.workloads import trace_layers
    from repro.obs import MemorySink, activated, live_observation

    obs = live_observation(MemorySink(), trace_id=f"ledger.{workload.name}")
    verdicts: list[bool] = []
    facts: list[dict] = []
    rep = 0

    def step(name, fn):
        with obs.span(name, rep=rep):
            return fn()

    started = time.perf_counter()
    with obs.span(f"ledger.{workload.name}", seed=workload.seed):
        while rep == 0 or time.perf_counter() - started < seconds:
            output = step(workload.op_span + ".untraced", workload.op)
            verdicts.append(step("ledger.check", lambda: workload.check(output)))
            # Facts the operation reports itself come from the untraced
            # call, so they line up with the untraced time they explain.
            rep_facts = workload.facts(output)
            with activated(obs):
                before = {name: obs.registry.counter_total(name) for name in SIM_COUNTERS}
                output = step(workload.op_span, workload.op)
                rep_facts.update({
                    name: obs.registry.counter_total(name) - before[name]
                    for name in SIM_COUNTERS
                })
                verdicts.append(step("ledger.check", lambda: workload.check(output)))
                layer_verdicts, layer_facts = trace_layers(workload, step, rep)
            verdicts.extend(layer_verdicts)
            rep_facts.update(layer_facts)
            facts.append(rep_facts)
            rep += 1
    return obs, verdicts, facts


def _ledger_ancestor(span: dict, by_id: dict) -> dict | None:
    parent = by_id.get(span.get("parent"))
    while parent is not None and not parent["name"].startswith("ledger."):
        parent = by_id.get(parent.get("parent"))
    return parent


def per_layer(workload, events: list[dict], facts: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics from the traced run's spans and per-rep facts.

    Returns ``(metrics, unmeasured)``: metric values by name, and a
    reason for each metric the host could not measure.
    """
    from repro.parallel.plan import available_cpus
    from repro.units import GB, MS

    spans = [event for event in events if event.get("kind") == "span"]
    by_id = {span["span"]: span for span in spans}
    reps = len(facts)
    sums: dict[str, list[float]] = defaultdict(lambda: [0.0] * reps)
    each: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        rep = span.get("attrs", {}).get("rep")
        if span["name"].startswith("ledger.") and rep is not None:
            name = span["name"][len("ledger."):]
            sums[name][rep] += span["dur_s"]
            each[name].append(span["dur_s"])
            continue
        if span["name"] not in ("hw.merge_stage", "sorter.sort"):
            continue
        owner = _ledger_ancestor(span, by_id)
        if owner is None or owner["name"] != workload.op_span:
            continue
        rep = owner["attrs"]["rep"]
        if span["name"] == "hw.merge_stage":
            sums["hw.run"][rep] += span["dur_s"]
        elif span.get("attrs", {}).get("mode") == "simulate":
            sums["sorter.simulate"][rep] += span["dur_s"]

    def ms(name: str) -> float:
        return median(sums[name]) / MS

    def fact(name: str) -> float:
        return median([rep_facts.get(name, 0.0) for rep_facts in facts])

    def rate(numerators: list[float], name: str) -> float:
        return median([n / s for n, s in zip(numerators, sums[name]) if s > 0])

    op_span = workload.op_span[len("ledger."):]
    records, stages = fact("records"), fact("engine.stages")
    cycles = fact("sim.cycles")
    merger_cycles = sum(fact(f"sim.merger_{kind}_cycles") for kind in ("active", "stall", "idle"))
    marshal = [
        (whole - run - split) / whole
        for whole, run, split in zip(
            sums["sorter.simulate"], sums["hw.run"], sums["engine.split"]
        )
        if whole > 0
    ]
    distributed_s = {
        phase: [rep_facts.get(f"distributed.{phase}_s", 0.0) for rep_facts in facts]
        for phase in ("splitters", "exchange", "local_sort", "merge")
    }
    times = {
        "op_ms": ms(op_span + ".untraced"),
        "hw.run_ms": ms("hw.run"),
        **{f"distributed.{phase}_ms": median(values) / MS
           for phase, values in distributed_s.items()},
    }
    model_cycles = workload.model_cycles(fact("sim.stages"))
    metrics = {
        "records.generate_ms": ms("records.generate"),
        "records.validate_ms": ms("records.validate"),
        "records.digest_ms": ms("records.digest"),
        "engine.split_ms": ms("engine.split"),
        "engine.merge_stage_ms": ms("engine.merge_stage"),
        "engine.merge_records_per_s": rate([records * stages] * reps, "engine.merge_stage"),
        "engine.stages": stages,
        "engine.merge_vs_np_sort_x": ms("engine.merge_stage") / ms("floor.np_sort"),
        "engine.sim_marshal_pct": 100 * median(marshal),
        "hw.sim_cycles": cycles,
        "hw.sim_cycles_per_s": rate([f.get("sim.cycles", 0.0) for f in facts], "hw.run"),
        "hw.cycles_vs_model_x": cycles / model_cycles if cycles else 0.0,
        "hw.merger_active_fraction": (
            fact("sim.merger_active_cycles") / merger_cycles if merger_cycles else 0.0
        ),
        "hw.loader_bandwidth_limited_cycles": fact("sim.loader_bandwidth_limited_cycles"),
        "parallel.map_overhead_ms": ms("parallel.map"),
        "parallel.shm_pack_ms": ms("parallel.shm_pack"),
        **{
            f"distributed.{phase}_records_per_s": median(
                [workload.keys.size / s for s in values if s > 0]
            )
            for phase, values in distributed_s.items()
        },
        "distributed.skew": fact("distributed.skew"),
        "distributed.measured_vs_modeled_x": fact("distributed.measured_vs_modeled_x"),
        "serve.hit_ms_p50": median(each["serve.hit"]) / MS,
        "serve.small_ms_p50": median(each["serve.small"]) / MS,
        "serve.big_ms_p50": median(each["serve.big"]) / MS,
        "serve.session_ms_p50": median(each["serve.session"]) / MS,
        "serve.cache_hit_ratio": fact("serve.cache_hit_ratio"),
        "serve.rejected": fact("serve.rejected"),
        "core.optimize_cold_ms": ms("core.optimize_cold"),
        "core.optimize_warm_ms": ms("core.optimize_warm"),
        "floor.np_sort_ms": ms("floor.np_sort"),
        "floor.memcpy_gbps": fact("bytes") / (median(sums["floor.memcpy"]) * GB),
        "obs.trace_overhead_pct": 100 * (ms(op_span) / ms(op_span + ".untraced") - 1),
    }
    metrics["serve.overhead_ms"] = metrics["serve.big_ms_p50"] - metrics["serve.session_ms_p50"]
    times.update(metrics)
    metrics["session.unattributed_ms"] = times[workload.explained] - sum(
        times[name] for name in workload.composition
    )
    root = next(span for span in spans if span["name"] == f"ledger.{workload.name}")
    covered = sum(span["dur_s"] for span in spans if span.get("parent") == root["span"])
    metrics["obs.span_coverage_pct"] = 100 * covered / root["dur_s"]
    unmeasured = {}
    if available_cpus() < 2:
        unmeasured["parallel.map_overhead_ms"] = (
            f"needs 2 usable CPUs for a 2-worker pool; this host has {available_cpus()}"
        )
    return metrics, unmeasured


def write_trace(path: Path, obs) -> None:
    """The traced run as JSONL that ``bonsai report`` attributes."""
    from repro.obs import JsonlSink

    path.parent.mkdir(parents=True, exist_ok=True)
    sink = JsonlSink(path)
    try:
        for event in obs.sink.events:
            sink.emit(event)
        sink.emit({"kind": "metrics", "snapshot": obs.registry.snapshot()})
    finally:
        sink.close()


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def run_workload(args, spec: dict) -> int:
    imports_started = time.perf_counter()
    from benchmarks.ledger import workloads
    from repro.errors import BonsaiError
    from repro.obs.report import attribute
    from repro.parallel.plan import available_cpus

    import_s = time.perf_counter() - imports_started
    cls = workloads.WORKLOADS[args.workload]
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    detail = {
        "workload": args.workload,
        "trace": bool(args.trace),
        "sizes": vars(sizes),
        "host": host_info(args.seed),
    }
    if available_cpus() < cls.min_cpus:
        reason = (f"needs {cls.min_cpus} usable CPUs, this host has {available_cpus()}")
        print(f"{args.workload}: unmeasured: {reason}", file=sys.stderr)
        write_json(args.out, {**detail, "unmeasured": reason})
        return UNMEASURED

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = cls(args.seed, sizes)
    setup_times: list[float] = []
    unmeasured: dict[str, str] = {}
    try:
        correct = True
        for _ in range(SETUPS):
            workload.close()
            started = time.perf_counter()
            correct &= workload.setup()
            setup_times.append(time.perf_counter() - started)
        setup_s = import_s + statistics.median(setup_times)
        if args.trace:
            obs, verdicts, facts = traced_pass(workload, args.seconds)
            correct &= all(verdicts)
            attempted, failed = len(verdicts), verdicts.count(False)
            values, unmeasured = per_layer(workload, obs.sink.events, facts)
            detail["attribution"] = attribute(obs.sink.events)
            if args.trace_out:
                write_trace(Path(args.trace_out), obs)
            metrics = {name: {"value": value} for name, value in values.items()}
        else:
            measurement = workload.measure(args.seconds)
            correct &= measurement.failed == 0
            attempted, failed = measurement.attempted, measurement.failed
            metrics = end_to_end(measurement, setup_s)
            detail["samples"] = {"ops_s": measurement.ops, "requests_s": measurement.requests}
    except BonsaiError as error:
        # A layer refused an input or an output: a failed operation.
        print(f"{args.workload}: {type(error).__name__}: {error}", file=sys.stderr)
        correct, attempted, failed = False, 1, 1
        metrics = {metric["name"]: {"value": None} for metric in wanted}
    finally:
        workload.close()
        stop_children()

    units ={metric["name"]: metric["unit"] for metric in wanted}
    for name, unit in units.items():
        metrics[name]["unit"] = unit
        if name in unmeasured:
            metrics[name].update(value=None, unmeasured=unmeasured[name])
    for name, entry in metrics.items():
        shown = f"{entry['value']:.6g}" if entry["value"] is not None else (
            "unmeasured" if "unmeasured" in entry else "-")
        print(f"{args.workload:18s} {name:40s} {shown:>14s} {entry['unit']}")
    line_metrics = {
        name: {key: metrics[name][key] for key in ("value", "unit", "unmeasured")
               if key in metrics[name]}
        for name in units
    }
    detail.update(
        correct=correct, attempted=attempted, failed=failed,
        failed_fraction=failed / attempted, setup_times_s=setup_times,
        import_s=import_s, metrics=metrics,
    )
    write_json(args.out, detail)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": line_metrics,
    }))
    return 0 if correct and failed == 0 else 1


def stop_children() -> None:
    """Stop and reap every process this run started.

    Pool workers first, then the resource tracker that the first shared
    memory block starts.  The tracker only exits once every process
    holding its pipe has closed it, and nothing waits for it, so without
    this it outlives the run.
    """
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.terminate()
            child.join()
    # Closes the tracker's pipe and waits for it to exit; a no-op when
    # no tracker was started.
    resource_tracker._resource_tracker._stop()


def write_json(path: str | None, payload: dict) -> None:
    if path:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# every workload
# ----------------------------------------------------------------------
def run_all(args, spec: dict) -> int:
    """Each workload in a fresh subprocess, one after another, so set-up
    time, peak memory and pool or cache state stay per workload."""
    scratch = ROOT / ".ledger"
    ledger = {"schema": "bonsai-ledger/v1", "seed": args.seed, "smoke": args.smoke,
              "host": host_info(args.seed), "workloads": {}}
    status = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        record = ledger["workloads"][name] = {"why": entry["why"]}
        for trace in (0, 1) if args.trace else (0,):
            detail_path = scratch / f"{name}-{os.getpid()}-{trace}.json"
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--out", str(detail_path),
            ]
            if args.smoke:
                command.append("--smoke")
            if trace and args.trace_out:
                command += ["--trace-out", str(Path(args.trace_out) / f"{name}.jsonl")]
            code = subprocess.run(command, timeout=600).returncode
            detail = json.loads(detail_path.read_text()) if detail_path.is_file() else {}
            detail_path.unlink(missing_ok=True)
            if code == UNMEASURED:
                record["unmeasured"] = detail.get("unmeasured", "host cannot run it")
                break
            if code != 0:
                status = 1
            record["traced" if trace else "untraced"] = detail
    write_json(args.out, ledger)
    return status


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload here (default: all, each in a subprocess)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run and per-layer metrics")
    parser.add_argument("--trace-out",
                        help="JSONL of the traced run (a directory without --workload)")
    parser.add_argument("--out", help="write the full ledger JSON here")
    parser.add_argument("--smoke", action="store_true", help="small inputs, for tests")
    args = parser.parse_args(argv)
    require_source()
    if args.workload:
        return run_workload(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
