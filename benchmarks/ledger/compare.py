"""Compare ledger runs of a parent commit and a change.

    python -m benchmarks.ledger.compare PARENT_1.json ... PARENT_N.json \\
        CHANGE_1.json ... CHANGE_N.json

The first half of the files are the parent's runs and the second half
the change's, in the order they ran; run ``i`` of each side forms pair
``i`` (alternate which side runs first).  Each file is a ledger written
by ``run.py --out``, for every workload or for one.

One row per workload and end-to-end metric gives both medians with
their quartiles, the change's delta against the parent median, the pair
wins, and a verdict under the bounds in ``BENCHMARK.json``:

* ``better`` — the change wins at least 9 of every 10 pairs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile range;
* ``worse`` — the change's median is worse than the parent's by more
  than the bound;
* ``unresolved`` — the parent's own spread exceeds the bound, so the
  runs cannot tell a change from noise, unless every change run reads
  better (or worse) than every parent run;
* ``unchanged`` — otherwise.

The exact per-layer numbers of traced runs (:data:`EXACT`: counts and
ratios of counts that a pure speed change must not move) are listed as
``same`` or ``changed``.  Exits 1 on any ``worse`` row or on any rise in
a workload's failed fraction, 2 on unusable input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Per-layer metrics that repeat bit for bit for one seed.
EXACT = (
    "engine.stages", "hw.sim_cycles", "hw.cycles_vs_model_x",
    "hw.merger_active_fraction", "hw.loader_bandwidth_limited_cycles",
    "distributed.skew", "serve.cache_hit_ratio", "serve.rejected",
)


def runs_by_workload(path: str) -> dict[str, dict]:
    """``{workload: {"metrics": {name: value}, "failed_fraction": x}}``."""
    ledger = json.loads(Path(path).read_text())
    if "workloads" in ledger:
        details = [
            detail
            for record in ledger["workloads"].values()
            for detail in (record.get("untraced"), record.get("traced"))
            if detail
        ]
    else:
        details = [ledger]
    runs: dict[str, dict] = {}
    for detail in details:
        if "metrics" not in detail:
            continue
        run = runs.setdefault(detail["workload"], {"metrics": {}, "failed_fraction": 0.0})
        run["metrics"].update(
            {name: entry["value"] for name, entry in detail["metrics"].items()}
        )
        run["failed_fraction"] = max(run["failed_fraction"], detail["failed_fraction"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Judge one workload and metric; see the module docstring."""
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm) / pm
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = min(len(parent), len(change))
    if (p3 - p1) / pm > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            result = "better"
        elif max(sign * c for c in change) < min(sign * p for p in parent) and gain < -bound:
            result = "worse"
        else:
            result = "unresolved"
    elif gain < -bound:
        result = "worse"
    elif gain > 0 and wins * 10 >= 9 * pairs and abs(cm - pm) > p3 - p1:
        result = "better"
    else:
        result = "unchanged"
    return {
        "parent": (p1, pm, p3), "change": (c1, cm, c3), "delta": (cm - pm) / pm,
        "wins": wins, "pairs": pairs, "verdict": result,
    }


def compare(parent_runs: list[dict], change_runs: list[dict], spec: dict) -> tuple[list, bool]:
    """Rows of the comparison, and whether any of them is a regression."""
    rows, regressed = [], False
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (entry["name"] for entry in spec["workloads"]):
        parent = [run[workload] for run in parent_runs if workload in run]
        change = [run[workload] for run in change_runs if workload in run]
        if not parent or not change:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [run["metrics"][name] for run in parent if run["metrics"].get(name) is not None]
            c = [run["metrics"][name] for run in change if run["metrics"].get(name) is not None]
            if not p or not c:
                continue
            row = verdict(p, c, metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"], **row})
            regressed |= row["verdict"] == "worse"
        p_fail = max(run["failed_fraction"] for run in parent)
        c_fail = max(run["failed_fraction"] for run in change)
        rows.append({
            "workload": workload, "metric": "failed_fraction", "unit": "fraction",
            "parent": (p_fail,) * 3, "change": (c_fail,) * 3, "delta": c_fail - p_fail,
            "wins": 0, "pairs": 0, "verdict": "worse" if c_fail > p_fail else "unchanged",
        })
        regressed |= c_fail > p_fail
        for name in EXACT:
            p = {run["metrics"][name] for run in parent if name in run["metrics"]}
            c = {run["metrics"][name] for run in change if name in run["metrics"]}
            if p and c:
                rows.append({
                    "workload": workload, "metric": name, "unit": units[name],
                    "parent": (min(p), min(p), max(p)), "change": (min(c), min(c), max(c)),
                    "delta": 0.0, "wins": 0, "pairs": 0,
                    "verdict": "same" if p == c and len(p) == 1 else "changed",
                })
    return rows, regressed


def render(rows: list[dict]) -> str:
    def side(q: tuple) -> str:
        return f"{q[1]:.6g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [
        f"{'workload':17s} {'metric':44s} {'parent median [q1, q3]':32s} "
        f"{'change median [q1, q3]':32s} {'delta':>8s} {'wins':>6s}  verdict"
    ]
    for row in rows:
        wins = f"{row['wins']}/{row['pairs']}" if row["pairs"] else "-"
        lines.append(
            f"{row['workload']:17s} {row['metric'] + ' (' + row['unit'] + ')':44s} "
            f"{side(row['parent']):32s} {side(row['change']):32s} "
            f"{row['delta'] * 100:+7.2f}% {wins:>6s}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare parent and change ledger runs (first half parent, second half change)"
    )
    parser.add_argument("ledgers", nargs="+", help="PARENT.json... CHANGE.json...")
    args = parser.parse_args(argv)
    if len(args.ledgers) % 2:
        print("compare: give as many change runs as parent runs", file=sys.stderr)
        return 2
    half = len(args.ledgers) // 2
    runs = [runs_by_workload(path) for path in args.ledgers]
    rows, regressed = compare(runs[:half], runs[half:], json.loads(SPEC_PATH.read_text()))
    if not rows:
        print("compare: no workload appears on both sides", file=sys.stderr)
        return 2
    print(render(rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
