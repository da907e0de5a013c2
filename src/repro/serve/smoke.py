# bonsai-lint: disable-file=determinism -- the smoke driver polls live daemons against host wall-clock deadlines
"""CI serve-smoke driver: ``python -m repro.serve.smoke --artifacts DIR``.

Boots real ``bonsai serve`` daemons as subprocesses and proves the three
acceptance properties end to end, the way an operator would see them:

1. **bit-identity** — 20 concurrent client jobs (5 distinct configs x 4)
   through one daemon return digests equal to direct ``bonsai sort
   --print-digest`` subprocess runs, with repeats answered from cache;
2. **backpressure** — a flood of slow simulate-mode jobs against a
   depth-2 queue draws explicit ``rejected: overloaded`` responses;
3. **graceful drain** — SIGTERM lands mid-stream: every admitted job
   still completes and is answered, a post-SIGTERM submission is
   refused, the daemon exits 0, flushes its trace/metrics/manifest, and
   leaves no process behind (checked by scanning ``/proc`` for the
   daemon's unique socket path in a cmdline).

Exit code 0 only if every assertion holds; failures print a ``FAIL:``
line each and exit 1 so the CI job log is diagnosable on its own.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from repro.errors import ServeError
from repro.serve.client import ServeClient

_FAILURES: list[str] = []


def _check(ok: bool, label: str) -> bool:
    if ok:
        print(f"ok: {label}")
    else:
        print(f"FAIL: {label}")
        _FAILURES.append(label)
    return ok


def _spawn_daemon(socket_path: str, artifacts: pathlib.Path, tag: str,
                  *flags: str) -> tuple[subprocess.Popen, object]:
    """Start ``bonsai serve`` as a real subprocess, logging to artifacts."""
    log = open(artifacts / f"serve-{tag}.log", "w")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--socket", socket_path,
            "--trace", str(artifacts / f"serve-{tag}-trace.jsonl"),
            "--metrics", str(artifacts / f"serve-{tag}-metrics.json"),
            "--manifest", str(artifacts / f"serve-{tag}-manifest.json"),
            *flags,
        ],
        stdout=log, stderr=subprocess.STDOUT,
    )
    return process, log


def _wait_listening(socket_path: str, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with ServeClient(socket_path, timeout=5.0) as client:
                client.ping()
            return
        except ServeError:
            time.sleep(0.1)
    raise ServeError(f"daemon never listened on {socket_path}")


def _direct_digest(params: dict) -> str:
    """What a one-shot CLI run says the job's output digest is."""
    out = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "sort",
            "--records", str(params["records"]),
            "--seed", str(params["seed"]),
            "--p", str(params["p"]),
            "--leaves", str(params["leaves"]),
            "--print-digest",
        ],
        check=True, capture_output=True, text=True,
    ).stdout
    for line in out.splitlines():
        if line.startswith("digest="):
            return line.split("=", 1)[1]
    raise ServeError(f"no digest line in direct sort output:\n{out}")


def _serve_one(socket_path: str, index: int, params: dict) -> dict:
    """One concurrent client: its own connection, one job."""
    with ServeClient(socket_path, client_id=f"smoke-{index}") as client:
        return client.sort(**params)


def _orphans(socket_path: str) -> list[str]:
    """Processes (the daemon or any child of it) still naming the socket."""
    found = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ")
        except OSError:  # bonsai-lint: disable=exn-swallow -- the process exited between iterdir and read; by definition not an orphan
            continue
        if socket_path.encode() in cmdline:
            found.append(f"pid {entry.name}: {cmdline.decode(errors='replace')}")
    return found


def _phase_identity(artifacts: pathlib.Path) -> None:
    """20 concurrent jobs; served digests == direct CLI digests."""
    print("--- phase 1: concurrent identity + cache ---")
    socket_path = f"/tmp/bsm-{os.getpid()}-a.sock"
    distinct = [
        {"records": 4000 + 500 * index, "seed": 11 + index, "p": 8, "leaves": 16}
        for index in range(5)
    ]
    expected = {json.dumps(p, sort_keys=True): _direct_digest(p) for p in distinct}
    requests = [distinct[index % len(distinct)] for index in range(20)]

    process, log = _spawn_daemon(
        socket_path, artifacts, "identity",
        "--queue-depth", "32", "--client-quota", "32",
    )
    try:
        _wait_listening(socket_path)
        with ThreadPoolExecutor(max_workers=20) as pool:
            responses = list(pool.map(
                lambda pair: _serve_one(socket_path, *pair),
                enumerate(requests),
            ))
        _check(all(r["status"] == "ok" for r in responses),
               "all 20 concurrent jobs completed ok")
        mismatched = [
            index for index, (response, params) in enumerate(zip(responses, requests))
            if response["result"]["digest"]
            != expected[json.dumps(params, sort_keys=True)]
        ]
        _check(not mismatched,
               f"served digests match direct `bonsai sort` runs "
               f"({len(requests)} jobs, {len(distinct)} distinct)")
        with ServeClient(socket_path) as client:
            # The burst raced its own duplicates into the queue; a
            # sequential repeat must now come straight from the cache.
            repeat = client.sort(**distinct[0])
            _check(
                repeat["status"] == "ok" and repeat["cached"]
                and repeat["result"]["digest"]
                == expected[json.dumps(distinct[0], sort_keys=True)],
                "repeat job was answered from the digest-keyed cache",
            )
            stats = client.stats()["result"]
            _check(stats["rejected_overloaded"] == 0,
                   "depth-32 queue admitted the whole burst")
            client.shutdown()
        process.wait(timeout=30)
        _check(process.returncode == 0,
               "daemon exited 0 after protocol-requested drain")
    finally:
        if process.poll() is None:
            process.kill()
        log.close()
    _check(
        (artifacts / "serve-identity-trace.jsonl").exists()
        and (artifacts / "serve-identity-metrics.json").exists()
        and (artifacts / "serve-identity-manifest.json").exists(),
        "identity daemon flushed trace/metrics/manifest",
    )


def _phase_backpressure_and_drain(artifacts: pathlib.Path) -> None:
    """Flood a tiny queue, SIGTERM mid-stream, assert a clean drain."""
    print("--- phase 2: backpressure + SIGTERM drain ---")
    socket_path = f"/tmp/bsm-{os.getpid()}-b.sock"
    process, log = _spawn_daemon(
        socket_path, artifacts, "drain",
        "--queue-depth", "2",
    )
    # About 0.45 s per job on a 2-CPU x86-64 host, so SIGTERM lands
    # while admitted jobs are still queued and running.
    slow = {"records": 60_000, "p": 4, "leaves": 8, "mode": "simulate"}
    try:
        _wait_listening(socket_path)
        with ServeClient(socket_path, timeout=120.0) as client:
            ids = [
                client.send("sort", {**slow, "seed": 50 + index})
                for index in range(8)
            ]
            # Give the dispatcher a beat to start the first job, then
            # SIGTERM lands while admitted jobs are queued and running.
            time.sleep(0.5)
            process.send_signal(signal.SIGTERM)
            responses = [client.collect(request_id) for request_id in ids]
        ok = [r for r in responses if r["status"] == "ok"]
        rejected = [r for r in responses if r["status"] == "rejected"]
        _check(ok and all("digest" in r["result"] for r in ok),
               f"{len(ok)} admitted job(s) completed across SIGTERM")
        _check(any(r["reason"] == "overloaded" for r in rejected),
               f"flood past depth 2 drew 'overloaded' rejections "
               f"({len(rejected)} rejected)")
        _check(len(ok) + len(rejected) == len(ids),
               "every request was answered (no drops, no hangs)")
        try:
            with ServeClient(socket_path, timeout=10.0) as late:
                verdict = late.sort(records=1000, seed=99)
                refused = (
                    verdict["status"] == "rejected"
                    and verdict["reason"] == "draining"
                )
        except ServeError:
            refused = True  # daemon already gone: equally refused
        _check(refused, "post-SIGTERM submission was refused")
        process.wait(timeout=60)
        _check(process.returncode == 0, "daemon exited 0 after SIGTERM drain")
    finally:
        if process.poll() is None:
            process.kill()
        log.close()
    _check(
        (artifacts / "serve-drain-trace.jsonl").exists()
        and (artifacts / "serve-drain-metrics.json").exists()
        and (artifacts / "serve-drain-manifest.json").exists(),
        "drained daemon flushed trace/metrics/manifest",
    )
    metrics = json.loads((artifacts / "serve-drain-metrics.json").read_text())
    counter_names = {entry["name"] for entry in metrics.get("counters", [])}
    _check(
        any(name.startswith("serve.rejected") for name in counter_names),
        "rejections were counted in the flushed metrics snapshot",
    )
    leftovers = _orphans(socket_path)
    for line in leftovers:
        print(f"  orphan: {line}")
    _check(not leftovers, "no orphaned daemon process remains")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.smoke",
        description="end-to-end smoke of the bonsai serve daemon (CI gate)",
    )
    parser.add_argument("--artifacts", required=True, metavar="DIR",
                        help="directory for daemon logs, traces, metrics, "
                             "manifests (uploaded by the CI job)")
    args = parser.parse_args(argv)
    artifacts = pathlib.Path(args.artifacts)
    artifacts.mkdir(parents=True, exist_ok=True)

    _phase_identity(artifacts)
    _phase_backpressure_and_drain(artifacts)

    if _FAILURES:
        print(f"serve-smoke: {len(_FAILURES)} failure(s)")
        return 1
    print("serve-smoke: all checks passed")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
