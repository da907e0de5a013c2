"""The ledger's five workloads and the layer calls a traced run times.

Each workload turns the ledger seed into inputs, builds the surface it
drives (a :class:`SortSession`, a :class:`ClusterExecutor`, a serve
daemon) and exposes one *operation*: the call a user of that surface
waits for.  Correctness is judged only by :func:`key_digest` of an
output against :func:`oracle_digest` of its input, both computed here
with ``np.sort`` and never with ``valsort.summarize``, which misjudges
the order of uint64 neighbours 2**63 or more apart.

:func:`trace_layers` is the traced run's decomposition: it calls each
layer's public function on the workload's representative input (the
keys one operation sorts) and on a few fixed probes, each call inside a
``ledger.<layer>.<call>`` span opened by the caller's ``step``.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.parameters import MergerArchParams
from repro.distributed.executor import ClusterExecutor
from repro.engine.stage import merge_stage, split_into_runs
from repro.hw.tree import simulate_merge
from repro.parallel import ParallelPlan
from repro.parallel.plan import available_cpus
from repro.parallel.shm import pack_arrays, release
from repro.records.record import U64
from repro.records.valsort import content_digest, validate_sort
from repro.records.workloads import WorkloadSpec, generate, skewed_nearly_sorted
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, ServerThread
from repro.serve.session import OptimizeJob, SortJob, SortSession
from repro.units import GB

ROOT = Path(__file__).resolve().parents[2]

#: Records per presorted run entering the first merge stage (§VI-C); the
#: sorter's default, so the decomposition forms the same runs it does.
PRESORT_RUN = 16
RECORD_BYTES = 4

#: A step runs ``fn`` inside a named ledger span and returns its result.
Step = Callable[[str, Callable], object]


def key_digest(keys) -> str:
    """sha256 of the keys widened to uint64, first 16 hex characters.

    The same fingerprint ``content_digest`` and the cluster report
    produce, so a surface's own digest compares to the oracle's by
    string equality.
    """
    return hashlib.sha256(
        np.ascontiguousarray(keys, dtype=np.uint64).tobytes()
    ).hexdigest()[:16]


def oracle_digest(keys) -> str:
    """Digest of the stable ``np.sort`` of ``keys``: the expected output."""
    return key_digest(np.sort(np.asarray(keys), kind="stable"))


def uniform_keys(records: int, seed: int) -> np.ndarray:
    """The input a ``SortJob(records, workload="uniform", seed)`` sorts."""
    return generate(WorkloadSpec(kind="uniform", n_records=records, seed=seed))


@dataclass(frozen=True)
class Sizes:
    """Records per operation of each workload."""

    oneshot: int = 1_000_000
    simulate_compute: int = 30_000
    simulate_storage: int = 48_000
    cluster: int = 1_000_000
    serve_big: int = 50_000
    serve_small: int = 5_000


FULL = Sizes()
#: Sizes for the test suite: every code path, a fraction of the time.
SMOKE = Sizes(
    oneshot=20_000, simulate_compute=1_500, simulate_storage=3_000,
    cluster=20_000, serve_big=5_000, serve_small=500,
)


#: Fewest operations one measured window holds, however long each takes.
MIN_OPS = 3


@dataclass
class Measurement:
    """One measured window: every verified operation and request."""

    #: Seconds of each verified operation.
    ops: list[float]
    #: Seconds of each request inside them (one per operation, except for
    #: the closed loop, whose operation is a burst of requests).
    requests: list[float]
    #: Records and requests one operation delivers.
    records_per_op: int
    requests_per_op: int
    attempted: int
    failed: int


_sockets = itertools.count()


def socket_path() -> str:
    """A fresh daemon socket under ``.ledger/`` in the checkout.

    Relative to the working directory, because a unix socket path must
    stay under about 100 characters and the checkout's own path may not.
    """
    directory = ROOT / ".ledger"
    directory.mkdir(exist_ok=True)
    return os.path.relpath(directory / f"s{os.getpid()}-{next(_sockets)}.sock")


class Workload:
    """One workload: inputs from a seed, one operation, its oracle."""

    name = ""
    #: Span name of one operation in the traced run.
    op_span = ""
    #: Merge width of the model-mode merge chain in the decomposition.
    leaves = 16
    #: Usable CPUs the operation needs to mean what it claims.
    min_cpus = 1
    #: Layer times (ms) whose sum should explain one operation.
    composition = (
        "records.generate_ms", "engine.split_ms", "engine.merge_stage_ms",
        "records.validate_ms", "records.digest_ms",
    )
    #: The time that ``composition`` explains.
    explained = "op_ms"

    def __init__(self, seed: int, sizes: Sizes = FULL) -> None:
        self.seed = seed
        self.sizes = sizes
        self.keys: np.ndarray = np.empty(0, dtype=np.uint64)
        self.oracle = ""

    def setup(self) -> bool:
        """Build inputs, oracle and surface, then run one warm-up operation.

        Returns whether the warm-up output was correct.
        """
        self.build()
        return self.check(self.op())

    def measure(self, seconds: float) -> Measurement:
        """Run operations until their own time adds up to ``seconds`` (and
        at least :data:`MIN_OPS` ran); each output is checked between
        operations, outside the timed calls.  A wrong output ends the
        window."""
        ops: list[float] = []
        requests: list[float] = []
        records = failed = 0
        while len(ops) < MIN_OPS or sum(ops) < seconds:
            started = time.perf_counter()
            output = self.op()
            elapsed = time.perf_counter() - started
            if not self.check(output):
                failed += 1
                break
            ops.append(elapsed)
            requests.extend(self.request_times(output, elapsed))
            records = self.records(output)
        return Measurement(
            ops, requests, records, len(requests) // max(1, len(ops)),
            len(ops) + failed, failed,
        )

    def request_times(self, output, elapsed: float) -> list[float]:
        """Seconds of each request one operation made."""
        return [elapsed]

    def build(self) -> None:
        raise NotImplementedError

    def generate_input(self) -> np.ndarray:
        """The generator call that produces ``self.keys``."""
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def check(self, output) -> bool:
        raise NotImplementedError

    def records(self, output) -> int:
        """Verified records one operation delivered."""
        return int(self.keys.size)

    def facts(self, output) -> dict:
        """Per-operation numbers the per-layer metrics take from an output."""
        return {}

    def model_cycles(self, stages: int) -> float:
        """Eq. 1 in cycles: ``N * stages / min(p, read, write records/cycle)``."""
        return 0.0

    def close(self) -> None:
        return None


class OneshotSort(Workload):
    """``SortSession.run_sort`` in model mode: the default ``bonsai sort``."""

    name = "oneshot_sort"
    op_span = "ledger.session.run_sort"
    mode = "model"

    def count(self) -> int:
        return self.sizes.oneshot

    def build(self) -> None:
        self.job = SortJob(
            records=self.count(), workload="uniform", seed=self.seed,
            p=8, leaves=16, mode=self.mode,
        )
        self.keys = self.generate_input()
        self.oracle = oracle_digest(self.keys)
        self.session = SortSession()

    def generate_input(self) -> np.ndarray:
        return uniform_keys(self.count(), self.seed)

    def op(self) -> dict:
        return self.session.run_sort(self.job)

    def check(self, payload: dict) -> bool:
        return payload["records"] == self.keys.size and payload["digest"] == self.oracle


class SimulateCompute(OneshotSort):
    """The same session call in cycle-simulation mode, at the DRAM budget."""

    name = "simulate_compute"
    mode = "simulate"
    composition = (
        "records.generate_ms", "engine.split_ms", "hw.run_ms",
        "records.validate_ms", "records.digest_ms",
    )

    def count(self) -> int:
        return self.sizes.simulate_compute

    def model_cycles(self, stages: int) -> float:
        arch = MergerArchParams()
        budget = self.session.platform(self.job.platform).hardware.beta_dram / arch.frequency_hz
        rate = min(self.job.p, budget / arch.record_bytes)
        return self.keys.size * stages / rate


class SimulateStorage(Workload):
    """A full sort through repeated ``simulate_merge`` calls, HDD-class reads.

    AMT(16, 4) with a read budget of 2% of the tree's demand, unthrottled
    DRAM writes and 4 KiB batches: the ``e2e_hdd_sort`` regime, where the
    fast path's sleep/wake skips most cycles.
    """

    name = "simulate_storage"
    op_span = "ledger.hw.simulate_sort"
    p = 16
    leaves = 4
    read_factor = 0.02
    batch_bytes = 4096
    composition = ("engine.split_ms", "hw.run_ms")

    def build(self) -> None:
        self.keys = self.generate_input()
        self.oracle = oracle_digest(self.keys)

    def generate_input(self) -> np.ndarray:
        return uniform_keys(self.sizes.simulate_storage, self.seed)

    def op(self) -> list:
        runs = [run.tolist() for run in split_into_runs(self.keys, PRESORT_RUN)]
        while len(runs) > 1:
            runs, _stats = simulate_merge(
                self.p, self.leaves, runs,
                record_bytes=RECORD_BYTES,
                read_bytes_per_cycle=self.read_factor * self.p * RECORD_BYTES,
                batch_bytes=self.batch_bytes,
                check_sorted_inputs=False,
            )
        return runs[0]

    def check(self, output: list) -> bool:
        return len(output) == self.keys.size and key_digest(output) == self.oracle

    def model_cycles(self, stages: int) -> float:
        # Writes default to twice the demand, so reads alone bound the rate.
        return self.keys.size * stages / (self.read_factor * self.p)


class ClusterSkewed(Workload):
    """A 4-node cluster sort of zipf-skewed, nearly sorted uint64 keys."""

    name = "cluster_skewed"
    op_span = "ledger.distributed.execute"
    min_cpus = 2
    composition = (
        "distributed.splitters_ms", "distributed.exchange_ms",
        "distributed.local_sort_ms", "distributed.merge_ms",
    )

    def build(self) -> None:
        self.keys = self.generate_input()
        self.oracle = oracle_digest(self.keys)
        self.executor = ClusterExecutor(
            nodes=4, plan=ParallelPlan.from_jobs(2), seed=self.seed,
        )

    def generate_input(self) -> np.ndarray:
        return skewed_nearly_sorted(self.sizes.cluster, fmt=U64, seed=self.seed)

    def op(self):
        return self.executor.execute(self.keys)

    def check(self, report) -> bool:
        return (
            report.records == self.keys.size
            and report.digest == self.oracle
            and key_digest(report.data) == self.oracle
        )

    def facts(self, report) -> dict:
        return {
            "distributed.splitters_s": report.splitter_seconds,
            "distributed.exchange_s": report.exchange_seconds,
            "distributed.local_sort_s": report.sort_seconds,
            "distributed.merge_s": report.merge_seconds,
            "distributed.skew": report.measured_skew,
            "distributed.measured_vs_modeled_x": report.measured_vs_modeled,
        }


#: One block of requests per client: 20% distinct 50k sorts (cache
#: misses), 20% repeats of one 50k job (hits), 20% distinct optimize jobs,
#: 40% distinct 5k sorts.  The order is fixed and the second client starts
#: half a block later, so each burst does the same work in the same
#: interleaving (a random order would make burst times vary with the order
#: drawn), a big request mostly meets a small one from the other client,
#: p50 sits inside the 5k class and p95 inside the 50k class.
BLOCK = ("big", "small", "big", "small", "hit",
         "optimize", "small", "optimize", "small", "hit")
CLIENTS = 2


@dataclass
class Exchange:
    """One request and its reply, as a client saw it."""

    job: SortJob | OptimizeJob
    reply: dict
    seconds: float


class ServeMixed(Workload):
    """Two closed-loop clients against an in-process serve daemon.

    One operation is a burst: each client sends one :data:`BLOCK`, each
    request only after the reply to the one before.
    """

    name = "serve_mixed"
    op_span = "ledger.serve.burst"
    explained = "serve.big_ms_p50"

    def build(self) -> None:
        big = self.sizes.serve_big
        self.hit_job = SortJob(records=big, seed=self.seed)
        self.keys = self.generate_input()
        self.oracle = oracle_digest(self.keys)
        self._sort_oracles: dict[tuple[int, int], str] = {}
        self._optimize_oracles: dict[int, str] = {}
        self._reference = SortSession()
        self._stack = contextlib.ExitStack()
        path = socket_path()
        self._stack.enter_context(ServerThread(ServeConfig(socket=path)))
        self.clients = [
            self._stack.enter_context(ServeClient(path, client_id=f"c{index}"))
            for index in range(CLIENTS)
        ]
        self.schedules = [self._schedule(index) for index in range(CLIENTS)]

    def generate_input(self) -> np.ndarray:
        return uniform_keys(self.sizes.serve_big, self.seed)

    def _schedule(self, client: int):
        """This client's endless request sequence; the seed picks the inputs."""
        fresh = itertools.count(self.seed * 100_000_000 + client * 10_000_000 + 1)
        sizes = itertools.count(1 + client, CLIENTS)
        shift = client * len(BLOCK) // CLIENTS
        block = BLOCK[shift:] + BLOCK[:shift]
        while True:
            for kind in block:
                if kind == "hit":
                    yield self.hit_job
                elif kind == "optimize":
                    yield OptimizeJob(size_bytes=GB * next(sizes))
                else:
                    records = self.sizes.serve_big if kind == "big" else self.sizes.serve_small
                    yield SortJob(records=records, seed=next(fresh))

    def op(self) -> list[Exchange]:
        """One burst; returns the exchanges in client order."""
        results: list[list[Exchange]] = [[] for _ in self.clients]
        errors: list[BaseException] = []

        def loop(index: int) -> None:
            client, schedule = self.clients[index], self.schedules[index]
            try:
                for job in itertools.islice(schedule, len(BLOCK)):
                    started = time.perf_counter()
                    reply = client.request(job.kind, job.params())
                    results[index].append(
                        Exchange(job, reply, time.perf_counter() - started)
                    )
            except Exception as error:  # surfaced to the caller below
                errors.append(error)

        threads = [
            threading.Thread(target=loop, args=(index,), name=f"ledger-client-{index}")
            for index in range(len(self.clients))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170.0)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a serve client did not finish within 170 s")
        if errors:
            raise errors[0]
        return [exchange for per_client in results for exchange in per_client]

    def request_times(self, exchanges: list[Exchange], elapsed: float) -> list[float]:
        return [exchange.seconds for exchange in exchanges]

    def reply_ok(self, exchange: Exchange) -> bool:
        """The reply is ``ok`` and matches the ledger's own oracle."""
        reply, job = exchange.reply, exchange.job
        if reply.get("status") != "ok":
            return False
        result = reply["result"]
        if job.kind == "optimize":
            key = job.size_bytes
            if key not in self._optimize_oracles:
                self._optimize_oracles[key] = self._reference.run_optimize(job)["digest"]
            return result["digest"] == self._optimize_oracles[key]
        key = (job.records, job.seed)
        if key not in self._sort_oracles:
            self._sort_oracles[key] = oracle_digest(uniform_keys(*key))
        return result["records"] == job.records and result["digest"] == self._sort_oracles[key]

    def check(self, exchanges: list[Exchange]) -> bool:
        return all(self.reply_ok(exchange) for exchange in exchanges)

    def records(self, exchanges: list[Exchange]) -> int:
        return sum(e.job.records for e in exchanges if e.job.kind == "sort")

    def close(self) -> None:
        stack = getattr(self, "_stack", None)
        if stack is not None:
            stack.close()
            self._stack = None


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (OneshotSort, SimulateCompute, SimulateStorage, ClusterSkewed, ServeMixed)
}


# ----------------------------------------------------------------------
# the traced run's layer calls
# ----------------------------------------------------------------------
def noop(task):
    """The parallel-overhead probe's task: returns its argument."""
    return task


def shm_round_trip(keys: np.ndarray) -> int:
    """Pack ``keys`` into a shared block and release it; returns the count."""
    block, descriptor = pack_arrays([keys])
    try:
        return descriptor.total
    finally:
        release(block)


def serve_probe(step: Step, seed: int, sizes: Sizes, rep: int) -> tuple[list[bool], dict]:
    """One idle daemon, one client: two cold 50k sorts, two repeats of the
    first (cache hits), two cold 5k sorts, then the same two cold 50k jobs
    run directly on a session.  Returns per-request verdicts and the
    daemon's cache-hit ratio and rejection count."""
    fresh = itertools.count(seed * 100_000_000 + 90_000_000 + rep * 10 + 1)
    big = [SortJob(records=sizes.serve_big, seed=next(fresh)) for _ in range(2)]
    small = [SortJob(records=sizes.serve_small, seed=next(fresh)) for _ in range(2)]
    verdicts = []

    def expect(job: SortJob, result: dict) -> bool:
        return result["digest"] == oracle_digest(uniform_keys(job.records, job.seed))

    path = socket_path()
    with ServerThread(ServeConfig(socket=path)), ServeClient(path) as client:
        for name, jobs in (("big", big), ("hit", [big[0], big[0]]), ("small", small)):
            for job in jobs:
                reply = step(f"ledger.serve.{name}", lambda: client.sort(**job.params()))
                verdicts.append(
                    reply["status"] == "ok" and expect(job, reply["result"])
                    and reply.get("cached", False) == (name == "hit")
                )
        stats = client.stats()["result"]
    work = len(big) + 2 + len(small)
    rejected = stats["rejected_overloaded"] + stats["rejected_quota"] + stats["rejected_draining"]
    session = SortSession()
    for job in big:
        payload = step("ledger.serve.session", lambda: session.run_sort(job))
        verdicts.append(expect(job, payload))
    facts = {
        "serve.cache_hit_ratio": (work - stats["admitted"] - rejected) / work,
        "serve.rejected": rejected,
    }
    return verdicts, facts


def trace_layers(workload: Workload, step: Step, rep: int) -> tuple[list[bool], dict]:
    """Every layer call of the traced decomposition, in one pass.

    Returns per-output verdicts and facts (exact counts, the probe
    daemon's stats) for the per-layer metrics.
    """
    keys = step("ledger.records.generate", workload.generate_input)
    runs = step("ledger.engine.split", lambda: split_into_runs(keys, PRESORT_RUN))
    stages = 0
    while len(runs) > 1 or stages == 0:
        runs = step("ledger.engine.merge_stage", lambda: merge_stage(runs, workload.leaves))
        stages += 1
    merged = runs[0]
    step("ledger.records.validate", lambda: validate_sort(keys, merged))
    digest = step("ledger.records.digest", lambda: content_digest(merged))
    verdicts = [step("ledger.check", lambda: digest == workload.oracle == key_digest(merged))]

    step("ledger.floor.np_sort", lambda: np.sort(keys, kind="stable"))
    target = np.empty_like(keys)
    step("ledger.floor.memcpy", lambda: np.copyto(target, keys))
    verdicts.append(step("ledger.parallel.shm_pack", lambda: shm_round_trip(keys)) == keys.size)
    if available_cpus() >= 2:
        mapped = step("ledger.parallel.map", lambda: ParallelPlan(jobs=2).map(noop, range(4)))
        verdicts.append(mapped == [0, 1, 2, 3])

    session = SortSession()
    cold = step("ledger.core.optimize_cold", lambda: session.run_optimize(OptimizeJob()))
    warm = step("ledger.core.optimize_warm", lambda: session.run_optimize(OptimizeJob()))
    verdicts.append(bool(cold["rows"]) and cold["digest"] == warm["digest"])

    probe_verdicts, facts = step(
        "ledger.serve.probe", lambda: serve_probe(step, workload.seed, workload.sizes, rep)
    )
    verdicts.extend(probe_verdicts)
    facts.update({"engine.stages": stages, "records": int(keys.size), "bytes": int(keys.nbytes)})
    return verdicts, facts
