"""SortSession: the one execution core behind sort, optimize and serve.

Every surface that runs a workload — the ``bonsai sort`` / ``optimize``
one-shot commands and the long-lived ``bonsai serve`` daemon —
resolves its configuration into a frozen *job* description and hands it
to a :class:`SortSession`.  The session owns everything those surfaces
used to build ad hoc:

* platform preset resolution (cached per name);
* one memoized :class:`~repro.core.optimizer.Bonsai` per optimizer key,
  so a long-lived daemon amortizes sweep evaluation across requests;
* job execution returning plain JSON-shaped payloads.

Because the serve daemon and the CLI both call :meth:`SortSession.run`,
served results are bit-identical to direct CLI runs *by construction* —
there is no second code path to diverge.  Jobs digest to a stable
sha256 (:func:`job_digest`, via the run manifest's
:func:`~repro.obs.manifest.config_digest`), which is both the serve
result-cache key and the cross-surface identity check used in tests.

This module stays wall-clock free: every timing figure in a payload is
*modeled* (simulated) time, so payloads are deterministic functions of
the job.  Host-side timing belongs to the observability spans wrapped
around the session by its callers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Mapping

from repro.errors import BonsaiError, ProtocolError
from repro.obs.manifest import config_digest
from repro.obs.runtime import observation
from repro.units import GB

#: Job kinds a session can execute (the serve protocol's work kinds).
JOB_KINDS = ("sort", "optimize")


@dataclass(frozen=True)
class SortJob:
    """One sort request: workload (or input file), shape, and outputs."""

    records: int = 100_000
    workload: str = "uniform"
    seed: int = 0
    p: int = 8
    leaves: int = 16
    mode: str = "model"
    platform: str = "aws-f1-measured"
    input: str | None = None
    output: str | None = None
    return_records: bool = False

    kind = "sort"

    def params(self) -> dict:
        """JSON-shaped job parameters (``kind`` travels in the envelope)."""
        return asdict(self)

    @property
    def cacheable(self) -> bool:
        """File-free jobs are safe to serve from the result cache.

        A job reading ``input`` depends on bytes the digest cannot see,
        and a job writing ``output`` has a side effect a cache hit would
        silently skip — both must re-execute every time.
        """
        return self.input is None and self.output is None


@dataclass(frozen=True)
class OptimizeJob:
    """One optimizer request: platform, array size, objective."""

    platform: str = "aws-f1"
    size_bytes: int = 16 * GB
    record_bytes: int = 4
    objective: str = "latency"
    presort: int = 16
    leaves_cap: int | None = None
    top: int = 5

    kind = "optimize"

    def params(self) -> dict:
        return asdict(self)

    cacheable = True


_JOB_TYPES = {SortJob.kind: SortJob, OptimizeJob.kind: OptimizeJob}

#: Accepted runtime types per field annotation.  Dataclasses never check
#: values against annotations, and the sort/optimize code paths blow up
#: deep inside execution when handed e.g. ``records="100"`` — so the
#: admission path checks here, where the fault is still the client's.
#: ``test_field_types_cover_every_job_field`` pins this table complete.
_FIELD_TYPES = {
    "int": (int,),
    "str": (str,),
    "bool": (bool,),
    "int | None": (int, type(None)),
    "str | None": (str, type(None)),
}


def job_from_params(kind: str, params: Mapping) -> SortJob | OptimizeJob:
    """Build and validate a job from protocol parameters.

    Unknown kinds, unknown parameter names, and mistyped parameter
    values raise :class:`~repro.errors.ProtocolError` — the serve
    admission path turns that into an ``status: "error"`` response
    before the job ever reaches the queue, and the CLI never produces
    them.
    """
    job_type = _JOB_TYPES.get(kind)
    if job_type is None:
        raise ProtocolError(
            f"unknown job kind {kind!r}; expected one of {', '.join(JOB_KINDS)}"
        )
    if not isinstance(params, Mapping):
        raise ProtocolError(f"job params must be an object, got {type(params).__name__}")
    allowed = {field.name for field in fields(job_type)}
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise ProtocolError(
            f"unknown {kind} parameter(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )
    for field in fields(job_type):
        if field.name not in params:
            continue
        value = params[field.name]
        accepted = _FIELD_TYPES[field.type]
        # bool subclasses int, so "records": true passes isinstance —
        # reject it explicitly wherever bool is not the annotated type.
        if not isinstance(value, accepted) or (
            isinstance(value, bool) and bool not in accepted
        ):
            raise ProtocolError(
                f"{kind} parameter {field.name!r} must be {field.type}, "
                f"got {type(value).__name__}"
            )
    try:
        return job_type(**params)
    except TypeError as error:
        raise ProtocolError(f"malformed {kind} job: {error}") from None


def job_digest(job: SortJob | OptimizeJob) -> str:
    """Stable sha256 identity of a job (the serve result-cache key)."""
    return config_digest({"kind": job.kind, **job.params()})


class SortSession:
    """Shared execution state for a sequence of jobs.

    Every job runs in this process: a single-tree sort and an optimizer
    ranking are each cheaper than a pool round trip, and the serve
    daemon runs its jobs one at a time on one session.
    """

    def __init__(self) -> None:
        self._platforms: dict[str, object] = {}
        self._optimizers: dict[tuple, object] = {}

    # ------------------------------------------------------------------
    def platform(self, name: str):
        """The named platform preset (cached per session)."""
        cached = self._platforms.get(name)
        if cached is None:
            from repro.core.presets import PLATFORMS

            factory = PLATFORMS.get(name)
            if factory is None:
                raise ProtocolError(
                    f"unknown platform {name!r}; "
                    f"expected one of {', '.join(sorted(PLATFORMS))}"
                )
            cached = self._platforms[name] = factory()
        return cached

    def optimizer(
        self,
        platform: str,
        record_bytes: int = 4,
        presort: int = 16,
        leaves_cap: int | None = None,
    ):
        """A memoized :class:`Bonsai` instance for one optimizer key.

        The instance's frozen-key evaluation caches survive across jobs,
        which is the daemon's amortization story: the second optimize
        request for a platform pays only the ranking, not Eq. 1-10.
        """
        key = (platform, record_bytes, presort, leaves_cap)
        bonsai = self._optimizers.get(key)
        if bonsai is None:
            bonsai = self.platform(platform).bonsai(
                record_bytes=record_bytes,
                presort_run=presort,
                leaves_cap=leaves_cap,
            )
            self._optimizers[key] = bonsai
        return bonsai

    # ------------------------------------------------------------------
    def run(self, job: SortJob | OptimizeJob) -> dict:
        """Execute one job and return its JSON-shaped result payload."""
        obs = observation()
        with obs.span("session.job", kind=job.kind):
            if job.kind == "sort":
                payload = self.run_sort(job)
            else:
                payload = self.run_optimize(job)
        obs.count("session.jobs", kind=job.kind)
        return payload

    def run_sort(self, job: SortJob) -> dict:
        """Generate (or read) the workload, sort, validate, digest."""
        from repro.core.configuration import AmtConfig
        from repro.core.parameters import MergerArchParams
        from repro.engine.sorter import AmtSorter
        from repro.records.files import read_records, write_records
        from repro.records.valsort import content_digest, validate_sort
        from repro.records.workloads import WorkloadSpec, generate

        obs = observation()
        platform = self.platform(job.platform)
        with obs.span("sort.load", source=job.input or job.workload):
            if job.input:
                data = read_records(job.input)
                source = job.input
            else:
                data = generate(WorkloadSpec(
                    kind=job.workload, n_records=job.records, seed=job.seed,
                ))
                source = job.workload
        sorter = AmtSorter(
            config=AmtConfig(p=job.p, leaves=job.leaves),
            hardware=platform.hardware,
            arch=MergerArchParams(),
            mode=job.mode,
        )
        outcome = sorter.sort(data)
        with obs.span("sort.validate", records=len(data)):
            summary = validate_sort(data, outcome.data)
        with obs.span("sort.digest", records=len(data)):
            digest = content_digest(outcome.data)
        if job.output:
            with obs.span("sort.write", path=job.output):
                write_records(job.output, outcome.data)
        payload = {
            "kind": job.kind,
            "records": int(len(data)),
            "source": source,
            "p": job.p,
            "leaves": job.leaves,
            "stages": outcome.stages,
            "mode": outcome.mode,
            "seconds": outcome.seconds,
            "ms_per_gb": outcome.latency_ms_per_gb,
            "duplicates": summary.duplicates,
            "checksum": summary.checksum,
            "digest": digest,
        }
        if job.output:
            payload["output"] = job.output
        if job.return_records:
            payload["keys"] = [int(key) for key in outcome.data]
        return payload

    def run_optimize(self, job: OptimizeJob) -> dict:
        """Rank the design space; returns the rows plus their digest."""
        from repro.core.parameters import ArrayParams

        if job.objective not in ("latency", "throughput"):
            raise ProtocolError(
                f"unknown objective {job.objective!r}; "
                "expected 'latency' or 'throughput'"
            )
        bonsai = self.optimizer(
            job.platform,
            record_bytes=job.record_bytes,
            presort=job.presort,
            leaves_cap=job.leaves_cap,
        )
        array = ArrayParams.from_bytes(job.size_bytes)
        if job.objective == "latency":
            ranked = bonsai.rank_by_latency(array, top=job.top)
        else:
            ranked = bonsai.rank_by_throughput(array, top=job.top)
        rows = [
            {
                "config": entry.config.describe(),
                "latency_seconds": entry.latency_seconds,
                "throughput_bytes": entry.throughput_bytes,
                "lut_usage": entry.lut_usage,
                "bram_bytes": entry.bram_bytes,
            }
            for entry in ranked
        ]
        return {
            "kind": job.kind,
            "platform": self.platform(job.platform).name,
            "size_bytes": job.size_bytes,
            "objective": job.objective,
            "rows": rows,
            "digest": config_digest(rows)[:16],
        }


def execute_payload(session: SortSession, kind: str, params: Mapping) -> tuple:
    """Run one protocol-shaped job, never raising.

    Returns ``("ok", payload)`` or ``("error", message)``, the shape the
    serve dispatcher answers with.  Taxonomy faults
    (:class:`BonsaiError`) keep their type name; anything else is a
    genuine bug, reported as an ``internal error`` message.  It is
    converted all the same, so a bad job is answered as that job's own
    error and the dispatcher's guard is left for faults of the executor
    itself — one bad job must never crash the server.
    """
    try:
        result = session.run(job_from_params(kind, params))
    except BonsaiError as error:
        return ("error", f"{type(error).__name__}: {error}")
    except Exception as error:
        return ("error", f"internal error: {type(error).__name__}: {error}")
    return ("ok", result)
