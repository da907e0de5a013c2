"""Sorting-as-a-service: the ``bonsai serve`` daemon and its core.

The package splits along the determinism boundary:

* :mod:`repro.serve.session` — the deterministic execution core
  (:class:`SortSession`), shared by ``sort``/``optimize`` and the
  daemon, so every surface runs the same code path;
* :mod:`repro.serve.protocol` / :mod:`repro.serve.queue` — the pure
  wire format and the admission-controlled priority queue;
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — the asyncio
  daemon, which runs one job at a time on its own session, and the
  stdlib client (wall-clock territory).

See ``docs/serving.md`` for the protocol and operational tour.
"""

from repro.serve.queue import JobQueue, QueuedJob
from repro.serve.session import (
    JOB_KINDS,
    OptimizeJob,
    SortJob,
    SortSession,
    execute_payload,
    job_digest,
    job_from_params,
)

__all__ = [
    "JOB_KINDS",
    "JobQueue",
    "OptimizeJob",
    "QueuedJob",
    "SortJob",
    "SortSession",
    "execute_payload",
    "job_digest",
    "job_from_params",
]
