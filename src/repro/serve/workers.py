"""Process-pool worker entry for the serve daemon.

Mirrors :mod:`repro.parallel.workers`: module-level single-tuple-param
entries, import-pure module, lazy heavy imports — the ``worker-entry``
and proc-safety rules of ``bonsai check`` enforce the same invariants
here as for the engine's workers.

The daemon dispatches a *batch* of queued jobs through
:meth:`ParallelPlan.map` with one :func:`worker_serve_job` call per job.
Each worker builds a fresh :class:`~repro.serve.session.SortSession`
(session memoization lives in the parent daemon; worker processes are
deliberately stateless so a crashed worker loses nothing) and ships a
plain ``("ok", payload)`` / ``("error", message)`` tuple back, so job
failures never poison the pool.
"""

from __future__ import annotations


def worker_serve_job(task: tuple) -> tuple:
    """Execute one served job in a pool process.

    ``task = (kind, params)``, the protocol-level job description.  The
    job runs on a serial session: a pool child never forks grandchildren.
    Returns ``("ok", payload)`` or ``("error", message)``.
    """
    from repro.serve.session import SortSession, execute_payload

    kind, params = task
    return execute_payload(SortSession(), kind, params)


#: Names re-exported for the ``worker-entry`` check's allow-list tests.
WORKER_ENTRIES = (worker_serve_job,)

__all__ = ["WORKER_ENTRIES", "worker_serve_job"]
