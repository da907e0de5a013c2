"""The active observation: one handle bundling registry, tracer, sink.

Instrumented code across the stack asks for the process-wide active
:class:`Observation` (``observation()``) and calls ``span``/``count``/
``gauge``/``observe`` on it.  By default the active observation is
:data:`DISABLED` — a singleton whose registry and tracer are the no-op
implementations — so the cost of instrumentation when observability is
off is one module-global read plus empty method calls, gated by nothing
heavier than the dispatch itself.

Cross-process propagation: :func:`task_context` captures the enabled
state, trace id and current span id on the parent side;
:func:`worker_observation` rebuilds a buffering observation from it
inside a pool process; :func:`worker_payload` / :func:`absorb` move the
worker's metrics and span events back into the parent registry and
sink.  The parallel plan (:mod:`repro.parallel.plan`) is the only
caller of that trio, so every sharded loop inherits observability
without touching its worker entries.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator

from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.obs.sink import JsonlSink, MemorySink
from repro.obs.spans import NullTracer, Tracer


@dataclass
class Observation:
    """The bundle instrumented code talks to.

    ``span``/``event`` delegate to the tracer, ``count``/``gauge``/
    ``observe`` to the registry; either half can independently be the
    null implementation (``--metrics`` without ``--trace`` and vice
    versa).
    """

    registry: object = field(default_factory=NullRegistry)
    tracer: object = field(default_factory=NullTracer)
    sink: object = None
    enabled: bool = False

    # -- tracing -------------------------------------------------------
    def span(self, name: str, **attrs: object):
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs: object) -> None:
        self.tracer.event(name, **attrs)

    # -- metrics -------------------------------------------------------
    def count(self, name: str, value: float = 1, **labels: object) -> None:
        self.registry.count(name, value, **labels)

    def gauge(self, name: str, value: float, **labels: object) -> None:
        self.registry.gauge(name, value, **labels)

    def observe(self, name: str, value: float, **labels: object) -> None:
        self.registry.observe(name, value, **labels)

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()


#: The permanent no-op observation; never mutated, always installable.
DISABLED = Observation()

_active: Observation = DISABLED


def observation() -> Observation:
    """The process-wide active observation (the no-op one by default)."""
    return _active


def install(obs: Observation) -> Observation:
    """Swap the active observation; returns the previous one."""
    global _active
    previous = _active
    _active = obs
    return previous


@contextmanager
def activated(obs: Observation) -> Iterator[Observation]:
    """Scope ``obs`` as the active observation, restoring on exit."""
    previous = install(obs)
    try:
        yield obs
    finally:
        install(previous)


def live_observation(sink=None, trace_id: str = "run") -> Observation:
    """A fully-enabled observation writing spans to ``sink``.

    ``sink=None`` buffers in a :class:`~repro.obs.sink.MemorySink` —
    the in-process enablement used by tests and the overhead floor.
    """
    sink = sink if sink is not None else MemorySink()
    return Observation(
        registry=MetricsRegistry(),
        tracer=Tracer(sink=sink, trace_id=trace_id),
        sink=sink,
        enabled=True,
    )


# ----------------------------------------------------------------------
# CLI session
# ----------------------------------------------------------------------
@contextmanager
def session(
    command: str,
    trace: str | None = None,
    metrics: str | None = None,
    **root_attrs: object,
) -> Iterator[Observation]:
    """Observability for one CLI invocation.

    Builds the observation the flags ask for (a JSONL tracer for
    ``--trace``, a metrics registry for ``--metrics`` — and both when
    either needs the other's half for the final snapshot), installs it,
    runs the body under a root ``cli.<command>`` span, and on exit
    writes the metrics snapshot, appends it to the trace for
    self-containedness, and closes the sink.
    """
    sink = JsonlSink(trace) if trace else None
    tracer = (
        Tracer(sink=sink, trace_id=f"cli.{command}") if sink else NullTracer()
    )
    registry = MetricsRegistry()
    obs = Observation(registry=registry, tracer=tracer, sink=sink, enabled=True)
    with activated(obs):
        try:
            with obs.span(f"cli.{command}", **root_attrs):
                yield obs
        finally:
            snapshot = registry.snapshot()
            if sink is not None:
                sink.emit({"kind": "metrics", "snapshot": snapshot})
            if metrics:
                registry.write(metrics)
            obs.close()


# ----------------------------------------------------------------------
# cross-process propagation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ObsTaskContext:
    """Picklable capture of the parent's observation state for workers."""

    trace_id: str
    parent_span: str | None
    trace_spans: bool
    process: str = "worker"

    def for_chunk(self, index: int) -> "ObsTaskContext":
        """Label the context with task ``index``'s stable worker id."""
        return replace(self, process=f"w{index}")


def task_context() -> ObsTaskContext | None:
    """Parent-side capture, or ``None`` when observability is off."""
    obs = _active
    if not obs.enabled:
        return None
    return ObsTaskContext(
        trace_id=obs.tracer.trace_id,
        parent_span=obs.tracer.current_span_id(),
        trace_spans=obs.tracer.enabled,
    )


def worker_observation(ctx: ObsTaskContext) -> Observation:
    """Child-side observation buffering into memory for later absorption."""
    sink = MemorySink()
    tracer = (
        Tracer(
            sink=sink,
            trace_id=ctx.trace_id,
            process=ctx.process,
            root_parent=ctx.parent_span,
        )
        if ctx.trace_spans
        else NullTracer()
    )
    return Observation(
        registry=MetricsRegistry(), tracer=tracer, sink=sink, enabled=True
    )


def worker_payload(obs: Observation) -> dict:
    """What a worker ships back: its metrics snapshot plus span events."""
    events = obs.sink.events if isinstance(obs.sink, MemorySink) else []
    return {"metrics": obs.registry.snapshot(), "events": events}


def absorb(payload: dict) -> None:
    """Fold a worker payload into the active (parent) observation."""
    obs = _active
    if not obs.enabled or not payload:
        return
    metrics = payload.get("metrics")
    if metrics is not None:
        obs.registry.merge(metrics)
    if obs.sink is not None:
        for event in payload.get("events", ()):
            obs.sink.emit(event)
