# bonsai-lint: disable-file=determinism -- spans time host wall-clock by
# design; they are telemetry about a run, never inputs to the simulation, and
# the whole subsystem is off by default.
"""Span-based tracing: nested wall-clock (+ cycle-count) intervals.

A span is one timed phase of a run — a CLI command, a merge stage, an
optimizer sweep, a worker task.  Spans nest: the tracer keeps the
current span per thread, each new span records its parent, and
``bonsai report`` later folds the tree into a per-phase attribution
table.  Cycle counts (simulated time) attach to spans via
:meth:`Span.set`, landing hardware telemetry and wall-clock telemetry in
one place.

Span identifiers are deterministic sequence numbers prefixed with the
tracer's process label (``main``, ``w3``…), so traces merged from
worker processes never collide and replays of the same run produce the
same identifier sequence.

:class:`NullTracer` is the disabled path: ``span()`` hands back one
shared no-op context manager and never reads a clock.
"""

from __future__ import annotations

import threading
import time

from repro.errors import ObservabilityError


class Span:
    """One open interval; a context manager that emits on exit."""

    __slots__ = (
        "tracer", "name", "attrs", "span_id", "parent_id",
        "start_unix", "_start_perf", "cycles",
    )

    def __init__(
        self, tracer: "Tracer", name: str, span_id: str,
        parent_id: str | None, attrs: dict,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.cycles: int | None = None
        self.start_unix = time.time()
        self._start_perf = time.perf_counter()

    # ------------------------------------------------------------------
    def set(self, cycles: int | None = None, **attrs: object) -> None:
        """Attach simulated-cycle counts and extra attributes mid-span."""
        if cycles is not None:
            self.cycles = int(cycles)
        if attrs:
            self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._start_perf
        self.tracer._pop(self)
        record = {
            "kind": "span",
            "trace": self.tracer.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "proc": self.tracer.process,
            "start_unix": round(self.start_unix, 6),
            "dur_s": duration,
        }
        if self.cycles is not None:
            record["cycles"] = self.cycles
        if self.attrs:
            record["attrs"] = self.attrs
        if exc_type is not None:
            record["error"] = exc_type.__name__
        self.tracer._emit(record)
        return False


class _NullSpan:
    """The shared no-op span: enter/exit/set all do nothing."""

    __slots__ = ()

    def set(self, cycles: int | None = None, **attrs: object) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Creates spans and tracks the current one per thread.

    Parameters
    ----------
    sink:
        Where span records go (a :class:`~repro.obs.sink.JsonlSink` or
        :class:`~repro.obs.sink.MemorySink`).
    trace_id:
        Shared identifier stamped on every record; one per run.
    process:
        Label prefixing span ids (``main`` in the CLI process, a worker
        label inside pool processes) so merged traces stay collision
        free.
    root_parent:
        Parent span id inherited from another process — how a worker's
        spans attach under the parent-side span that dispatched the
        task.
    """

    enabled = True

    def __init__(
        self, sink, trace_id: str = "run", process: str = "main",
        root_parent: str | None = None,
    ) -> None:
        if sink is None:
            raise ObservabilityError("Tracer needs a sink; use NullTracer")
        self.sink = sink
        self.trace_id = trace_id
        self.process = process
        self.root_parent = root_parent
        self.spans_closed = 0
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: object) -> Span:
        """Open a nested span; use as ``with tracer.span("phase"):``."""
        with self._seq_lock:
            self._seq += 1
            span_id = f"{self.process}:{self._seq}"
        return Span(
            tracer=self,
            name=name,
            span_id=span_id,
            parent_id=self.current_span_id(),
            attrs=dict(attrs),
        )

    def event(self, name: str, **attrs: object) -> None:
        """Emit a point-in-time event under the current span."""
        record = {
            "kind": "event",
            "trace": self.trace_id,
            "name": name,
            "proc": self.process,
            "parent": self.current_span_id(),
            "start_unix": round(time.time(), 6),
        }
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    def current_span_id(self) -> str | None:
        """The innermost open span id on this thread (or the inherited
        cross-process parent when no span is open)."""
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1].span_id
        return self.root_parent

    # ------------------------------------------------------------------
    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if not stack or stack[-1] is not span:
            raise ObservabilityError(
                f"span {span.span_id} ({span.name}) closed out of order"
            )
        stack.pop()
        self.spans_closed += 1

    def _emit(self, record: dict) -> None:
        self.sink.emit(record)


class NullTracer:
    """The disabled tracer: no clocks, no allocation, no records."""

    __slots__ = ()
    enabled = False
    trace_id = "disabled"
    process = "main"
    spans_closed = 0

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return NULL_SPAN

    def event(self, name: str, **attrs: object) -> None:
        return None

    def current_span_id(self) -> None:
        return None
