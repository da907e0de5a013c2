"""The metrics registry: counters, gauges and histograms with labels.

One registry holds every numeric observation of a run — engine record
and byte counters, optimizer memo hits, simulator cycle totals — as
labelled series.  The design contract, shared with the span tracer, is
that *deterministic* metrics (records, bytes, memo accounting) are equal
for equal computations regardless of how the work was executed: the
parallel layer merges worker snapshots back into the parent registry and
``tests/obs`` pins serial-vs-sharded equality.

Everything here is pure bookkeeping: no clocks, no randomness, no I/O
except the explicit :meth:`MetricsRegistry.write` helper.  The disabled
path is :class:`NullRegistry`, whose methods are empty — instrumented
code pays one attribute load and one no-op call per observation.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Iterable, Mapping

from repro.errors import ObservabilityError
from repro.units import GB, KB, MB

#: Histogram bucket upper bounds (decades; the last implicit bucket is
#: +inf).  Chosen wide so one scheme serves span durations, cycle
#: counts and byte sizes alike — the upper decades reuse the byte-unit
#: constants because byte-valued series are their main tenant.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0,
    float(KB), float(MB), float(GB),
)

#: Snapshot schema tag; bump when the JSON layout changes.
SNAPSHOT_SCHEMA = "bonsai-metrics/v1"


def _series_key(name: str, labels: Mapping[str, object]) -> tuple:
    """Canonical series key: name plus sorted ``(label, value)`` pairs."""
    if not labels:
        return (name,)
    return (name,) + tuple(sorted((k, str(v)) for k, v in labels.items()))


def _key_to_json(key: tuple) -> dict:
    return {"name": key[0], "labels": {k: v for k, v in key[1:]}}


class _Histogram:
    """Count/sum/min/max plus fixed-bound bucket counts."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.buckets = [0] * (len(DEFAULT_BUCKETS) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for index, bound in enumerate(DEFAULT_BUCKETS):
            if value <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": list(self.buckets),
        }

    def merge_json(self, payload: Mapping) -> None:
        self.count += int(payload["count"])
        self.total += float(payload["sum"])
        for bound in ("min", "max"):
            value = payload.get(bound)
            if value is None:
                continue
            current = getattr(self, bound)
            picked = value if current is None else (
                min(current, value) if bound == "min" else max(current, value)
            )
            setattr(self, bound, picked)
        incoming = list(payload.get("buckets", ()))
        if len(incoming) != len(self.buckets):
            raise ObservabilityError(
                f"histogram bucket count mismatch: {len(incoming)} vs "
                f"{len(self.buckets)} (snapshot from another schema?)"
            )
        self.buckets = [a + b for a, b in zip(self.buckets, incoming)]


class MetricsRegistry:
    """Thread-safe labelled metric store.

    ``count`` accumulates, ``gauge`` overwrites (last write wins, which
    merge preserves by applying snapshots in arrival order), ``observe``
    feeds a histogram.  ``total_updates`` counts every mutating call —
    the engine-floors suite multiplies it by the measured no-op call cost
    to bound what instrumentation *could* add to an uninstrumented run.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}
        self._histograms: dict[tuple, _Histogram] = {}
        self.total_updates = 0

    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1, **labels: object) -> None:
        """Add ``value`` to the counter series ``name`` + ``labels``."""
        key = _series_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value
            self.total_updates += 1

    def gauge(self, name: str, value: float, **labels: object) -> None:
        """Set the gauge series to ``value`` (last write wins)."""
        key = _series_key(name, labels)
        with self._lock:
            self._gauges[key] = value
            self.total_updates += 1

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record one histogram observation."""
        key = _series_key(name, labels)
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = _Histogram()
            histogram.observe(value)
            self.total_updates += 1

    # ------------------------------------------------------------------
    def counter_value(self, name: str, **labels: object) -> float:
        """Current value of one counter series (0 when never written)."""
        return self._counters.get(_series_key(name, labels), 0)

    def counter_total(self, name: str) -> float:
        """Sum of one counter across all of its label series."""
        return sum(
            value for key, value in self._counters.items() if key[0] == name
        )

    def counters(self, prefix: str = "") -> dict[tuple, float]:
        """Copy of the counter series, optionally name-filtered."""
        with self._lock:
            return {
                key: value
                for key, value in self._counters.items()
                if key[0].startswith(prefix)
            }

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able copy of every series, deterministically ordered."""
        with self._lock:
            return {
                "schema": SNAPSHOT_SCHEMA,
                "counters": [
                    {**_key_to_json(key), "value": value}
                    for key, value in sorted(self._counters.items())
                ],
                "gauges": [
                    {**_key_to_json(key), "value": value}
                    for key, value in sorted(self._gauges.items())
                ],
                "histograms": [
                    {**_key_to_json(key), **histogram.to_json()}
                    for key, histogram in sorted(self._histograms.items())
                ],
            }

    def merge(self, snapshot: Mapping) -> None:
        """Fold a :meth:`snapshot` payload into this registry.

        Counters and histograms accumulate; gauges take the snapshot's
        value.  Used by the parallel layer to land worker-process
        metrics in the parent registry.
        """
        schema = snapshot.get("schema")
        if schema != SNAPSHOT_SCHEMA:
            raise ObservabilityError(
                f"cannot merge metrics snapshot with schema {schema!r}; "
                f"expected {SNAPSHOT_SCHEMA!r}"
            )
        for entry in snapshot.get("counters", ()):
            self.count(entry["name"], entry["value"], **entry.get("labels", {}))
        for entry in snapshot.get("gauges", ()):
            self.gauge(entry["name"], entry["value"], **entry.get("labels", {}))
        for entry in snapshot.get("histograms", ()):
            key = _series_key(entry["name"], entry.get("labels", {}))
            with self._lock:
                histogram = self._histograms.get(key)
                if histogram is None:
                    histogram = self._histograms[key] = _Histogram()
                histogram.merge_json(entry)
                self.total_updates += 1

    def write(self, path: str | Path) -> dict:
        """Serialise the snapshot to ``path`` and return it."""
        payload = self.snapshot()
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return payload


class NullRegistry:
    """The disabled registry: every method is a no-op.

    Instrumented code calls these unconditionally; keeping the bodies
    empty (no locking, no dict work) is what makes the instrumentation
    near-free when observability is off.
    """

    __slots__ = ()
    enabled = False
    total_updates = 0

    def count(self, name: str, value: float = 1, **labels: object) -> None:
        return None

    def gauge(self, name: str, value: float, **labels: object) -> None:
        return None

    def observe(self, name: str, value: float, **labels: object) -> None:
        return None

    def counter_value(self, name: str, **labels: object) -> float:
        return 0

    def counter_total(self, name: str) -> float:
        return 0

    def counters(self, prefix: str = "") -> dict:
        return {}

    def snapshot(self) -> dict:
        return {"schema": SNAPSHOT_SCHEMA, "counters": [], "gauges": [],
                "histograms": []}

    def merge(self, snapshot: Mapping) -> None:
        return None


def diff_counters(
    left: Mapping[tuple, float], right: Mapping[tuple, float],
    ignore_prefixes: Iterable[str] = (),
) -> list[str]:
    """Human-readable differences between two counter maps.

    Used by the differential tests: returns one line per series whose
    value differs (or that exists on only one side), skipping series
    whose name starts with any ignored prefix — execution-shape
    bookkeeping like ``parallel.*`` legitimately differs between serial
    and sharded runs.
    """
    prefixes = tuple(ignore_prefixes)

    def keep(key: tuple) -> bool:
        return not key[0].startswith(prefixes) if prefixes else True

    problems = []
    for key in sorted(set(left) | set(right)):
        if not keep(key):
            continue
        a, b = left.get(key), right.get(key)
        if a != b:
            problems.append(f"{_key_to_json(key)}: {a!r} != {b!r}")
    return problems
