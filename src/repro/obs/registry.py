"""Structured metrics registry: counters, gauges, histograms, scoped timers.

The registry is the in-memory half of the observability layer
(``docs/observability.md``): instruments all over the stack — the trainer,
the ranking evaluator, the serving tier — record into a single
process-global :class:`MetricsRegistry`, and sinks (``repro.obs.sink``)
stream the event half to disk as JSONL.

Telemetry is **off by default** and guarded by one module-level boolean:
every instrumentation site checks :func:`telemetry_enabled` first, so the
disabled cost is a global read and a branch.  Enable it for a scope with::

    from repro import obs

    with obs.use_telemetry():
        ...   # instrumented code records metrics/events

or for a whole run (with a JSONL file attached) via
:func:`repro.obs.sink.telemetry_run`.
"""

from __future__ import annotations

import contextlib
import time

_TELEMETRY_ENABLED = False


def telemetry_enabled() -> bool:
    """Return whether instrumentation sites should record anything."""
    return _TELEMETRY_ENABLED


def set_telemetry(enabled: bool) -> bool:
    """Switch telemetry on/off globally; returns the previous setting."""
    global _TELEMETRY_ENABLED
    previous = _TELEMETRY_ENABLED
    _TELEMETRY_ENABLED = bool(enabled)
    return previous


@contextlib.contextmanager
def use_telemetry(enabled: bool = True):
    """Context manager selecting telemetry on (default) or off for a scope."""
    previous = set_telemetry(enabled)
    try:
        yield
    finally:
        set_telemetry(previous)


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class Counter:
    """Monotonically increasing count (events, dispatches, steps)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def snapshot(self) -> dict:
        """JSON-serializable state."""
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins scalar (current LR, epoch number, queue depth)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float | None = None

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)

    def snapshot(self) -> dict:
        """JSON-serializable state."""
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming distribution summary (running moments, extrema, quantiles).

    Stores O(1) running state — count, sum, sum of squares, min, max, and
    the last observation — plus a bounded ring buffer of the most recent
    ``sample_size`` observations from which :meth:`quantile` estimates
    p50/p99-style tail statistics (the serving latency dashboards need
    percentiles, not just moments).  Memory stays bounded regardless of how
    many values are observed.
    """

    #: Ring-buffer capacity backing :meth:`quantile`.
    sample_size = 2048

    __slots__ = ("name", "count", "total", "total_sq", "min", "max", "last",
                 "_samples", "_cursor")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.last: float | None = None
        self._samples: list[float] = []
        self._cursor = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        self.total_sq += value * value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.last = value
        if len(self._samples) < self.sample_size:
            self._samples.append(value)
        else:
            self._samples[self._cursor] = value
            self._cursor = (self._cursor + 1) % self.sample_size

    @property
    def mean(self) -> float | None:
        """Mean of all observations, or ``None`` when empty."""
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) of the distribution.

        Computed over the retained ring-buffer sample (the most recent
        ``sample_size`` observations) with nearest-rank interpolation;
        exact while fewer than ``sample_size`` values have been observed.
        Returns ``None`` when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        position = q * (len(ordered) - 1)
        lower = int(position)
        upper = min(lower + 1, len(ordered) - 1)
        fraction = position - lower
        return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction

    def snapshot(self) -> dict:
        """JSON-serializable state."""
        if not self.count:
            return {"type": "histogram", "count": 0}
        mean = self.total / self.count
        variance = max(self.total_sq / self.count - mean * mean, 0.0)
        return {
            "type": "histogram",
            "count": self.count,
            "mean": mean,
            "std": variance ** 0.5,
            "min": self.min,
            "max": self.max,
            "last": self.last,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
        }


class _TimerContext:
    """Context manager produced by :meth:`MetricsRegistry.timer`."""

    __slots__ = ("_histogram", "_start", "elapsed")

    def __init__(self, histogram: Histogram | None):
        self._histogram = histogram
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "_TimerContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start
        if self._histogram is not None:
            self._histogram.observe(self.elapsed)


class MetricsRegistry:
    """Named instruments plus attached event sinks.

    Instruments are get-or-create by name (``registry.counter("x").inc()``),
    so instrumentation sites never need set-up code.  Events flow to every
    attached sink (objects with a ``write(record: dict)`` method) stamped
    with seconds since the registry was created.
    """

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._sinks: list = []
        self._epoch = time.perf_counter()

    # -- instruments ---------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Get-or-create the counter called ``name``."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Get-or-create the gauge called ``name``."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """Get-or-create the histogram called ``name``."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def timer(self, name: str) -> _TimerContext:
        """Scoped timer observing elapsed seconds into histogram ``name``."""
        return _TimerContext(self.histogram(name))

    # -- events --------------------------------------------------------
    def attach(self, sink) -> None:
        """Start forwarding events to ``sink`` (a ``write(dict)`` object)."""
        self._sinks.append(sink)

    def detach(self, sink) -> None:
        """Stop forwarding events to ``sink``."""
        if sink in self._sinks:
            self._sinks.remove(sink)

    def emit(self, event: str, **fields) -> None:
        """Send one event record to every attached sink."""
        if not self._sinks:
            return
        record = {"ts": round(time.perf_counter() - self._epoch, 6),
                  "event": event}
        record.update(fields)
        for sink in self._sinks:
            sink.write(record)

    # -- lifecycle -----------------------------------------------------
    def snapshot(self) -> dict:
        """All instruments as one JSON-serializable mapping."""
        merged: dict[str, dict] = {}
        for group in (self._counters, self._gauges, self._histograms):
            for name, instrument in group.items():
                merged[name] = instrument.snapshot()
        return dict(sorted(merged.items()))

    def reset(self) -> None:
        """Drop every instrument (sinks stay attached)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._epoch = time.perf_counter()


_REGISTRY = MetricsRegistry()

#: Shared no-op context for disabled-telemetry timer() calls.
_NULL_TIMER = _TimerContext(None)


def get_registry() -> MetricsRegistry:
    """The process-global registry instruments record into."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the global registry; returns the previous one.

    ``telemetry_run`` uses this to give each run a fresh registry so the
    end-of-run summary covers exactly that run.
    """
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


# ----------------------------------------------------------------------
# Module-level conveniences used by instrumentation sites
# ----------------------------------------------------------------------
def emit(event: str, **fields) -> None:
    """Emit an event through the global registry (no-op when disabled)."""
    if _TELEMETRY_ENABLED:
        _REGISTRY.emit(event, **fields)


def counter(name: str) -> Counter:
    """Global-registry counter (record only when :func:`telemetry_enabled`)."""
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """Global-registry gauge."""
    return _REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    """Global-registry histogram."""
    return _REGISTRY.histogram(name)


def timer(name: str) -> _TimerContext:
    """Global-registry scoped timer; a shared no-op when telemetry is off."""
    if not _TELEMETRY_ENABLED:
        return _NULL_TIMER
    return _REGISTRY.timer(name)
