"""Observability layer: metrics registry, JSONL telemetry, profiling.

One subsystem for everything the training/eval stack reports about itself
(see ``docs/observability.md``):

- :mod:`repro.obs.registry` — counters, gauges, histograms, and scoped
  timers behind a global on/off toggle (off by default; near-zero cost
  when disabled).
- :mod:`repro.obs.sink` — a JSONL event stream plus an end-of-run summary
  writer; :func:`telemetry_run` wires both up for a scope.
- :mod:`repro.obs.profile` — nested ``with profile("train_step"):`` spans
  and a breakdown report.
- :mod:`repro.obs.report` — CLI pretty-printer
  (``make telemetry-report FILE=...``).

Instrumented call sites: ``Trainer`` (per-step loss / grad norm / LR /
throughput / tensor allocations, checkpoint and divergence-recovery
events), ``RankingEvaluator.evaluate`` (per-batch scoring latency,
candidates/s), every ``repro.experiments`` runner (one telemetry file per
artefact), and the ``repro.parallel`` subsystem (per-step all-reduce and
per-worker compute time, worker-count gauge, prefetch queue depth and
hit/miss counters, parallel-sweep scheduling events).  Forked worker/pool children
always run with telemetry *off* and a private registry — their stats
travel back to the parent, which is the only process that writes streams.
"""

from repro.obs.profile import profile, profile_report, profile_tree, reset_profile
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    emit,
    gauge,
    get_registry,
    histogram,
    set_registry,
    set_telemetry,
    telemetry_enabled,
    timer,
    use_telemetry,
)
from repro.obs.sink import (
    JsonlSink,
    read_telemetry,
    telemetry_run,
    write_summary,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "JsonlSink",
    "counter",
    "gauge",
    "histogram",
    "timer",
    "emit",
    "get_registry",
    "set_registry",
    "telemetry_enabled",
    "set_telemetry",
    "use_telemetry",
    "telemetry_run",
    "read_telemetry",
    "write_summary",
    "profile",
    "profile_tree",
    "profile_report",
    "reset_profile",
]
