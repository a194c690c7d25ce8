"""Top-K inference: frozen artifacts, one engine, a resilient cluster.

The serving stack (``docs/serving.md``) turns a trained
:class:`~repro.models.base.SequenceRecommender` into a low-latency
recommendation service without ever building an autograd tape:

- :mod:`repro.serve.artifact` — freeze a model (or any training
  checkpoint) into one checksummed ``.npz`` inference artifact holding
  weights + architecture config + constants, and load it back in
  forced-eval mode.
- :mod:`repro.serve.engine` — :class:`RecommendationEngine`, the only
  engine: an LRU cache of per-user encoder states and seen-item indexes,
  lazy refresh on new interactions, exact top-K over the full item
  vocabulary via partial sort, and seen-item suppression.  Scoring runs
  under :func:`repro.tensor.inference_mode`, so a request allocates
  **zero** graph nodes, and its ``score`` is the model's own — the engine
  is bit-for-bit consistent with the offline
  :class:`~repro.eval.evaluator.RankingEvaluator`.
- :mod:`repro.serve.quantize` — int8 weight quantization for the
  artifact: per-channel symmetric codecs applied at ``export_artifact(...,
  quantize="int8")`` time and undone once by :func:`load_artifact`, so the
  same engine serves int8 and float artifacts.
- :mod:`repro.serve.cluster` — :class:`ServingCluster`: the resilient
  multi-process runtime (``docs/resilience.md``) — user-id-sharded
  supervised workers, per-request deadlines with jittered retries,
  bounded queues with load shedding (:class:`Overloaded`), a degraded
  popularity fallback, and canary-validated artifact hot-swap with
  automatic rollback (:class:`SwapFailed`).  Supporting pieces live in
  :mod:`repro.serve.router` and :mod:`repro.serve.supervisor`.
- :mod:`repro.serve.bench` — the single-engine request-latency benchmark
  behind ``make bench-serve`` (writes ``BENCH_serve.json``).
- :mod:`repro.serve.loadgen` — the cluster benchmark behind
  ``make bench-serve-cluster`` (writes ``BENCH_serve_cluster.json``):
  Zipfian load, mid-run worker kill, recovery-time measurement.

Everything is instrumented through :mod:`repro.obs` (request-latency
histograms with p50/p99, cache hit/miss counters, cache-size gauges);
telemetry stays off by default as everywhere else.
"""

from repro.serve.artifact import (
    export_artifact,
    export_checkpoint,
    load_artifact,
    register_model,
    servable_models,
)
from repro.serve.cluster import ClusterConfig, ServingCluster
from repro.serve.engine import RecommendationEngine
from repro.serve.quantize import dequantize, quantize_per_channel
from repro.serve.router import (
    DeadlineExceeded,
    Overloaded,
    ServeError,
    ServeResponse,
    ShardUnavailable,
    SwapFailed,
)

__all__ = [
    "export_artifact",
    "export_checkpoint",
    "load_artifact",
    "register_model",
    "servable_models",
    "RecommendationEngine",
    "quantize_per_channel",
    "dequantize",
    "ServingCluster",
    "ClusterConfig",
    "ServeResponse",
    "ServeError",
    "Overloaded",
    "DeadlineExceeded",
    "ShardUnavailable",
    "SwapFailed",
]
