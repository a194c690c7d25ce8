"""Serving benchmark: single-request latency of the engine.

Measures the serving stack end to end on an ISRec-sized workload and
writes ``BENCH_serve.json`` at the repository root (``make bench-serve``):

- ``single_request`` — one user's top-K request timed three ways:
  ``train_forward`` (the naive baseline: score through the training path
  with gradients enabled, building a full autograd tape),
  ``serve_cold`` (engine request whose cached encoder state was just
  invalidated — one :func:`~repro.tensor.inference_mode` forward), and
  ``serve_warm`` (cache hit: a GEMV over the item table plus an exact
  partial sort).  The headline ``speedup`` is warm-vs-training-path; the
  acceptance floor is 2x.
- ``artifact`` — size of the frozen inference artifact on disk.

Throughput and tail latency under concurrent load are measured through
the serving cluster by ``make bench-serve-cluster``
(:mod:`repro.serve.loadgen`).

Run it directly::

    make bench-serve                 # or:
    PYTHONPATH=src python -m repro.serve.bench --out BENCH_serve.json
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.config import ISRecConfig
from repro.core.isrec import ISRec
from repro.data.batching import pad_left
from repro.serve.artifact import export_artifact, load_artifact
from repro.serve.engine import RecommendationEngine
from repro.tensor.tensor import graph_nodes
from repro.utils.bench import environment_info, measure, write_bench
from repro.utils.seeding import temp_seed

SCHEMA = "bench_serve/v2"

#: ML-1M-scale serving workload (matches the kernel-bench default shapes).
DEFAULT_SHAPES = dict(vocab=3416, dim=64, max_len=50, num_concepts=48,
                      num_users=512, history_len=30, top_k=10)
#: Miniature preset for CI smoke runs.
SMOKE_SHAPES = dict(vocab=200, dim=32, max_len=16, num_concepts=12,
                    num_users=32, history_len=10, top_k=10)

PRESETS = {"default": DEFAULT_SHAPES, "smoke": SMOKE_SHAPES}


# ----------------------------------------------------------------------
# Workload construction
# ----------------------------------------------------------------------
def build_model(shapes: dict, seed: int = 0) -> ISRec:
    """ISRec sized for ``shapes`` with random concept structure."""
    rng = np.random.default_rng(seed)
    vocab, concepts = shapes["vocab"], shapes["num_concepts"]
    item_concepts = (rng.random((vocab + 1, concepts)) < 0.1).astype(np.float32)
    item_concepts[0] = 0.0
    item_concepts[item_concepts.sum(axis=1) == 0, rng.integers(0, concepts)] = 1.0
    adjacency = (rng.random((concepts, concepts)) < 0.2).astype(np.float32)
    np.fill_diagonal(adjacency, 1.0)
    config = ISRecConfig(dim=shapes["dim"])
    with temp_seed(seed):
        return ISRec(vocab, item_concepts, adjacency,
                     max_len=shapes["max_len"], config=config)


def seed_histories(engine: RecommendationEngine, shapes: dict,
                   seed: int = 1) -> np.random.Generator:
    """Give every user a plausible random history; returns the RNG used."""
    rng = np.random.default_rng(seed)
    for user in range(shapes["num_users"]):
        length = int(rng.integers(2, shapes["history_len"] + 1))
        engine.set_history(user, rng.integers(1, shapes["vocab"] + 1,
                                              size=length))
    return rng


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def bench_single_request(model: ISRec, engine: RecommendationEngine,
                         shapes: dict, repeats: int = 5,
                         warmup: int = 2) -> dict:
    """Time one top-K request: training path vs. cold vs. warm serving."""
    rng = np.random.default_rng(7)
    user, top_k, vocab = 0, shapes["top_k"], shapes["vocab"]
    history = np.asarray(engine.history(user), dtype=np.int64)
    inputs = pad_left([history], model.max_len)

    model.train()

    def train_forward() -> np.ndarray:
        # The naive baseline: push the request through the training stack —
        # gradients enabled, dropout active, a full tape built and dropped.
        states = model.sequence_output(inputs)
        logits = model.all_item_logits(states[:, -1, :])
        row = logits.data[0]
        return np.argpartition(row, -top_k)[-top_k:]

    train_result = measure(train_forward, repeats=repeats, warmup=warmup)
    model.eval()

    def serve_cold() -> list:
        engine.observe(user, int(rng.integers(1, vocab + 1)))
        return engine.recommend(user, k=top_k)

    cold_result = measure(serve_cold, repeats=repeats, warmup=warmup)

    engine.recommend(user, k=top_k)  # prime the cache

    def serve_warm() -> list:
        return engine.recommend(user, k=top_k)

    warm_result = measure(serve_warm, repeats=repeats, warmup=warmup)

    nodes_before = graph_nodes()
    serve_cold()
    serve_warm()
    nodes_delta = graph_nodes() - nodes_before

    warm_speedup = train_result["wall_time_s"] / max(warm_result["wall_time_s"], 1e-12)
    cold_speedup = train_result["wall_time_s"] / max(cold_result["wall_time_s"], 1e-12)
    return {
        "train_forward": train_result,
        "serve_cold": cold_result,
        "serve_warm": warm_result,
        "speedup_cold": cold_speedup,
        "speedup_warm": warm_speedup,
        "speedup": warm_speedup,
        "graph_nodes_per_request": int(nodes_delta),
    }


# ----------------------------------------------------------------------
# Top-level runner / CLI
# ----------------------------------------------------------------------
def run_serve_bench(preset: str = "default", repeats: int = 5,
                    warmup: int = 2, shapes: dict | None = None) -> dict:
    """Run every section and return the full results document."""
    shapes = dict(shapes or PRESETS[preset])
    model = build_model(shapes)
    with tempfile.TemporaryDirectory() as tmp:
        artifact_path = export_artifact(model, Path(tmp) / "model.npz")
        artifact_bytes = artifact_path.stat().st_size
        served = load_artifact(artifact_path)
    engine = RecommendationEngine(served, cache_size=shapes["num_users"])
    seed_histories(engine, shapes)
    return {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "preset": preset,
        "shapes": shapes,
        "repeats": repeats,
        "environment": environment_info(),
        "model": {"class": "ISRec", "num_parameters": sum(
            int(np.asarray(value).size)
            for value in served.state_dict().values())},
        "artifact": {"bytes": int(artifact_bytes)},
        "single_request": bench_single_request(model, engine, shapes,
                                               repeats, warmup),
    }


def format_summary(results: dict) -> str:
    """Human-readable summary of a serve-bench results document."""
    single = results["single_request"]
    as_ms = lambda value: "n/a" if value is None else f"{value * 1e3:.3f} ms"
    return "\n".join([
        f"serve bench  preset={results['preset']}  "
        f"artifact={results['artifact']['bytes'] / 1024:.0f} KiB",
        f"  train-path forward {as_ms(single['train_forward']['wall_time_s'])}"
        f"   serve cold {as_ms(single['serve_cold']['wall_time_s'])}"
        f" ({single['speedup_cold']:.1f}x)"
        f"   serve warm {as_ms(single['serve_warm']['wall_time_s'])}"
        f" ({single['speedup_warm']:.1f}x)",
        f"  graph nodes / request: {single['graph_nodes_per_request']}",
    ])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_serve.json",
                        help="output JSON path (default: %(default)s)")
    parser.add_argument("--preset", default="default", choices=sorted(PRESETS),
                        help="shape preset (default: %(default)s)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repetitions per measurement (best-of)")
    args = parser.parse_args(argv)

    results = run_serve_bench(preset=args.preset, repeats=args.repeats)
    write_bench(results, args.out)
    print(format_summary(results))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
