"""Benchmark of the float dtype setting and the quantized serving path.

Three sections, written to ``BENCH_backends.json`` at the repository root
(regenerate with ``make bench-backends``):

- ``train_step`` — the fused training step of an ISRec/SASRec-sized model
  built and run under ``use_dtype(np.float64)`` versus the float32
  default.  The float64 run is the full-precision baseline; the recorded
  ``speedup_f32_vs_f64`` is the reduced-precision win (acceptance floor:
  2x).
- ``serve`` — warm-request latency of one engine class over a float
  artifact and over its int8-quantized twin (dequantized at load), with
  identical histories, plus accuracy parity: mean/min top-10 overlap,
  exact-top-1 agreement, and held-out HR@10 / NDCG@10 for both.  The
  committed ``BENCH_serve.json`` warm reference is recorded beside them.
- ``gemv_micro`` — the raw item-table GEMV at float64/float32/float16
  precision, so the dtype story behind the engine defaults is on the
  record.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.models.sasrec import SASRec
from repro.tensor import fused, use_dtype
from repro.utils.bench import environment_info, measure, write_bench
from repro.utils.seeding import temp_seed

SCHEMA = "bench_backends/v2"

#: ISRec/SASRec-sized training shapes plus the serving workload of
#: ``repro.serve.bench`` (ML-1M-scale vocabulary, dim 64).
DEFAULT_SHAPES = dict(batch_size=128, seq_len=50, vocab=3416, dim=64,
                      num_heads=2, num_layers=2, num_concepts=48,
                      max_len=50, num_users=256, history_len=30, top_k=10)
#: Miniature shapes for CI smoke runs.
SMOKE_SHAPES = dict(batch_size=8, seq_len=16, vocab=200, dim=32,
                    num_heads=2, num_layers=1, num_concepts=8,
                    max_len=16, num_users=24, history_len=8, top_k=10)

PRESETS = {"default": DEFAULT_SHAPES, "smoke": SMOKE_SHAPES}

#: Float dtypes compared in the train-step section (baseline listed first).
TRAIN_DTYPES = ("float64", "float32")


# ----------------------------------------------------------------------
# Section 1: train step at each float dtype
# ----------------------------------------------------------------------
def _build_train_case(dtype: str, shapes: dict):
    with use_dtype(dtype), temp_seed(0):
        model = SASRec(num_items=shapes["vocab"], dim=shapes["dim"],
                       max_len=shapes["seq_len"],
                       num_layers=shapes["num_layers"],
                       num_heads=shapes["num_heads"], dropout=0.1)
    rng = np.random.default_rng(0)
    batch, seq_len, vocab = shapes["batch_size"], shapes["seq_len"], shapes["vocab"]
    inputs = rng.integers(1, vocab + 1, size=(batch, seq_len))
    targets = rng.integers(1, vocab + 1, size=(batch, seq_len))
    pad = seq_len // 3
    inputs[:, :pad] = 0
    targets[:, :pad] = 0
    mask = (targets > 0).astype(dtype)
    model.train()
    parameters = list(model.parameters())
    payload = (np.arange(batch), inputs, targets, mask)

    def step() -> None:
        with use_dtype(dtype), fused.use_fused(True):
            loss = model.training_loss(payload)
            loss.backward()
            for parameter in parameters:
                parameter.zero_grad()

    return model, step


def bench_train_step(shapes: dict, repeats: int = 5, warmup: int = 2) -> dict:
    """Fused train step at each float dtype, float64 = baseline."""
    results: dict = {}
    for dtype in TRAIN_DTYPES:
        model, step = _build_train_case(dtype, shapes)
        result = measure(step, repeats=repeats, warmup=warmup)
        result["param_dtype"] = str(model.item_embedding.weight.dtype)
        results[dtype] = result
    results["speedup_f32_vs_f64"] = (
        results["float64"]["wall_time_s"]
        / max(results["float32"]["wall_time_s"], 1e-12))
    return results


# ----------------------------------------------------------------------
# Section 2: quantized serving
# ----------------------------------------------------------------------
def _holdout_metrics(engine, holdouts: dict[int, int], k: int) -> dict:
    """HR@k / NDCG@k of each user's held-out item under ``engine``."""
    hits, ndcg = [], []
    for user, target in holdouts.items():
        ranked = [item for item, _score in engine.recommend(user, k=k)]
        if target in ranked:
            rank = ranked.index(target)
            hits.append(1.0)
            ndcg.append(1.0 / np.log2(rank + 2.0))
        else:
            hits.append(0.0)
            ndcg.append(0.0)
    return {f"hr@{k}": float(np.mean(hits)), f"ndcg@{k}": float(np.mean(ndcg))}


def bench_serve_quantized(shapes: dict, repeats: int = 5, warmup: int = 2,
                          reference_path: str | Path | None = None) -> dict:
    """Exact vs int8 artifacts: warm latency and ranking parity."""
    from repro.serve import (RecommendationEngine, export_artifact,
                             load_artifact)
    from repro.serve.bench import build_model, seed_histories

    model = build_model(shapes)
    with tempfile.TemporaryDirectory(prefix="bench_backends_") as tmp:
        exact_path = export_artifact(model, Path(tmp) / "exact.npz")
        quant_path = export_artifact(model, Path(tmp) / "int8.npz",
                                     quantize="int8")
        artifact_bytes = {"float32": exact_path.stat().st_size,
                          "int8": quant_path.stat().st_size}
        engines = {
            "exact": RecommendationEngine(load_artifact(exact_path)),
            "int8_dequant": RecommendationEngine(load_artifact(quant_path)),
        }
    k = shapes["top_k"]
    holdouts: dict[int, int] = {}
    for engine in engines.values():
        rng = seed_histories(engine, shapes)
        del rng
    for user in engines["exact"].known_users():
        history = engines["exact"].history(user)
        if len(history) > 1:
            holdouts[user] = history[-1]
            for engine in engines.values():
                engine.set_history(user, history[:-1])

    results: dict = {"artifact_bytes": artifact_bytes}
    for name, engine in engines.items():
        engine.recommend(0, k=k)  # populate the user-0 state cache
        results[f"warm_{name}"] = measure(
            lambda engine=engine: engine.recommend(0, k=k),
            repeats=max(repeats, 5), warmup=warmup)
    results["speedup_dequant_vs_exact"] = (
        results["warm_exact"]["wall_time_s"]
        / max(results["warm_int8_dequant"]["wall_time_s"], 1e-12))

    if reference_path is not None and Path(reference_path).exists():
        with open(reference_path, encoding="utf-8") as handle:
            reference = json.load(handle)
        reference_warm = (reference.get("single_request", {})
                          .get("serve_warm", {}).get("wall_time_s"))
        if reference_warm:
            results["reference_warm_s"] = reference_warm
            results["speedup_dequant_vs_reference"] = (
                reference_warm
                / max(results["warm_int8_dequant"]["wall_time_s"], 1e-12))

    overlaps, agreement = [], []
    for user in sorted(holdouts):
        top_exact = [item for item, _score in
                     engines["exact"].recommend(user, k=k)]
        top_quant = {item for item, _score in
                     engines["int8_dequant"].recommend(user, k=k)}
        overlaps.append(len(set(top_exact) & top_quant) / max(len(top_exact), 1))
        agreement.append(float(top_exact[0] in top_quant))
    results["topk_overlap"] = {
        "int8_dequant": {"mean": float(np.mean(overlaps)),
                         "min": float(np.min(overlaps))}}
    results["top1_in_quant_top10"] = float(np.mean(agreement))
    metrics = {name: _holdout_metrics(engine, holdouts, k)
               for name, engine in engines.items()}
    results["ranking_metrics"] = metrics
    results["ranking_metrics"]["abs_diff_dequant"] = {
        key: abs(metrics["exact"][key] - metrics["int8_dequant"][key])
        for key in metrics["exact"]}
    return results


# ----------------------------------------------------------------------
# Section 3: GEMV precision micro
# ----------------------------------------------------------------------
def bench_gemv_micro(shapes: dict, repeats: int = 5, warmup: int = 2) -> dict:
    """Item-table GEMV at each float precision."""
    rng = np.random.default_rng(3)
    table64 = rng.normal(size=(shapes["vocab"] + 1, shapes["dim"]))
    state64 = rng.normal(size=shapes["dim"])
    table32, state32 = table64.astype(np.float32), state64.astype(np.float32)
    table16, state16 = table64.astype(np.float16), state64.astype(np.float16)

    cases = {
        "float64": lambda: table64 @ state64,
        "float32": lambda: table32 @ state32,
        "float16": lambda: table16 @ state16,
    }
    results = {name: measure(case, repeats=max(repeats, 7), warmup=warmup)
               for name, case in cases.items()}
    results["speedup_f32_vs_f64"] = (
        results["float64"]["wall_time_s"]
        / max(results["float32"]["wall_time_s"], 1e-12))
    return results


# ----------------------------------------------------------------------
# Top-level runner / CLI
# ----------------------------------------------------------------------
def run_backend_bench(shapes: dict | None = None, repeats: int = 5,
                      warmup: int = 2, preset: str = "default",
                      reference_path: str | Path | None = None) -> dict:
    """Run every section and return the full results document."""
    shapes = dict(shapes or PRESETS[preset])
    return {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "preset": preset,
        "shapes": shapes,
        "repeats": repeats,
        "environment": environment_info(),
        "train_step": bench_train_step(shapes, repeats, warmup),
        "serve": bench_serve_quantized(shapes, repeats, warmup,
                                       reference_path=reference_path),
        "gemv_micro": bench_gemv_micro(shapes, repeats, warmup),
    }


def format_summary(results: dict) -> str:
    """Human-readable summary of a results document."""
    as_us = lambda seconds: f"{seconds * 1e6:8.1f} us"  # noqa: E731
    train, serve = results["train_step"], results["serve"]
    micro = results["gemv_micro"]
    lines = [f"precision bench  preset={results['preset']}"]
    lines.append(
        f"  train step     float64 {train['float64']['wall_time_s'] * 1e3:8.2f} ms"
        f"   float32 {train['float32']['wall_time_s'] * 1e3:8.2f} ms"
        f"   speedup {train['speedup_f32_vs_f64']:.2f}x")
    line = (f"  serve warm     exact {as_us(serve['warm_exact']['wall_time_s'])}"
            f"   int8 {as_us(serve['warm_int8_dequant']['wall_time_s'])}"
            f"   speedup {serve['speedup_dequant_vs_exact']:.2f}x")
    if "reference_warm_s" in serve:
        line += f"   vs committed ref {serve['speedup_dequant_vs_reference']:.2f}x"
    lines.append(line)
    overlap = serve["topk_overlap"]["int8_dequant"]
    lines.append(f"  top-10 overlap mean {overlap['mean']:.3f}  min {overlap['min']:.3f}"
                 f"   artifact {serve['artifact_bytes']['int8'] / 1e3:.0f} kB"
                 f" vs {serve['artifact_bytes']['float32'] / 1e3:.0f} kB")
    lines.append(
        f"  gemv           f64 {as_us(micro['float64']['wall_time_s'])}"
        f"  f32 {as_us(micro['float32']['wall_time_s'])}"
        f"  f16 {as_us(micro['float16']['wall_time_s'])}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_backends.json",
                        help="output JSON path (default: %(default)s)")
    parser.add_argument("--preset", default="default", choices=sorted(PRESETS),
                        help="shape preset (default: %(default)s)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repetitions per measurement (best-of)")
    parser.add_argument("--reference", default="BENCH_serve.json",
                        help="committed serve bench to compare the quantized "
                             "warm path against (default: %(default)s)")
    args = parser.parse_args(argv)

    results = run_backend_bench(repeats=args.repeats, preset=args.preset,
                                reference_path=args.reference)
    write_bench(results, args.out)
    print(format_summary(results))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
