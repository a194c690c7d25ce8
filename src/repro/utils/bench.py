"""Microbenchmark harness for the fused autograd kernels.

Times the training-step and eval hot paths — plus per-op microbenches —
under both the fused (:mod:`repro.tensor.fused`) and composed
(:mod:`repro.tensor.functional` reference) kernel paths, on identical
inputs, and records wall time together with the number of tensor
temporaries each path materialises (:func:`repro.tensor.tensor_allocs`).

The results are written to ``BENCH_kernels.json`` at the repository root —
the first entry of the perf trajectory every future optimisation PR is
measured against.  Regenerate it with::

    make bench-kernels            # or:
    PYTHONPATH=src python -m repro.utils.bench --out BENCH_kernels.json

``tests/test_kernel_regression.py`` runs :func:`bench_train_step` on tiny
shapes in tier-1 CI and fails if the fused path ever becomes slower than
the composed reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from typing import Callable

import numpy as np

from repro.models.sasrec import SASRec
from repro.tensor import functional as F
from repro.tensor import fused
from repro.tensor.tensor import Tensor, no_grad, tensor_allocs
from repro.utils.seeding import temp_seed

SCHEMA = "bench_kernels/v1"

#: Default shapes: an ISRec/SASRec-sized workload (ML-1M-scale item
#: vocabulary, the standard max_len=50 window).  The recorded numbers in
#: BENCH_kernels.json use these shapes.
DEFAULT_SHAPES = dict(batch_size=128, seq_len=50, vocab=3416, dim=64,
                      num_heads=2, num_layers=2)
#: Miniature shapes for CI smoke runs and the tier-1 regression test.
SMOKE_SHAPES = dict(batch_size=8, seq_len=16, vocab=200, dim=32,
                    num_heads=2, num_layers=1)

PRESETS = {"default": DEFAULT_SHAPES, "smoke": SMOKE_SHAPES}


#: Environment variables that set the BLAS/OpenMP thread count.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def environment_info() -> dict:
    """Python/numpy/platform/CPU stamp written into every bench document.

    Records the BLAS thread variables (``None`` when unset) and the number
    of CPUs this process may run on, the two settings a timing depends on.
    """
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


# ----------------------------------------------------------------------
# Measurement core
# ----------------------------------------------------------------------
def measure(fn: Callable[[], object], repeats: int = 5, warmup: int = 2) -> dict:
    """Best-of-``repeats`` wall time plus tensor allocations of one call."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    before = tensor_allocs()
    fn()
    return {"wall_time_s": best, "tensor_allocs": tensor_allocs() - before}


def _compare(make_fn: Callable[[bool], Callable[[], object]],
             repeats: int, warmup: int) -> dict:
    """Measure ``make_fn(fused_on)`` under both kernel paths."""
    results = {}
    for label, flag in (("composed", False), ("fused", True)):
        with fused.use_fused(flag), temp_seed(0):
            results[label] = measure(make_fn(flag), repeats=repeats, warmup=warmup)
    composed, fused_r = results["composed"], results["fused"]
    results["speedup"] = composed["wall_time_s"] / max(fused_r["wall_time_s"], 1e-12)
    results["alloc_ratio"] = composed["tensor_allocs"] / max(fused_r["tensor_allocs"], 1)
    return results


# ----------------------------------------------------------------------
# Workload builders
# ----------------------------------------------------------------------
def _build_model_and_batch(shapes: dict) -> tuple[SASRec, tuple]:
    rng = np.random.default_rng(0)
    batch, seq_len, vocab = shapes["batch_size"], shapes["seq_len"], shapes["vocab"]
    with temp_seed(0):
        model = SASRec(num_items=vocab, dim=shapes["dim"], max_len=seq_len,
                       num_layers=shapes["num_layers"],
                       num_heads=shapes["num_heads"], dropout=0.1)
    inputs = rng.integers(1, vocab + 1, size=(batch, seq_len))
    targets = rng.integers(1, vocab + 1, size=(batch, seq_len))
    # Left-pad a third of each sequence: the realistic next_item_batches shape.
    pad = seq_len // 3
    inputs[:, :pad] = 0
    targets[:, :pad] = 0
    mask = (targets > 0).astype(np.float32)
    users = np.arange(batch)
    return model, (users, inputs, targets, mask)


def bench_train_step(shapes: dict | None = None, repeats: int = 5,
                     warmup: int = 2) -> dict:
    """Full training step (loss forward + backward) fused vs. composed."""
    shapes = shapes or DEFAULT_SHAPES
    model, batch = _build_model_and_batch(shapes)
    model.train()
    parameters = list(model.parameters())

    def make_step(_flag: bool) -> Callable[[], None]:
        def step() -> None:
            loss = model.training_loss(batch)
            loss.backward()
            for parameter in parameters:
                parameter.zero_grad()
        return step

    return _compare(make_step, repeats, warmup)


def bench_eval_forward(shapes: dict | None = None, repeats: int = 5,
                       warmup: int = 2) -> dict:
    """Inference scoring pass (``no_grad`` forward) fused vs. composed."""
    shapes = shapes or DEFAULT_SHAPES
    model, (users, inputs, _targets, _mask) = _build_model_and_batch(shapes)
    model.eval()
    rng = np.random.default_rng(1)
    candidates = rng.integers(1, shapes["vocab"] + 1,
                              size=(shapes["batch_size"], 101))

    def make_eval(_flag: bool) -> Callable[[], np.ndarray]:
        return lambda: model.score(users, inputs, candidates)

    return _compare(make_eval, repeats, warmup)


def bench_micro(shapes: dict | None = None, repeats: int = 5,
                warmup: int = 2) -> dict:
    """Per-op forward+backward microbenches, fused vs. composed."""
    shapes = shapes or DEFAULT_SHAPES
    rng = np.random.default_rng(2)
    batch, seq_len = shapes["batch_size"], shapes["seq_len"]
    vocab, dim, heads = shapes["vocab"], shapes["dim"], shapes["num_heads"]
    head_dim = dim // heads

    scores = rng.standard_normal((batch, heads, seq_len, seq_len)).astype(np.float32)
    logits = rng.standard_normal((batch, seq_len, vocab)).astype(np.float32)
    targets = rng.integers(1, vocab, size=(batch, seq_len))
    ce_mask = (rng.random((batch, seq_len)) < 0.8).astype(np.float32)
    ce_mask[:, -1] = 1.0
    qkv = [rng.standard_normal((batch, heads, seq_len, head_dim)).astype(np.float32)
           for _ in range(3)]
    states = rng.standard_normal((batch, seq_len, dim)).astype(np.float32)

    from repro.nn.attention import causal_mask
    from repro.nn.normalization import LayerNorm
    attn_mask = causal_mask(seq_len)
    with temp_seed(0):
        layer_norm = LayerNorm(dim)

    def fwd_bwd(build: Callable[[], Tensor]) -> None:
        build().backward()

    def softmax_case(fused_on: bool) -> Callable[[], None]:
        leaf = Tensor(scores, requires_grad=True)
        return lambda: fwd_bwd(lambda: F.softmax(leaf, axis=-1).sum())

    def log_softmax_case(fused_on: bool) -> Callable[[], None]:
        leaf = Tensor(logits, requires_grad=True)
        return lambda: fwd_bwd(lambda: F.log_softmax(leaf, axis=-1).sum())

    def cross_entropy_case(fused_on: bool) -> Callable[[], None]:
        leaf = Tensor(logits, requires_grad=True)
        return lambda: fwd_bwd(lambda: F.cross_entropy(leaf, targets, ce_mask))

    def attention_case(fused_on: bool) -> Callable[[], None]:
        leaves = [Tensor(data, requires_grad=True) for data in qkv]
        scale = 1.0 / np.sqrt(head_dim)
        if fused_on:
            return lambda: fwd_bwd(lambda: fused.attention(
                *leaves, mask=attn_mask, scale=scale).sum())

        def composed() -> Tensor:
            raw = (leaves[0] @ leaves[1].transpose(0, 1, 3, 2)) * scale
            masked = F.masked_fill(raw, attn_mask, -1e9)
            return (F.softmax(masked, axis=-1) @ leaves[2]).sum()
        return lambda: fwd_bwd(composed)

    def layer_norm_case(fused_on: bool) -> Callable[[], None]:
        leaf = Tensor(states, requires_grad=True)
        return lambda: fwd_bwd(lambda: layer_norm(leaf).sum())

    cases = {
        "softmax": softmax_case,
        "log_softmax": log_softmax_case,
        "cross_entropy": cross_entropy_case,
        "attention": attention_case,
        "layer_norm": layer_norm_case,
    }
    return {name: _compare(case, repeats, warmup) for name, case in cases.items()}


# ----------------------------------------------------------------------
# Top-level runner / CLI
# ----------------------------------------------------------------------
def run_kernel_bench(shapes: dict | None = None, repeats: int = 5,
                     warmup: int = 2, preset: str = "default",
                     include_micro: bool = True) -> dict:
    """Run every section and return the full results document."""
    shapes = dict(shapes or PRESETS[preset])
    results = {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "preset": preset,
        "shapes": shapes,
        "repeats": repeats,
        "environment": environment_info(),
        "train_step": bench_train_step(shapes, repeats, warmup),
        "eval_forward": bench_eval_forward(shapes, repeats, warmup),
    }
    if include_micro:
        results["micro"] = bench_micro(shapes, repeats, warmup)
    return results


def write_bench(results: dict, path: str) -> None:
    """Write a results document as indented JSON (trailing newline)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")


def format_summary(results: dict) -> str:
    """Human-readable one-line-per-section summary of a results document."""
    lines = [f"kernel bench  preset={results['preset']}  shapes={results['shapes']}"]
    sections = [("train_step", results["train_step"]),
                ("eval_forward", results["eval_forward"])]
    sections += sorted(results.get("micro", {}).items())
    for name, section in sections:
        composed, fused_r = section["composed"], section["fused"]
        lines.append(
            f"  {name:<14} composed {composed['wall_time_s'] * 1e3:8.2f} ms "
            f"/ {composed['tensor_allocs']:>5} allocs   "
            f"fused {fused_r['wall_time_s'] * 1e3:8.2f} ms "
            f"/ {fused_r['tensor_allocs']:>5} allocs   "
            f"speedup {section['speedup']:.2f}x"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_kernels.json",
                        help="output JSON path (default: %(default)s)")
    parser.add_argument("--preset", default="default", choices=sorted(PRESETS),
                        help="shape preset (default: %(default)s)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repetitions per measurement (best-of)")
    parser.add_argument("--no-micro", action="store_true",
                        help="skip the per-op microbenches")
    args = parser.parse_args(argv)

    results = run_kernel_bench(repeats=args.repeats, preset=args.preset,
                               include_micro=not args.no_micro)
    write_bench(results, args.out)
    print(format_summary(results))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
