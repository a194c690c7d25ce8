"""Fused-kernel benchmark: regenerates ``BENCH_kernels.json`` at the repo root.

Times the train-step / eval hot paths and the per-op microbenches under the
fused and composed kernel paths (see ``repro/utils/bench.py`` and
``docs/performance.md``).  The workload follows ``REPRO_BENCH``:

- ``smoke``    — miniature shapes, plumbing check (seconds).
- ``standard`` — the default ISRec-sized shapes recorded in the committed
  ``BENCH_kernels.json`` (a minute or two).
- ``full``     — same shapes, more repetitions for tighter best-of timings.
"""

from __future__ import annotations

import pathlib

import pytest

from benchmarks.conftest import emit, preset_name
from repro.utils import bench

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

RUNS = {
    "smoke": dict(preset="smoke", repeats=3),
    "standard": dict(preset="default", repeats=5),
    "full": dict(preset="default", repeats=9),
}


@pytest.mark.bench
def test_kernel_bench_records_baseline():
    run = RUNS[preset_name()]
    results = bench.run_kernel_bench(preset=run["preset"], repeats=run["repeats"])
    out_path = REPO_ROOT / "BENCH_kernels.json"
    bench.write_bench(results, str(out_path))
    emit("Fused-kernel benchmark (BENCH_kernels.json)",
         bench.format_summary(results))

    assert results["schema"] == bench.SCHEMA
    for section in ("train_step", "eval_forward"):
        for path in ("composed", "fused"):
            assert results[section][path]["wall_time_s"] > 0
            assert results[section][path]["tensor_allocs"] > 0
    assert set(results["micro"]) == {
        "softmax", "log_softmax", "cross_entropy", "attention", "layer_norm",
    }
    # The fused path must never regress below the composed reference, and it
    # always materialises strictly fewer tensor temporaries.
    assert results["train_step"]["speedup"] >= 1.0
    assert (results["train_step"]["fused"]["tensor_allocs"]
            < results["train_step"]["composed"]["tensor_allocs"])


@pytest.mark.bench
def test_fused_train_step_not_slower_than_composed():
    # Moved out of tier-1: a wall-clock ratio flakes under host drift and
    # CPU contention.  The allocation half stays in
    # ``tests/test_kernel_regression.py``.
    result = bench.bench_train_step(bench.SMOKE_SHAPES, repeats=5, warmup=2)
    composed = result["composed"]["wall_time_s"]
    fused_time = result["fused"]["wall_time_s"]
    assert fused_time <= composed * 1.0, (
        f"fused train step regressed: {fused_time * 1e3:.2f} ms vs composed "
        f"{composed * 1e3:.2f} ms"
    )
