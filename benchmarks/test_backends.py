"""Precision benchmark: regenerates ``BENCH_backends.json`` at the root.

Exercises every claim of ``repro/utils/bench_backends.py`` (see
``docs/performance.md``): the float32-vs-float64 fused train step, the
int8-quantized artifact served next to the exact one (top-10 overlap,
ranking parity, size), and the GEMV dtype ladder.  The workload
follows ``REPRO_BENCH``: ``smoke`` runs miniature shapes as a plumbing
check; ``standard``/``full`` run the default ISRec-sized shapes recorded
in the committed ``BENCH_backends.json``.
"""

from __future__ import annotations

import pathlib

import pytest

from benchmarks.conftest import emit, preset_name
from repro.utils import bench_backends

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

RUNS = {
    "smoke": dict(preset="smoke", repeats=3),
    "standard": dict(preset="default", repeats=5),
    "full": dict(preset="default", repeats=9),
}


@pytest.mark.bench
def test_backend_bench_records_baseline():
    run = RUNS[preset_name()]
    results = bench_backends.run_backend_bench(
        preset=run["preset"], repeats=run["repeats"])
    out_path = REPO_ROOT / "BENCH_backends.json"
    bench_backends.write_bench(results, str(out_path))
    emit("Backend benchmark (BENCH_backends.json)",
         bench_backends.format_summary(results))

    assert results["schema"] == bench_backends.SCHEMA
    train, serve = results["train_step"], results["serve"]
    # Reduced precision must actually pay on the fused train step.  The 2x
    # acceptance floor holds at the ISRec-sized default shapes; smoke
    # shapes are too small for BLAS to amortise, so only sanity-check
    # there.
    floor = 2.0 if run["preset"] == "default" else 1.0
    assert train["speedup_f32_vs_f64"] >= floor
    # The int8 artifact must agree with the exact one: top-10 overlap and
    # ranking-metric parity.
    assert serve["topk_overlap"]["int8_dequant"]["mean"] >= 0.9
    parity = serve["ranking_metrics"]["abs_diff_dequant"]  # {hr@k, ndcg@k}
    assert all(diff <= 0.02 for diff in parity.values())
    # The quantized artifact is materially smaller than the float one.
    assert serve["artifact_bytes"]["int8"] < serve["artifact_bytes"]["float32"]
