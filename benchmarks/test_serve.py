"""Serving benchmark: regenerates ``BENCH_serve.json`` at the repo root.

Freezes an ISRec-sized model into an inference artifact, then measures the
single-request path (training-forward baseline vs. cold vs. warm serving;
see ``repro/serve/bench.py`` and ``docs/serving.md``).  The workload follows
``REPRO_BENCH``: ``smoke`` runs miniature shapes as a plumbing check;
``standard``/``full`` run the default ISRec-sized shapes recorded in the
committed ``BENCH_serve.json``.
"""

from __future__ import annotations

import pathlib

import pytest

from benchmarks.conftest import emit, preset_name
from repro.serve import bench

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

RUNS = {
    "smoke": dict(preset="smoke", repeats=3),
    "standard": dict(preset="default", repeats=5),
    "full": dict(preset="default", repeats=9),
}


@pytest.mark.bench
def test_serve_bench_records_baseline():
    run = RUNS[preset_name()]
    results = bench.run_serve_bench(preset=run["preset"], repeats=run["repeats"])
    out_path = REPO_ROOT / "BENCH_serve.json"
    bench.write_bench(results, str(out_path))
    emit("Serving benchmark (BENCH_serve.json)", bench.format_summary(results))

    assert results["schema"] == bench.SCHEMA
    single = results["single_request"]
    # A serve request must never build an autograd tape.
    assert single["graph_nodes_per_request"] == 0
    # Acceptance floor: single-request scoring at least 2x faster than
    # pushing the request through the training-path forward.
    assert single["speedup"] >= 2.0
    assert single["serve_warm"]["wall_time_s"] < single["serve_cold"]["wall_time_s"]
