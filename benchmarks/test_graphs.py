"""Benchmark: knowledge-graph emission cost.

Shape being reproduced (``docs/graph-workloads.md``): layering an item
knowledge graph on the simulator must be a cheap add-on — the sampler draws
from a dedicated RNG stream and never touches the interaction loop.  The
generation-cost measurements land in the committed ``BENCH_graphs.json``
at the repo root.
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys
import time

import numpy as np
import pytest

from benchmarks.conftest import emit, preset_name
from repro.data import load_dataset

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

SCHEMA = "bench_graphs/v2"

#: (plain base profile, graph-bearing variant) timed against each other.
PAIR = ("beauty", "beauty-kg-dense")


def _timed_generation(profile: str, scale: float, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        load_dataset(profile, scale=scale, cache=False)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.benchmark(group="graphs")
def test_graph_generation_cost(benchmark, bench_scale):
    """Graph emission overhead over the legacy generator, recorded as the
    committed ``BENCH_graphs.json`` baseline."""
    repeats = 2 if preset_name() == "smoke" else 3
    plain_s = _timed_generation(PAIR[0], bench_scale, repeats)
    graphed_s = benchmark.pedantic(
        lambda: _timed_generation(PAIR[1], bench_scale, repeats),
        rounds=1, iterations=1)
    overhead = graphed_s / plain_s if plain_s > 0 else float("inf")

    dataset = load_dataset(PAIR[1], scale=bench_scale)
    stats = dataset.graph_statistics()
    payload = {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "preset": preset_name(),
        "profiles": {"plain": PAIR[0], "graphed": PAIR[1]},
        "scale": bench_scale,
        "generation": {
            "plain_s": plain_s,
            "graphed_s": graphed_s,
            "overhead_ratio": overhead,
        },
        "graph_stats": {
            "num_entities": stats.num_entities,
            "num_relations": stats.num_relations,
            "num_triples": stats.num_triples,
            "triples_per_item": stats.triples_per_item,
        },
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
    }
    out_path = REPO_ROOT / "BENCH_graphs.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    emit("Graph emission cost (BENCH_graphs.json)",
         f"{PAIR[0]}: {plain_s:.3f}s   {PAIR[1]}: {graphed_s:.3f}s   "
         f"overhead {overhead:.2f}x   ({stats.num_triples} triples)")

    assert stats.num_triples > 0
    # Emission + 5-core remapping must stay a modest add-on to generation.
    assert overhead < 2.0

