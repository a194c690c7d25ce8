"""Benchmark: the intent-objectives sweep.

Shape being reproduced (``docs/training-objectives.md``): the session
evaluation splits into boundary vs within-session groups with boundary
strictly harder on coherent session data.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from repro.experiments import run_intent_objectives

PROFILES = ["epinions", "beauty"]


@pytest.mark.benchmark(group="intents")
def test_intent_objectives_sweep(benchmark, bench_config, bench_scale,
                                 shape_checks):
    outcome = benchmark.pedantic(
        lambda: run_intent_objectives(profiles=PROFILES, config=bench_config,
                                      scale=bench_scale, progress=True),
        rounds=1, iterations=1,
    )
    emit("Intent objectives — baseline vs contrastive vs session eval",
         outcome.render())

    for profile in PROFILES:
        session = outcome.session_report(profile)
        assert session is not None and session["num_boundary"] > 0
    if not shape_checks:
        return
    # Boundary predictions (intent just shifted) are harder than
    # within-session ones on at least one coherent-session profile.
    gaps = []
    for profile in PROFILES:
        session = outcome.session_report(profile)
        if session["boundary"] and session["within"]:
            gaps.append(session["within"]["HR@10"]
                        - session["boundary"]["HR@10"])
    assert gaps and max(gaps) > 0

