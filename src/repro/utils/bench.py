"""Helpers shared by the benchmark harnesses.

Every ``BENCH_*.json`` writer (``repro.serve.bench``, ``repro.serve.loadgen``,
``repro.parallel.bench``, ``repro.online.bench``,
``repro.utils.bench_backends``) stamps its document with
:func:`environment_info`, times with :func:`measure` and writes with
:func:`write_bench`.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Callable

import numpy as np

from repro.tensor.tensor import tensor_allocs

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


def write_bench(results: dict, path: str) -> None:
    """Write a results document as indented JSON (trailing newline)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
