"""Run one workload of the ISRec benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload train --seed 0 --seconds 8 --trace 0

Before numpy is imported the run pins BLAS to one thread and the process
to one CPU; the serving worker forks from it and inherits both.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  The exit code
is 0 when every correctness check passed, 1 when one failed and 2 when the
run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# Spelled out rather than imported: the workloads module imports numpy,
# which must wait until the BLAS thread count is pinned.
WORKLOAD_NAMES = ("train", "serve-hot", "serve-fresh")
#: Scratch space for artifacts, inside the checkout and removed after a run.
WORK_DIRECTORY = ROOT / ".perfbench_tmp"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def steady_environment() -> dict:
    """One BLAS thread, one CPU; returns what was set, for the record."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread "
                           "count could be pinned")
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[0]
    os.sched_setaffinity(0, {cpu})
    return {"nproc": os.cpu_count(), "allowed_cpus": allowed,
            "pinned_cpu": cpu,
            "threads": {variable: os.environ[variable]
                        for variable in THREAD_VARIABLES}}


def library_versions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    environment = steady_environment()
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    environment.update(library_versions())

    from perfbench import workloads

    WORK_DIRECTORY.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIRECTORY))
    try:
        result = workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIRECTORY.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.trace:
        values, units = result.per_layer, workloads.PER_LAYER_UNITS
    else:
        values, units = result.end_to_end, workloads.END_TO_END_UNITS
    print("environment " + json.dumps(environment, sort_keys=True))
    print("outcomes " + json.dumps(result.outcomes.as_dict()))
    for problem in result.problems:
        print(f"problem: {problem}")
    for name in units:
        print(f"{name:32s} {values[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.outcomes.attempted,
        "failed": result.outcomes.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
