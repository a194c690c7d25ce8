"""Benchmark harness for the parallel training subsystem.

Times full training runs of a synthetic SASRec workload (ML-1M-scale
shapes) under:

- the single-process :class:`~repro.train.Trainer` (baseline);
- the baseline plus a :class:`~repro.parallel.PrefetchLoader`;
- the :class:`~repro.parallel.DataParallelTrainer` at 1/2/4 workers.

Results — wall seconds, sequences/s, speedup vs. the baseline, and the
final-epoch loss of every configuration (a built-in equivalence check:
the deterministic-forward workload must land on the same loss curve) —
go to ``BENCH_parallel.json`` at the repository root::

    make bench-parallel           # or:
    PYTHONPATH=src python -m repro.parallel.bench --out BENCH_parallel.json

The document also records the machine's CPU budget (``cpu_count`` and the
scheduler affinity mask): data-parallel speedup is bounded by physical
cores, so a 4-worker run on a 1-core container measures synchronisation
overhead, not speedup.  Interpret the numbers against that stamp.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

from repro.models.sasrec import SASRec
from repro.parallel.trainer import DataParallelTrainer
from repro.train.trainer import TrainConfig, Trainer
from repro.utils.bench import environment_info, write_bench
from repro.utils.seeding import temp_seed

SCHEMA = "bench_parallel/v1"

#: ML-1M-scale workload (3416 items, max_len 50) with a
#: dataset large enough for the step loop to dominate process start-up.
DEFAULT_SHAPES = dict(batch_size=128, seq_len=50, vocab=3416, dim=64,
                      num_heads=2, num_layers=2, num_sequences=512, epochs=2)
#: Miniature shapes for CI smoke runs and the tier-1 bench test.
SMOKE_SHAPES = dict(batch_size=32, seq_len=16, vocab=200, dim=32,
                    num_heads=2, num_layers=1, num_sequences=64, epochs=1)

PRESETS = {"default": DEFAULT_SHAPES, "smoke": SMOKE_SHAPES}


def cpu_budget() -> dict:
    """How much CPU the scheduler will actually give this process."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        affinity = None
    return {"cpu_count": os.cpu_count(), "cpu_affinity": affinity}


def synthetic_sequences(shapes: dict) -> list[np.ndarray]:
    """Deterministic variable-length item sequences for the workload."""
    rng = np.random.default_rng(1234)
    lengths = rng.integers(shapes["seq_len"] // 2,
                           int(shapes["seq_len"] * 1.5) + 1,
                           size=shapes["num_sequences"])
    return [rng.integers(1, shapes["vocab"] + 1, size=int(length))
            for length in lengths]


def build_workload(shapes: dict) -> SASRec:
    """Fresh identically-initialised model with training sequences set.

    ``dropout=0.0`` keeps the forward pass deterministic, so every
    configuration in the bench walks the same loss curve and the recorded
    ``final_loss`` doubles as a correctness cross-check.
    """
    with temp_seed(0):
        model = SASRec(num_items=shapes["vocab"], dim=shapes["dim"],
                       max_len=shapes["seq_len"],
                       num_layers=shapes["num_layers"],
                       num_heads=shapes["num_heads"], dropout=0.0)
    model._train_sequences = synthetic_sequences(shapes)
    model._train_batch_size = shapes["batch_size"]
    return model


def _train_config(shapes: dict, **overrides) -> TrainConfig:
    settings = dict(epochs=shapes["epochs"], batch_size=shapes["batch_size"],
                    lr=1e-3, eval_every=10_000, patience=0, seed=0)
    settings.update(overrides)
    return TrainConfig(**settings)


def _run(shapes: dict, **overrides) -> dict:
    """Train one fresh workload under ``overrides``; returns its metrics."""
    model = build_workload(shapes)
    config = _train_config(shapes, **overrides)
    if config.num_workers > 1:
        trainer = DataParallelTrainer(model, config)
    else:
        trainer = Trainer(model, config)
    with temp_seed(0):
        start = time.perf_counter()
        history = trainer.fit()
        seconds = time.perf_counter() - start
    sequences = shapes["num_sequences"] * shapes["epochs"]
    return {
        "workers": config.num_workers,
        "prefetch": config.prefetch,
        "wall_time_s": seconds,
        "seq_per_s": sequences / max(seconds, 1e-12),
        "final_loss": float(history.losses[-1]),
    }


def run_parallel_bench(shapes: dict | None = None, preset: str = "default",
                       workers: list[int] | None = None) -> dict:
    """Run every configuration and return the full results document."""
    shapes = dict(shapes or PRESETS[preset])
    workers = workers or [1, 2, 4]
    baseline = _run(shapes)
    results = {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "preset": preset,
        "shapes": shapes,
        "environment": {**environment_info(), **cpu_budget()},
        "single_process": baseline,
        "single_process_prefetch": _run(shapes, prefetch=2),
        "data_parallel": {},
    }
    for world in workers:
        run = _run(shapes, num_workers=world, prefetch=0)
        run["speedup_vs_single"] = baseline["wall_time_s"] / max(
            run["wall_time_s"], 1e-12)
        run["loss_matches_single"] = bool(
            abs(run["final_loss"] - baseline["final_loss"]) <= 1e-6)
        results["data_parallel"][str(world)] = run
    return results


def format_summary(results: dict) -> str:
    """Human-readable one-line-per-configuration summary."""
    budget = results["environment"]
    lines = [f"parallel bench  preset={results['preset']}  "
             f"cpu_count={budget.get('cpu_count')} "
             f"affinity={budget.get('cpu_affinity')}"]

    def line(label: str, run: dict, speedup: float | None = None) -> str:
        text = (f"  {label:<22} {run['wall_time_s']:8.2f} s  "
                f"{run['seq_per_s']:8.1f} seq/s  "
                f"loss {run['final_loss']:.6f}")
        if speedup is not None:
            text += f"  speedup {speedup:.2f}x"
        return text

    lines.append(line("single-process", results["single_process"]))
    lines.append(line("single + prefetch", results["single_process_prefetch"]))
    for world, run in sorted(results["data_parallel"].items(),
                             key=lambda item: int(item[0])):
        lines.append(line(f"data-parallel x{world}", run,
                          run["speedup_vs_single"]))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_parallel.json",
                        help="output JSON path (default: %(default)s)")
    parser.add_argument("--preset", default="default", choices=sorted(PRESETS),
                        help="shape preset (default: %(default)s)")
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4],
                        help="worker counts to measure (default: 1 2 4)")
    args = parser.parse_args(argv)

    results = run_parallel_bench(preset=args.preset, workers=args.workers)
    write_bench(results, args.out)
    print(format_summary(results))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
