"""Command-line entry point: regenerate any paper table/figure.

Usage::

    python -m repro.experiments table2 [--profiles beauty steam] [--scale 0.6]
    python -m repro.experiments table3
    python -m repro.experiments table5 --epochs 60
    python -m repro.experiments figure2 --profiles beauty
    python -m repro.experiments intents --profiles beauty epinions --jobs 3
    python -m repro.experiments all
"""

from __future__ import annotations

import argparse

from repro.experiments import (
    ExperimentConfig,
    render_table3,
    render_table4,
    run_figure2,
    run_figure3,
    run_figure4,
    run_intent_objectives,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
)

ARTEFACTS = ("table2", "table3", "table4", "table5", "table6",
             "figure2", "figure3", "figure4", "intents")


def main(argv: list[str] | None = None) -> None:
    """Parse CLI args and regenerate the requested artefact(s)."""
    parser = argparse.ArgumentParser(prog="python -m repro.experiments",
                                     description=__doc__)
    parser.add_argument("artefact", choices=ARTEFACTS + ("all",))
    parser.add_argument("--profiles", nargs="+", default=None,
                        help="dataset profiles (default: the paper's choice)")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--dim", type=int, default=48)
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--checkpoint-dir", default=None,
                        help="enable fault tolerance: checkpoint every "
                             "trained model and completed run under this "
                             "directory, and resume a partially completed "
                             "sweep on restart")
    parser.add_argument("--jobs", type=int, default=1,
                        help="train up to N sweep cells in parallel "
                             "processes (default: 1 = serial); results and "
                             "the resume ledger are identical either way — "
                             "see docs/parallelism.md")
    parser.add_argument("--telemetry-dir", default=None,
                        help="enable observability: stream a machine-"
                             "readable <artefact>.telemetry.jsonl file "
                             "(per-step training records, eval latency, run "
                             "results) plus a .summary.json under this "
                             "directory; inspect with `make "
                             "telemetry-report FILE=...`")
    args = parser.parse_args(argv)

    config = ExperimentConfig(dim=args.dim, epochs=args.epochs,
                              eval_every=5, patience=4, seed=args.seed,
                              checkpoint_dir=args.checkpoint_dir,
                              telemetry_dir=args.telemetry_dir)
    artefacts = ARTEFACTS if args.artefact == "all" else (args.artefact,)
    for artefact in artefacts:
        print(f"\n### Regenerating {artefact} ###\n", flush=True)
        if artefact == "table2":
            print(run_table2(profiles=args.profiles, config=config,
                             scale=args.scale, progress=True,
                             jobs=args.jobs).render())
        elif artefact == "table3":
            print(render_table3(run_table3(profiles=args.profiles,
                                           scale=args.scale,
                                           telemetry_dir=args.telemetry_dir)))
        elif artefact == "table4":
            print(render_table4(run_table4(profiles=args.profiles,
                                           scale=args.scale,
                                           telemetry_dir=args.telemetry_dir)))
        elif artefact == "table5":
            print(run_table5(profiles=args.profiles, config=config,
                             scale=args.scale, progress=True,
                             jobs=args.jobs).render())
        elif artefact == "table6":
            print(run_table6(config=config, scale=args.scale,
                             progress=True, jobs=args.jobs).render())
        elif artefact == "figure2":
            print(run_figure2(profiles=args.profiles, config=config,
                              scale=args.scale, progress=True,
                              jobs=args.jobs).render())
        elif artefact == "figure3":
            print(run_figure3(config=config, scale=args.scale,
                              progress=True, jobs=args.jobs).render())
        elif artefact == "figure4":
            print(run_figure4(config=config, scale=args.scale,
                              progress=True, jobs=args.jobs).render())
        elif artefact == "intents":
            print(run_intent_objectives(profiles=args.profiles, config=config,
                                        scale=args.scale, progress=True,
                                        jobs=args.jobs).render())


if __name__ == "__main__":
    main()
