"""Experiment runners — one per table/figure of the paper's evaluation.

=================  =====================================================
Runner             Paper artefact
=================  =====================================================
:func:`run_table2` Table 2 — overall comparison (11 models x 5 datasets)
:func:`run_table3` Table 3 — dataset statistics
:func:`run_table4` Table 4 — concept statistics
:func:`run_table5` Table 5 — ablation study
:func:`run_table6` Table 6 — max sequence length sensitivity
:func:`run_figure2` Fig. 2 — intent transition showcases
:func:`run_figure3` Fig. 3 — intent dimensionality d' sweep
:func:`run_figure4` Fig. 4 — activated intents lambda sweep
=================  =====================================================

Beyond the paper's artefacts, :func:`run_intent_objectives` sweeps the
training-objective variants of ``docs/training-objectives.md`` (baseline
vs intent-contrastive vs session-aware evaluation).
"""

from repro.experiments.common import (
    ABLATION_NAMES,
    MODEL_NAMES,
    ExperimentConfig,
    RunResult,
    SweepState,
    build_model,
    fast_config,
    prepare,
    run_model,
    run_model_seeds,
    telemetry_scope,
)
from repro.experiments import report
from repro.experiments.figure2 import Figure2Result, run_figure2
from repro.experiments.objectives import (
    IntentObjectivesResult,
    run_intent_objectives,
)
from repro.experiments.figure3 import SweepResult, run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.table2 import Table2Result, run_table2
from repro.experiments.table3 import render_table3, run_table3
from repro.experiments.table4 import render_table4, run_table4
from repro.experiments.table5 import Table5Result, run_table5
from repro.experiments.table6 import Table6Result, run_table6

__all__ = [
    "MODEL_NAMES", "ABLATION_NAMES",
    "ExperimentConfig", "RunResult", "SweepState", "build_model", "run_model",
    "prepare", "telemetry_scope",
    "run_model_seeds",
    "fast_config",
    "run_table2", "Table2Result",
    "run_table3", "render_table3",
    "run_table4", "render_table4",
    "run_table5", "Table5Result",
    "run_table6", "Table6Result",
    "run_figure2", "Figure2Result",
    "report",
    "run_figure3", "run_figure4", "SweepResult",
    "run_intent_objectives", "IntentObjectivesResult",
]
