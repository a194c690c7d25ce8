"""Golden end-to-end regression: a seeded 2-epoch ISRec run, pinned.

Trains ISRec on the shared synthetic dataset with fixed seeds and compares
the loss curve and the Table 2 ranking metrics against golden values
captured from the same code path (tolerance 1e-6).  Any change anywhere in
the stack that perturbs training numerics — data generation, init,
autograd kernels, the optimizer, negative sampling, evaluation — fails
this test, which is the point: numeric drift must be a conscious decision
(re-pin the goldens in the same PR that explains it).

The trained model is then frozen through the serving exporter and the
evaluation repeated via :class:`repro.serve.RecommendationEngine`, which
must reproduce the golden metrics bit for bit.

A third recipe draws no dropout or Gumbel noise, so a kernel rewrite that
changes the shape of a noise draw cannot move it.  It is pinned in float64 and float32, and the composed
reference kernels must reproduce it too.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import ISRec, ISRecConfig, RankingEvaluator, TrainConfig
from repro.serve import RecommendationEngine, export_artifact, load_artifact
from repro.tensor import use_dtype
from repro.utils import set_seed
from tests.composed import patch_composed

#: Captured from bitwise-equal repeats of this exact recipe.  Re-pinned when
#: training moved to the non-padding positions only: the Gumbel noise of
#: ``m_t`` is now drawn for those rows alone, which changes the random
#: stream.  Without Gumbel noise the same recipe is unchanged by that move
#: (losses within 2e-7, metrics bitwise), because the top-lambda choice is
#: ranked by a key that rounding cannot reorder
#: (:func:`repro.nn.gumbel.selection_key`).
GOLDEN_LOSSES = [4.171533584594727, 4.130359013875325]
GOLDEN_METRICS = {
    "hr10": 0.2808988764044944,
    "ndcg10": 0.13199867478249264,
    "mrr": 0.12149198758356274,
}
#: Same recipe with the intent-contrastive auxiliary loss armed
#: (``contrastive_weight=0.1``).  The loss includes the weighted InfoNCE
#: term, hence the level shift vs ``GOLDEN_LOSSES``.  Re-pinned with
#: ``GOLDEN_LOSSES``, for the same reason.
GOLDEN_CONTRASTIVE_LOSSES = [4.448519070943196, 4.364985942840576]
GOLDEN_CONTRASTIVE_METRICS = {
    "hr10": 0.38202247191011235,
    "ndcg10": 0.15750845689742432,
    "mrr": 0.12055850150963894,
}
TOLERANCE = 1e-6
#: The golden recipe with ``dropout=0.0`` and ``gumbel_noise=False``.  The
#: metrics are the same in both dtypes; the float32 losses are within 2e-7
#: of the float64 ones.
GOLDEN_NOISE_FREE_LOSSES = {
    "float64": [4.166277383463922, 4.117546428636853],
    "float32": [4.1662774085998535, 4.117546558380127],
}
GOLDEN_NOISE_FREE_METRICS = {
    "hr10": 0.3146067415730337,
    "ndcg10": 0.15040286802483108,
    "mrr": 0.13381385767075346,
}
NOISE_FREE_TOLERANCE = {"float64": 1e-9, "float32": 1e-6}


@pytest.fixture(scope="module")
def golden_run(tiny_dataset, tiny_split):
    """One seeded 2-epoch training run shared by every assertion."""
    set_seed(2024)
    model = ISRec.from_dataset(tiny_dataset, max_len=12,
                               config=ISRecConfig(dim=16))
    history = model.fit(
        tiny_dataset, tiny_split,
        TrainConfig(epochs=2, batch_size=32, lr=3e-3, eval_every=10,
                    patience=0, seed=0))
    evaluator = RankingEvaluator(tiny_split, tiny_dataset.num_items,
                                 num_negatives=40, seed=0,
                                 popularity=tiny_dataset.item_popularity())
    report = evaluator.evaluate(model, stage="test")
    return model, history, evaluator, report


class TestGoldenRun:
    def test_loss_curve_pinned(self, golden_run):
        _model, history, _evaluator, _report = golden_run
        assert len(history.losses) == len(GOLDEN_LOSSES)
        np.testing.assert_allclose(history.losses, GOLDEN_LOSSES,
                                   rtol=0, atol=TOLERANCE)

    def test_ranking_metrics_pinned(self, golden_run):
        _model, _history, _evaluator, report = golden_run
        np.testing.assert_allclose(
            [report.hr10, report.ndcg10, report.mrr],
            [GOLDEN_METRICS["hr10"], GOLDEN_METRICS["ndcg10"],
             GOLDEN_METRICS["mrr"]],
            rtol=0, atol=TOLERANCE)

    def test_metrics_are_nontrivial(self, golden_run):
        """Guard the goldens themselves: training actually learned."""
        _model, history, _evaluator, report = golden_run
        assert history.losses[1] < history.losses[0]
        assert report.hr10 > 0.1
        assert 0.0 < report.mrr < report.hr10

    def test_served_model_reproduces_golden_metrics(self, golden_run,
                                                    tiny_split, tmp_path):
        model, _history, evaluator, report = golden_run
        artifact = export_artifact(model, tmp_path / "golden.npz")
        engine = RecommendationEngine(load_artifact(artifact))
        served_report = evaluator.evaluate(engine, stage="test")
        assert dataclasses.asdict(served_report) == dataclasses.asdict(report)


@pytest.fixture(scope="module")
def golden_contrastive_run(tiny_dataset, tiny_split):
    """The golden recipe with the intent-contrastive objective armed."""
    set_seed(2024)
    model = ISRec.from_dataset(tiny_dataset, max_len=12,
                               config=ISRecConfig(dim=16))
    history = model.fit(
        tiny_dataset, tiny_split,
        TrainConfig(epochs=2, batch_size=32, lr=3e-3, eval_every=10,
                    patience=0, seed=0, contrastive_weight=0.1))
    evaluator = RankingEvaluator(tiny_split, tiny_dataset.num_items,
                                 num_negatives=40, seed=0,
                                 popularity=tiny_dataset.item_popularity())
    report = evaluator.evaluate(model, stage="test")
    return model, history, evaluator, report


class TestGoldenContrastiveRun:
    def test_loss_curve_pinned(self, golden_contrastive_run):
        _model, history, _evaluator, _report = golden_contrastive_run
        assert len(history.losses) == len(GOLDEN_CONTRASTIVE_LOSSES)
        np.testing.assert_allclose(history.losses, GOLDEN_CONTRASTIVE_LOSSES,
                                   rtol=0, atol=TOLERANCE)

    def test_ranking_metrics_pinned(self, golden_contrastive_run):
        _model, _history, _evaluator, report = golden_contrastive_run
        np.testing.assert_allclose(
            [report.hr10, report.ndcg10, report.mrr],
            [GOLDEN_CONTRASTIVE_METRICS["hr10"],
             GOLDEN_CONTRASTIVE_METRICS["ndcg10"],
             GOLDEN_CONTRASTIVE_METRICS["mrr"]],
            rtol=0, atol=TOLERANCE)

    def test_objective_actually_differs_from_baseline(self,
                                                      golden_contrastive_run):
        """The aux loss must change training (else the golden is vacuous),
        while weight 0 (the default) keeps ``GOLDEN_LOSSES`` pinned above."""
        _model, history, _evaluator, _report = golden_contrastive_run
        assert abs(history.losses[0] - GOLDEN_LOSSES[0]) > 1e-3

    def test_served_contrastive_model_is_bit_identical(
            self, golden_contrastive_run, tmp_path):
        """The contrastive-trained weights serve bit-identically: training
        objectives change learning, never the serving path."""
        model, _history, evaluator, report = golden_contrastive_run
        artifact = export_artifact(model, tmp_path / "golden-contrastive.npz")
        engine = RecommendationEngine(load_artifact(artifact))
        served_report = evaluator.evaluate(engine, stage="test")
        assert dataclasses.asdict(served_report) == dataclasses.asdict(report)


@pytest.fixture(scope="module",
                params=[("float64", "fused"), ("float32", "fused"),
                        ("float64", "composed"), ("float32", "composed")],
                ids=lambda param: "-".join(param))
def golden_noise_free_run(request, tiny_dataset, tiny_split):
    """The golden recipe without dropout or Gumbel noise, in one dtype,
    through the fused kernels or the composed references."""
    dtype, path = request.param
    with use_dtype(dtype), pytest.MonkeyPatch.context() as monkeypatch:
        if path == "composed":
            patch_composed(monkeypatch)
        set_seed(2024)
        model = ISRec.from_dataset(
            tiny_dataset, max_len=12,
            config=ISRecConfig(dim=16, dropout=0.0, gumbel_noise=False))
        history = model.fit(
            tiny_dataset, tiny_split,
            TrainConfig(epochs=2, batch_size=32, lr=3e-3, eval_every=10,
                        patience=0, seed=0))
        evaluator = RankingEvaluator(tiny_split, tiny_dataset.num_items,
                                     num_negatives=40, seed=0,
                                     popularity=tiny_dataset.item_popularity())
        report = evaluator.evaluate(model, stage="test")
    return dtype, path, model, history, evaluator, report


class TestGoldenNoiseFreeRun:
    def test_loss_curve_pinned(self, golden_noise_free_run):
        dtype, _path, _model, history, _evaluator, _report = golden_noise_free_run
        np.testing.assert_allclose(history.losses,
                                   GOLDEN_NOISE_FREE_LOSSES[dtype],
                                   rtol=0, atol=NOISE_FREE_TOLERANCE[dtype])

    def test_ranking_metrics_pinned(self, golden_noise_free_run):
        dtype, _path, _model, _history, _evaluator, report = golden_noise_free_run
        np.testing.assert_allclose(
            [report.hr10, report.ndcg10, report.mrr],
            [GOLDEN_NOISE_FREE_METRICS["hr10"],
             GOLDEN_NOISE_FREE_METRICS["ndcg10"],
             GOLDEN_NOISE_FREE_METRICS["mrr"]],
            rtol=0, atol=NOISE_FREE_TOLERANCE[dtype])

    def test_trained_in_its_dtype(self, golden_noise_free_run):
        dtype, _path, model, _history, _evaluator, _report = golden_noise_free_run
        assert {p.data.dtype.name for p in model.parameters()} == {dtype}

    def test_served_model_reproduces_metrics(self, golden_noise_free_run,
                                             tmp_path):
        dtype, _path, model, _history, evaluator, report = golden_noise_free_run
        artifact = export_artifact(model, tmp_path / f"noise-free-{dtype}.npz")
        engine = RecommendationEngine(load_artifact(artifact))
        with use_dtype(dtype):
            served_report = evaluator.evaluate(engine, stage="test")
        assert dataclasses.asdict(served_report) == dataclasses.asdict(report)
