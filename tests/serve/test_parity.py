"""Train/serve parity: the serving stack must reproduce the offline
evaluation bit for bit and never touch the autograd tape.

The engine implements the evaluator's ``score`` protocol with the exact
arithmetic of ``SequenceRecommender.score`` (same expression, same batch
shapes), so ``RankingEvaluator.evaluate(engine)`` and raw score arrays
must be *bitwise* equal to the training-side model — including seen-item
suppression semantics and left-padded short histories.  Every request
must also allocate zero autograd graph nodes
(:func:`repro.tensor.graph_nodes`).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import ISRecConfig
from repro.core.isrec import ISRec
from repro.data.batching import evaluation_inputs, pad_left
from repro.models.base import validation_evaluator
from repro.serve import RecommendationEngine, export_artifact, load_artifact
from repro.tensor.tensor import graph_nodes, no_grad
from repro.utils import set_seed


@pytest.fixture(scope="module")
def evaluator(tiny_dataset, tiny_split):
    return validation_evaluator(tiny_dataset, tiny_split, seed=5)


class TestEvaluatorParity:
    def test_reports_bitwise_identical(self, frozen_model, engine, evaluator):
        model_report = evaluator.evaluate(frozen_model, stage="test")
        engine_report = evaluator.evaluate(engine, stage="test")
        assert dataclasses.asdict(model_report) == dataclasses.asdict(engine_report)

    def test_raw_scores_bitwise_identical(self, frozen_model, engine,
                                          evaluator, tiny_split):
        inputs, _ = evaluation_inputs(tiny_split, "test", frozen_model.max_len)
        candidates = evaluator.candidates("test")
        users = np.arange(tiny_split.num_users)
        model_scores = frozen_model.score(users, inputs, candidates)
        engine_scores = engine.score(users, inputs, candidates)
        np.testing.assert_array_equal(model_scores, engine_scores)

    def test_short_padded_sequences_bitwise(self, frozen_model, engine, rng):
        # Histories shorter than max_len exercise the left-padding path.
        lengths = [1, 2, 5, frozen_model.max_len]
        histories = [rng.integers(1, frozen_model.num_items + 1, size=length)
                     for length in lengths]
        inputs = pad_left(histories, frozen_model.max_len)
        assert (inputs[:, 0] == 0).sum() >= 3  # genuinely padded rows
        candidates = rng.integers(1, frozen_model.num_items + 1,
                                  size=(len(lengths), 9))
        users = np.arange(len(lengths))
        np.testing.assert_array_equal(
            frozen_model.score(users, inputs, candidates),
            engine.score(users, inputs, candidates))


class TestRecommendParity:
    def _reference_topk(self, model, history, k, filter_seen):
        """Independent full-vocabulary reference for engine.recommend."""
        inputs = pad_left([np.asarray(history, dtype=np.int64)], model.max_len)
        with no_grad():
            states = model.sequence_output(inputs)
        last = np.ascontiguousarray(np.asarray(states.data)[0, -1, :])
        scores = (model.item_embedding.weight.data @ last).astype(np.float64)
        scores[0] = -np.inf
        if filter_seen:
            seen = np.unique(np.asarray(history, dtype=np.int64))
            scores[seen[(seen > 0) & (seen < len(scores))]] = -np.inf
        order = np.lexsort((np.arange(len(scores)), -scores))[:k]
        return [(int(item), float(scores[item])) for item in order
                if np.isfinite(scores[item])]

    @pytest.mark.parametrize("filter_seen", [True, False])
    def test_topk_matches_full_sort_reference(self, frozen_model, engine,
                                              filter_seen):
        for user in (0, 1, 17):
            expected = self._reference_topk(frozen_model,
                                            engine.history(user), 10,
                                            filter_seen)
            actual = engine.recommend(user, k=10, filter_seen=filter_seen)
            assert actual == expected

    def test_short_history_topk(self, frozen_model, engine):
        engine.set_history(777, [3])
        expected = self._reference_topk(frozen_model, [3], 5, True)
        assert engine.recommend(777, k=5) == expected


class TestZeroGraphNodes:
    def test_recommend_allocates_no_graph_nodes(self, engine):
        engine.recommend(0, k=5)  # warm everything (imports, caches)
        engine._states.pop(1, None)
        before = graph_nodes()
        engine.recommend(1, k=5)   # cold: full forward
        engine.recommend(1, k=5)   # warm: cached state
        assert graph_nodes() - before == 0

    def test_engine_score_allocates_no_graph_nodes(self, engine, rng):
        inputs = rng.integers(1, engine.model.num_items + 1, size=(4, 12))
        candidates = rng.integers(1, engine.model.num_items + 1, size=(4, 7))
        engine.score(np.arange(4), inputs, candidates)  # warm
        before = graph_nodes()
        engine.score(np.arange(4), inputs, candidates)
        assert graph_nodes() - before == 0

    def test_training_forward_does_allocate(self, frozen_model, rng):
        # Sanity: the counter actually counts on the training path.
        inputs = rng.integers(1, frozen_model.num_items + 1, size=(2, 12))
        before = graph_nodes()
        frozen_model.sequence_output(inputs)
        assert graph_nodes() - before > 0


class TestTrainModeExportRegression:
    """A model exported in train mode must serve deterministically: dropout
    and Gumbel noise are forced off by load_artifact (eval) and hard-disabled
    by inference_mode either way."""

    @pytest.fixture(scope="class")
    def train_mode_artifact(self, tiny_dataset, tmp_path_factory):
        set_seed(42)
        model = ISRec.from_dataset(tiny_dataset, max_len=12,
                                   config=ISRecConfig(dim=16, dropout=0.5))
        model.train()  # the buggy hand-off: exporter gets a train-mode model
        path = export_artifact(
            model, tmp_path_factory.mktemp("trainmode") / "m.npz")
        return model, path

    def test_served_requests_deterministic(self, train_mode_artifact):
        _model, path = train_mode_artifact
        loaded = load_artifact(path)
        engine = RecommendationEngine(loaded)
        engine.set_history(0, [1, 2, 3])
        first = engine.recommend(0, k=10)
        engine._states.clear()  # force a fresh forward pass
        assert engine.recommend(0, k=10) == first

    def test_served_scores_match_eval_mode_model(self, train_mode_artifact,
                                                 rng):
        model, path = train_mode_artifact
        loaded = load_artifact(path)
        engine = RecommendationEngine(loaded)
        model.eval()  # the correct offline reference
        inputs = rng.integers(1, model.num_items + 1, size=(3, 12))
        candidates = rng.integers(1, model.num_items + 1, size=(3, 8))
        np.testing.assert_array_equal(
            model.score(np.arange(3), inputs, candidates),
            engine.score(np.arange(3), inputs, candidates))
