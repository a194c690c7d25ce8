"""Structure-aware baselines (KTUP, FM): gradients, serving, registry.

Pins the three contracts ``docs/graph-workloads.md`` promises:

- both models are gradcheck-clean through the fused kernels *and* their
  composed references (KTUP's preference attention goes through
  ``F.softmax``, FM's training loss through the shared cross-entropy) and forward-consistent
  at both float dtypes;
- both export to inference artifacts and serve through
  :class:`~repro.serve.RecommendationEngine` with evaluator-parity — the
  engine's metrics equal the offline model's bitwise;
- both are registered for artifact loading (registry round-trip).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.data import load_dataset, split_leave_one_out
from repro.models import FM, KTUP
from repro.models.base import validation_evaluator
from repro.models.fm import _running_mean_weights
from repro.serve import (
    RecommendationEngine,
    export_artifact,
    load_artifact,
    servable_models,
)
from repro.tensor import gradcheck, use_dtype
from repro.train import TrainConfig
from repro.utils import set_seed


@pytest.fixture(scope="module")
def graph_dataset():
    return load_dataset("beauty-kg", scale=0.35)


@pytest.fixture(scope="module")
def graph_split(graph_dataset):
    return split_leave_one_out(graph_dataset.sequences)


def _promote(model):
    for _, param in model.named_parameters():
        param.data = param.data.astype(np.float64)
    return model


def _tiny_ktup(**overrides):
    triples = np.array([[1, 0, 6], [2, 1, 7], [3, 0, 8], [1, 2, 4]],
                       dtype=np.int64)
    kwargs = dict(num_items=5, kg_triples=triples, num_entities=8,
                  num_relations=3, dim=4, max_len=6)
    kwargs.update(overrides)
    return KTUP(**kwargs)


def _tiny_fm():
    rng = np.random.default_rng(3)
    concepts = rng.random((6, 7)).astype(np.float32)
    concepts[0] = 0.0
    return FM(num_items=5, item_concepts=concepts, dim=4, max_len=6)


class TestRunningMean:
    def test_left_padded_running_mean(self):
        inputs = np.array([[0, 0, 2, 3], [1, 1, 1, 1], [0, 0, 0, 0]])
        weights = _running_mean_weights(inputs)
        values = np.arange(1, 5, dtype=np.float32)[None, :, None]
        means = (weights @ np.broadcast_to(values, (3, 4, 1)))[:, :, 0]
        # Row 0: padding contributes nothing; position 3 averages items 3, 4.
        np.testing.assert_allclose(means[0], [0, 0, 3, 3.5])
        # Row 1: plain running mean 1, 1.5, 2, 2.5.
        np.testing.assert_allclose(means[1], [1, 1.5, 2, 2.5])
        # Row 2: all padding averages to zero.
        np.testing.assert_allclose(means[2], 0)


@pytest.mark.parametrize("dispatch", ["fused", "composed"])
class TestGradcheck:
    @pytest.fixture(autouse=True)
    def _kernels(self, dispatch, request):
        if dispatch == "composed":
            request.getfixturevalue("composed_kernels")

    def test_ktup_sequence_output(self):
        set_seed(0)
        model = _promote(_tiny_ktup())
        inputs = np.array([[0, 1, 2, 3, 1, 5], [0, 0, 0, 4, 4, 2]])
        func = lambda *params: (model.sequence_output(inputs) ** 2).sum()
        params = [model.item_embedding.weight,
                  model.preference_embedding.weight,
                  model.relation_embedding.weight]
        assert gradcheck(func, params, atol=5e-4)

    def test_ktup_kg_loss(self):
        set_seed(0)
        model = _promote(_tiny_ktup(margin=2.0))
        positives = model.kg_triples
        corrupt = np.array([5, 3, 7, 8], dtype=np.int64)
        func = lambda *params: model.kg_loss(positives, corrupt)
        params = [model.item_embedding.weight,
                  model.entity_embedding.weight,
                  model.relation_embedding.weight,
                  model.relation_norm.weight]
        assert gradcheck(func, params, atol=5e-4)

    def test_ktup_training_loss(self):
        set_seed(0)
        model = _promote(_tiny_ktup())
        inputs = np.array([[0, 1, 2, 3, 1, 5]])
        targets = np.array([[1, 2, 3, 1, 5, 4]])
        mask = (inputs > 0).astype(np.float64)
        negatives = np.array([[2, 4]])
        kg = (model.kg_triples, np.array([5, 3, 7, 8], dtype=np.int64))
        batch = (np.array([0]), inputs, targets, mask, negatives, kg)
        func = lambda *params: model.training_loss(batch)
        params = [model.item_embedding.weight,
                  model.preference_embedding.weight]
        assert gradcheck(func, params, atol=5e-4)

    def test_fm_sequence_output(self):
        set_seed(0)
        model = _promote(_tiny_fm())
        inputs = np.array([[0, 1, 2, 3, 1, 5], [0, 0, 0, 4, 4, 2]])
        func = lambda *params: (model.sequence_output(inputs) ** 2).sum()
        params = [model.item_embedding.weight,
                  model.concept_projection.weight]
        assert gradcheck(func, params, atol=5e-4)

    def test_fm_training_loss(self):
        # Exercises the shared fused/composed cross-entropy path.
        set_seed(0)
        model = _promote(_tiny_fm())
        inputs = np.array([[0, 1, 2, 3, 1, 5]])
        targets = np.array([[1, 2, 3, 1, 5, 4]])
        mask = (inputs > 0).astype(np.float64)
        batch = (np.array([0]), inputs, targets, mask)
        func = lambda *params: model.training_loss(batch)
        params = [model.item_embedding.weight,
                  model.concept_projection.weight]
        assert gradcheck(func, params, atol=5e-4)


class TestBackends:
    """Forward pass must agree at both float dtypes."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_forward_consistent(self, dtype):
        inputs = np.array([[0, 1, 2, 3, 1, 5], [0, 0, 0, 4, 4, 2]])
        for build in (_tiny_ktup, _tiny_fm):
            set_seed(0)
            reference = build().sequence_output(inputs).data
            set_seed(0)
            with use_dtype(dtype):
                model = build()
                output = model.sequence_output(inputs).data
            np.testing.assert_allclose(np.asarray(output, dtype=np.float64),
                                       np.asarray(reference, dtype=np.float64),
                                       atol=1e-5)


class TestConstruction:
    def test_from_dataset_requires_graph(self, tiny_dataset):
        with pytest.raises(ValueError, match="knowledge graph"):
            KTUP.from_dataset(tiny_dataset)

    def test_from_graph_dataset(self, graph_dataset):
        model = KTUP.from_dataset(graph_dataset, dim=8, max_len=10)
        assert model.num_entities == graph_dataset.knowledge_graph.num_entities
        assert len(model.kg_triples) == \
            graph_dataset.knowledge_graph.num_triples

    def test_entity_bounds(self):
        with pytest.raises(ValueError, match="num_entities"):
            _tiny_ktup(num_entities=3)

    def test_fm_concept_rows_validated(self):
        with pytest.raises(ValueError, match="rows"):
            FM(num_items=5, item_concepts=np.zeros((3, 7), dtype=np.float32))

    def test_kg_weight_zero_skips_kg_batches(self):
        model = _tiny_ktup(kg_weight=0.0)
        model._train_sequences = [np.array([1, 2, 3, 4, 5], dtype=np.int64)]
        model._train_batch_size = 4
        batch = next(model.training_batches(np.random.default_rng(0)))
        assert batch[-1] is None
        assert np.isfinite(model.training_loss(batch).data)


class TestServing:
    @pytest.fixture(scope="class", params=["KTUP", "FM"])
    def trained(self, request, graph_dataset, graph_split):
        set_seed(0)
        cls = {"KTUP": KTUP, "FM": FM}[request.param]
        model = cls.from_dataset(graph_dataset, dim=16, max_len=10)
        model.fit(graph_dataset, graph_split,
                  TrainConfig(epochs=1, batch_size=32, eval_every=10,
                              patience=0, seed=0))
        model.eval()
        return model

    def test_registered_for_serving(self):
        assert "KTUP" in servable_models()
        assert "FM" in servable_models()

    def test_export_load_round_trip(self, trained, tmp_path):
        path = export_artifact(trained, tmp_path / "model.npz")
        loaded = load_artifact(path)
        assert type(loaded) is type(trained)
        inputs = np.zeros((2, trained.max_len), dtype=np.int64)
        inputs[0, -3:] = [1, 2, 3]
        inputs[1, -1] = 5
        np.testing.assert_array_equal(trained.sequence_output(inputs).data,
                                      loaded.sequence_output(inputs).data)

    def test_served_evaluator_parity(self, trained, tmp_path, graph_dataset,
                                     graph_split):
        path = export_artifact(trained, tmp_path / "model.npz")
        engine = RecommendationEngine(load_artifact(path))
        evaluator = validation_evaluator(graph_dataset, graph_split, seed=5)
        model_report = evaluator.evaluate(trained, stage="test")
        engine_report = evaluator.evaluate(engine, stage="test")
        assert dataclasses.asdict(model_report) == \
            dataclasses.asdict(engine_report)

    def test_recommendations_are_items_only(self, trained):
        """KTUP's attribute entities must never appear in served top-K."""
        engine = RecommendationEngine(trained)
        engine.set_history(0, [1, 2, 3])
        for item, _ in engine.recommend(0, k=10):
            assert 1 <= item <= trained.num_items

    def test_ktup_export_preserves_triples(self, graph_dataset, tmp_path):
        set_seed(0)
        model = KTUP.from_dataset(graph_dataset, dim=8, max_len=10)
        path = export_artifact(model, tmp_path / "ktup.npz")
        loaded = load_artifact(path)
        np.testing.assert_array_equal(loaded.kg_triples, model.kg_triples)
        assert loaded.num_relations == model.num_relations
