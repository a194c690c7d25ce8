"""The assembled ISRec model, its config, variants, and explainability."""

import numpy as np
import pytest

from repro.core import (
    ISRec,
    ISRecConfig,
    IntentTracer,
    VARIANT_NAMES,
    build_variant,
    variant_config,
)
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, no_grad, use_dtype
from repro.train import TrainConfig
from repro.utils import set_seed


class TestConfig:
    def test_defaults_valid(self):
        config = ISRecConfig()
        assert config.similarity == "cosine"
        assert config.use_gnn and config.use_intent

    def test_invalid_similarity(self):
        with pytest.raises(ValueError):
            ISRecConfig(similarity="manhattan")

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            ISRecConfig(num_intents=0)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            ISRecConfig(tau=-1.0)

    def test_gnn_requires_intent(self):
        with pytest.raises(ValueError):
            ISRecConfig(use_intent=False, use_gnn=True)


class TestModel:
    def test_from_dataset_builds(self, tiny_dataset):
        model = ISRec.from_dataset(tiny_dataset, max_len=8,
                                   config=ISRecConfig(dim=16))
        assert model.num_concepts == tiny_dataset.num_concepts
        assert model.item_embedding.num_embeddings == tiny_dataset.num_items + 1

    def test_shape_mismatch_rejected(self, tiny_dataset):
        bad_adjacency = np.eye(tiny_dataset.num_concepts + 1, dtype=np.float32)
        with pytest.raises(ValueError):
            ISRec(tiny_dataset.num_items, tiny_dataset.item_concepts,
                  bad_adjacency)

    def test_forward_detailed_keys(self, tiny_dataset):
        model = ISRec.from_dataset(tiny_dataset, max_len=8,
                                   config=ISRecConfig(dim=16))
        model.eval()
        detail = model.forward_detailed(np.ones((2, 8), dtype=np.int64))
        for key in ("states", "similarities", "intention", "next_features",
                    "next_intention", "output"):
            assert key in detail
        assert detail["output"].shape == (2, 8, 16)
        lam = min(ISRecConfig().num_intents, tiny_dataset.num_concepts)
        np.testing.assert_array_equal(detail["intention"].data.sum(axis=-1), lam)

    def test_sequence_output_shape(self, tiny_dataset):
        model = ISRec.from_dataset(tiny_dataset, max_len=8,
                                   config=ISRecConfig(dim=16))
        assert model.sequence_output(
            np.zeros((3, 8), dtype=np.int64)).shape == (3, 8, 16)

    def test_training_decreases_loss(self, tiny_dataset, tiny_split):
        set_seed(0)
        model = ISRec.from_dataset(tiny_dataset, max_len=8,
                                   config=ISRecConfig(dim=16))
        history = model.fit(tiny_dataset, tiny_split,
                            TrainConfig(epochs=5, eval_every=10, patience=0))
        assert history.losses[-1] < history.losses[0]

    def test_parameters_not_duplicated(self, tiny_dataset):
        """The shared item embedding must be registered exactly once."""
        model = ISRec.from_dataset(tiny_dataset, max_len=8,
                                   config=ISRecConfig(dim=16))
        names = [name for name, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        embedding_entries = [n for n in names if n.endswith("item_embedding.weight")]
        assert len(embedding_entries) == 1

    def test_no_residual_option(self, tiny_dataset):
        model = ISRec.from_dataset(tiny_dataset, max_len=8,
                                   config=ISRecConfig(dim=16), residual=False)
        model.eval()
        detail = model.forward_detailed(np.ones((1, 8), dtype=np.int64))
        # Without the residual the output is the pure decoded intent state.
        assert not np.allclose(detail["output"].data, detail["states"].data)

    def test_lambda_clamped_to_vocabulary(self, tiny_dataset):
        huge = ISRecConfig(dim=16, num_intents=10_000)
        model = ISRec.from_dataset(tiny_dataset, max_len=8, config=huge)
        model.eval()
        detail = model.forward_detailed(np.ones((1, 8), dtype=np.int64))
        np.testing.assert_array_equal(detail["intention"].data.sum(axis=-1),
                                      tiny_dataset.num_concepts)


def _constant_tensors(module: Module, prefix: str = ""):
    """``(name, tensor)`` of every non-parameter tensor a module holds."""
    for name, value in vars(module).items():
        if isinstance(value, Tensor) and not isinstance(value, Parameter):
            yield prefix + name, value
    for name, child in module._modules.items():
        yield from _constant_tensors(child, f"{prefix}{name}.")


class TestFloat64Model:
    """A model built under ``use_dtype(float64)`` holds no float32 tensor,
    so no part of Eq. (1)-(13) is rounded to float32 on the way (the
    learned graph is covered in ``tests/nn/test_graph_numerics.py``)."""

    def test_parameters_and_constants_are_float64(self, tiny_dataset):
        with use_dtype(np.float64):
            model = ISRec.from_dataset(tiny_dataset, max_len=8,
                                       config=ISRecConfig(dim=16))
        constants = dict(_constant_tensors(model))
        assert "transition.gcn.layers.0.adjacency" in constants
        for name, tensor in constants.items():
            assert tensor.data.dtype == np.float64, name
        for name, parameter in model.named_parameters():
            assert parameter.data.dtype == np.float64, name


class TestLastOutput:
    """``last_output`` runs the intent head on the final position only and
    must agree with the full pass's final row.  At B=1 the length-1 matrix
    products take a different BLAS path (about 1 ULP apart); from B=7 up the
    rows are bitwise equal."""

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6),
                                             (np.float64, 1e-12)])
    @pytest.mark.parametrize("batch", [1, 7, 256])
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_matches_final_row_of_sequence_output(self, tiny_dataset, dtype,
                                                  rtol, batch, variant):
        with use_dtype(dtype):
            set_seed(3)
            model = build_variant(variant, tiny_dataset, max_len=12,
                                  base_config=ISRecConfig(dim=16))
        model.eval()
        rng = np.random.default_rng(batch)
        inputs = rng.integers(1, tiny_dataset.num_items + 1, size=(batch, 12))
        inputs[::2, :4] = 0  # left padding on every other row
        with no_grad():
            last = model.last_output(inputs).data
            full = model.sequence_output(inputs).data[:, -1]
        assert last.shape == (batch, 16) and last.dtype == dtype
        if batch == 1:
            np.testing.assert_allclose(last, full, rtol=rtol,
                                       atol=rtol * np.abs(full).max())
        else:
            np.testing.assert_array_equal(last, full)


class TestVariants:
    def test_variant_names(self):
        assert VARIANT_NAMES == ("isrec", "w/o GNN", "w/o GNN&Intent")

    def test_variant_configs(self):
        full = variant_config("isrec")
        assert full.use_gnn and full.use_intent
        no_gnn = variant_config("w/o GNN")
        assert not no_gnn.use_gnn and no_gnn.use_intent
        plain = variant_config("w/o GNN&Intent")
        assert not plain.use_gnn and not plain.use_intent

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            variant_config("w/o everything")

    def test_wo_gnn_intent_output_equals_states(self, tiny_dataset):
        model = build_variant("w/o GNN&Intent", tiny_dataset, max_len=8,
                              base_config=ISRecConfig(dim=16))
        model.eval()
        detail = model.forward_detailed(np.ones((1, 8), dtype=np.int64))
        np.testing.assert_array_equal(detail["output"].data,
                                      detail["states"].data)

    def test_wo_gnn_has_no_gcn_parameters(self, tiny_dataset):
        model = build_variant("w/o GNN", tiny_dataset, max_len=8,
                              base_config=ISRecConfig(dim=16))
        assert all("gcn" not in name for name, _ in model.named_parameters())

    def test_full_variant_named_isrec(self, tiny_dataset):
        model = build_variant("isrec", tiny_dataset, max_len=8,
                              base_config=ISRecConfig(dim=16))
        assert model.name == "ISRec"


class TestExplainability:
    @pytest.fixture()
    def trained(self, tiny_dataset, tiny_split):
        set_seed(0)
        model = ISRec.from_dataset(tiny_dataset, max_len=8,
                                   config=ISRecConfig(dim=16))
        model.fit(tiny_dataset, tiny_split,
                  TrainConfig(epochs=2, eval_every=10, patience=0))
        return model

    def test_trace_structure(self, trained, tiny_dataset):
        tracer = IntentTracer(trained, tiny_dataset, num_candidates=4,
                              num_recommendations=2)
        trace = tracer.trace(user=0)
        sequence = tiny_dataset.sequences[0][-trained.max_len:]
        assert len(trace.steps) == len(sequence)
        for step, item in zip(trace.steps, sequence):
            assert step.item == int(item)
            assert len(step.candidate_intents) == 4
            assert len(step.top_recommendations) == 2
            lam = min(ISRecConfig().num_intents, tiny_dataset.num_concepts)
            assert len(step.activated_intents) == lam
            assert len(step.next_intents) == lam
            for name in step.activated_intents + step.next_intents:
                assert name in tiny_dataset.concept_space.names

    def test_trace_render_readable(self, trained, tiny_dataset):
        tracer = IntentTracer(trained, tiny_dataset)
        text = tracer.trace(user=1).render()
        assert "activated intents" in text
        assert "next intents" in text
        assert "recommends" in text

    def test_tracer_rejects_intentless_model(self, tiny_dataset):
        plain = build_variant("w/o GNN&Intent", tiny_dataset, max_len=8,
                              base_config=ISRecConfig(dim=16))
        with pytest.raises(ValueError):
            IntentTracer(plain, tiny_dataset)

    def test_trace_custom_sequence(self, trained, tiny_dataset):
        tracer = IntentTracer(trained, tiny_dataset)
        custom = np.array([1, 2, 3])
        trace = tracer.trace(user=0, sequence=custom)
        assert [step.item for step in trace.steps] == [1, 2, 3]
