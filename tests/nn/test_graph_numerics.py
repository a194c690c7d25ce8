"""Numerical fidelity of the graph layers to Eq. (10)."""

import numpy as np
import pytest

from repro import nn
from repro.nn.graph import normalized_adjacency
from repro.tensor import Tensor
from repro.utils import set_seed


class TestEquationTen:
    def test_layer_matches_manual_formula(self, rng):
        set_seed(0)
        adjacency = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=np.float32)
        layer = nn.GCNLayer(adjacency, 4, 4, activation=True)
        x = rng.normal(size=(3, 4)).astype(np.float32)

        a_hat = adjacency + np.eye(3, dtype=np.float32)
        degree = a_hat.sum(axis=1)
        normalizer = np.diag(degree ** -0.5)
        manual = normalizer @ a_hat @ normalizer @ x @ layer.weight.data \
            + layer.bias.data
        manual = np.maximum(manual, 0.0)

        out = layer(Tensor(x)).data
        np.testing.assert_allclose(out, manual, rtol=1e-5, atol=1e-6)

    def test_normalization_row_sums_bounded(self, rng):
        adjacency = (rng.random((10, 10)) < 0.3).astype(np.float32)
        adjacency = np.maximum(adjacency, adjacency.T)
        np.fill_diagonal(adjacency, 0)
        norm = normalized_adjacency(adjacency)
        # Symmetric normalisation bounds the spectral radius by 1.
        eigenvalues = np.linalg.eigvalsh(norm.astype(np.float64))
        assert eigenvalues.max() <= 1.0 + 1e-6

    def test_learned_adjacency_matches_fixed_at_saturation(self, rng):
        """With saturated logits the learned graph reduces to the prior."""
        set_seed(0)
        prior = np.array([[0, 1], [1, 0]], dtype=np.float32)
        learned = nn.LearnedAdjacencyGCN(2, 3, num_layers=1,
                                         init_adjacency=prior)
        learned.edge_logits.data[...] = np.where(prior > 0, 50.0, -50.0)
        dense = learned.adjacency().data
        np.testing.assert_allclose(dense, prior, atol=1e-6)

    def test_identity_graph_is_pure_mlp(self, rng):
        """With no edges, GCN propagation reduces to a per-node linear map."""
        set_seed(0)
        layer = nn.GCNLayer(np.zeros((4, 4), dtype=np.float32), 3, 3,
                            activation=False)
        x = rng.normal(size=(4, 3)).astype(np.float32)
        out = layer(Tensor(x)).data
        manual = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(out, manual, rtol=1e-5, atol=1e-6)


class TestLearnedGraphDtype:
    def test_learned_graph_isrec_is_float64_in_a_float64_scope(self, tiny_dataset,
                                                                tiny_split):
        from repro import ISRec, ISRecConfig
        from repro.data.batching import next_item_batches
        from repro.tensor import use_dtype

        with use_dtype(np.float64):
            model = ISRec.from_dataset(
                tiny_dataset, max_len=12,
                config=ISRecConfig(dim=16, graph_mode="learned"))
            for prior in (None, tiny_dataset.concept_space.adjacency):
                gcn = nn.LearnedAdjacencyGCN(tiny_dataset.num_concepts, 4,
                                             init_adjacency=prior)
                assert gcn.edge_logits.dtype == np.float64
        batch = next(next_item_batches(tiny_split.train_sequences(), 12, 32,
                                       np.random.default_rng(0)))
        model.training_loss(batch).backward()
        for name, param in model.named_parameters():
            assert param.data.dtype == np.float64, name
            assert param.grad is not None and param.grad.dtype == np.float64, name
