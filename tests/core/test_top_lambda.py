"""The structured transition's top-lambda operator ``g`` (§3.5).

Concepts outside ``m_t`` all carry the same propagated GCN bias, so their
feature norms tie exactly and the lambda-th and (lambda+1)-th norms are
often equal.  :func:`repro.nn.gumbel.hard_top_k` ranks by
:func:`~repro.nn.gumbel.selection_key`, so a perturbation at float32
rounding scale must leave ``m_{t+1}`` unchanged at every position.

:func:`repro.tensor.fused.norm_top_k` runs norm, ``1/tau`` scale, softmax
and the straight-through output as one tape node; ``composed_top_k`` below,
the form it replaced, is its oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ISRec, ISRecConfig, TrainConfig
from repro.data.batching import next_item_batches
from repro.nn.gumbel import hard_top_k, selection_key
from repro.tensor import Tensor, functional as F, fused, graph_nodes, no_grad
from repro.utils import set_seed


class TestSelectionKey:
    def test_exact_ties_go_to_lowest_index(self):
        scores = np.array([[0.5, 2.0, 0.5, 2.0, 0.5]], dtype=np.float32)
        np.testing.assert_array_equal(hard_top_k(scores, 3), [[1, 1, 0, 1, 0]])

    def test_near_ties_go_to_lowest_index(self):
        scores = np.array([[1.0, 1.0 + 2e-5, 3.0]])
        np.testing.assert_array_equal(hard_top_k(scores, 2), [[1, 0, 1]])

    def test_keys_are_unique_and_follow_the_scores(self):
        scores = np.random.default_rng(0).normal(size=(50, 9))
        keys = selection_key(scores)
        assert all(len(set(row)) == row.size for row in keys)
        np.testing.assert_array_equal(np.argsort(-keys, axis=-1)[:, :3],
                                      np.argsort(-scores, axis=-1)[:, :3])

    @pytest.mark.parametrize("width", [30, 5000])
    def test_float32_and_float64_choose_alike(self, width):
        scores = np.abs(np.random.default_rng(1).normal(size=(20, width)))
        scores[:, 1::2] = scores[:, ::2]  # exact ties, decided by index
        np.testing.assert_array_equal(hard_top_k(scores, 5),
                                      hard_top_k(scores.astype(np.float32), 5))


@pytest.fixture(scope="module")
def trained_transition(tiny_dataset, tiny_split):
    """A briefly trained ISRec and the ``Z_{t+1}`` of one batch."""
    set_seed(2024)
    model = ISRec.from_dataset(tiny_dataset, max_len=12,
                               config=ISRecConfig(dim=16))
    model.fit(tiny_dataset, tiny_split,
              TrainConfig(epochs=1, batch_size=32, lr=3e-3, eval_every=10,
                          patience=0, seed=0))
    model.eval()
    batch = next(next_item_batches(tiny_split.train_sequences(), 12, 64,
                                   np.random.default_rng(0)))
    with no_grad():
        detail = model.forward_detailed(batch[1])
    return model, detail["next_features"].data, detail["next_intention"].data


def test_rounding_scale_perturbation_keeps_next_intention(trained_transition):
    model, features, intention = trained_transition
    norms = np.sqrt((features * features).sum(axis=-1) + 1e-8)
    ranked = -np.sort(-norms, axis=-1)
    lam = model.transition.num_intents
    # The case this guards: many positions tie exactly at the boundary.
    assert (ranked[..., lam - 1] == ranked[..., lam]).sum() >= 50
    rng = np.random.default_rng(0)
    for _ in range(5):
        scale = (1.0 + 6e-8 * rng.standard_normal(features.shape))
        with no_grad():
            perturbed = model.transition.next_intention(
                Tensor(features * scale.astype(features.dtype)))
        np.testing.assert_array_equal(perturbed.data, intention)


def composed_top_k(features: Tensor, k: int, tau: float) -> Tensor:
    norms = ((features * features).sum(axis=-1) + 1e-8).sqrt()
    soft = F.softmax(norms * (1.0 / tau), axis=-1)
    hard = hard_top_k(norms.data, k)
    return soft + Tensor(hard - soft.data)


class TestNormTopKNode:
    @pytest.mark.parametrize("shape", [(2, 3, 7, 4), (11, 7, 4)])
    @pytest.mark.parametrize("tau", [1.0, 0.3])
    def test_matches_composed_float64(self, rng, shape, tau):
        data = rng.standard_normal(shape)
        probe = rng.standard_normal(shape[:-1])
        runs = []
        for path in (fused.norm_top_k, composed_top_k):
            features = Tensor(data.copy(), requires_grad=True)
            out = path(features, 3, tau)
            (out * Tensor(probe)).sum().backward()
            runs.append((out.data, features.grad))
        (out, grad), (oracle_out, oracle_grad) = runs
        np.testing.assert_array_equal(out, np.round(oracle_out))
        np.testing.assert_array_equal(out.sum(axis=-1), 3.0)
        np.testing.assert_allclose(grad, oracle_grad, rtol=0,
                                   atol=1e-12 * np.abs(oracle_grad).max())

    def test_is_one_tape_node(self, rng):
        features = Tensor(rng.standard_normal((4, 7, 3)), requires_grad=True)
        before = graph_nodes()
        fused.norm_top_k(features, 2)
        assert graph_nodes() - before == 1

    def test_float32_stays_float32(self, rng):
        features = Tensor(rng.standard_normal((4, 7, 3)).astype(np.float32),
                          requires_grad=True)
        out = fused.norm_top_k(features, 2)
        out.sum().backward()
        assert out.dtype == np.float32 and features.grad.dtype == np.float32
