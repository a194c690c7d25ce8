"""Parametrized numeric gradient sweep over every ``repro.nn`` layer.

One matrix: every layer the model zoo uses (Linear, Embedding, LayerNorm,
Dropout in eval mode, multi-head attention, a full transformer block, the
GRU, the Caser convolutions, the GCN stack, MLPs, and the Gumbel path)
gradchecked in float64 both through the fused kernels
(:mod:`repro.tensor.fused`) and through their composed references (the
``composed_kernels`` fixture, ``tests/composed.py``) — so a backward
regression in either fails loudly.

The straight-through ``gumbel_top_k`` is the one place numeric
differentiation is *invalid*: its forward value is the hard multi-hot
vector, so the finite-difference gradient is zero almost everywhere while
the analytic gradient is (by design) that of the Gumbel-Softmax
relaxation.  The sweep therefore gradchecks the relaxation
(``gumbel_softmax(noise=False)``) and separately asserts the
straight-through estimator returns *exactly* the relaxation's analytic
gradient.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor, gradcheck
from repro.utils import set_seed


def _promote(module: nn.Module) -> nn.Module:
    """Cast every parameter (and any GCN adjacency buffer) to float64."""
    for _, param in module.named_parameters():
        param.data = param.data.astype(np.float64)
    stack = [module]
    while stack:
        current = stack.pop()
        adjacency = getattr(current, "adjacency", None)
        if isinstance(adjacency, Tensor) and not adjacency.requires_grad:
            current.adjacency = Tensor(adjacency.data.astype(np.float64))
        stack.extend(current._modules.values())
    return module


def t64(shape, rng, scale: float = 1.0) -> Tensor:
    return Tensor(rng.normal(size=shape) * scale, requires_grad=True,
                  dtype=np.float64)


# ----------------------------------------------------------------------
# Case builders: each returns (func, inputs) for gradcheck
# ----------------------------------------------------------------------
def case_linear(rng):
    layer = _promote(nn.Linear(5, 3))
    x = t64((4, 5), rng)
    return lambda x: (layer(x) ** 2).sum(), [x]


def case_embedding(rng):
    # Indices are not differentiable; the check runs w.r.t. the table, and
    # the padding row (index 0) must stay at zero gradient.
    layer = _promote(nn.Embedding(7, 4, padding_idx=0))
    indices = np.array([[1, 0, 3], [2, 2, 6]])
    return lambda weight: (layer(indices) ** 2).sum(), [layer.weight]


def case_layer_norm(rng):
    layer = _promote(nn.LayerNorm(6))
    x = t64((3, 6), rng)
    return lambda x, g, b: (layer(x) ** 2).sum(), [x, layer.gamma, layer.beta]


def case_dropout_eval(rng):
    # In eval mode dropout must be the identity with a pass-through gradient.
    layer = nn.Dropout(0.5)
    layer.eval()
    x = t64((4, 5), rng)
    return lambda x: (layer(x) ** 2).sum(), [x]


def case_attention_causal(rng):
    layer = _promote(nn.MultiHeadSelfAttention(8, num_heads=2, dropout=0.0,
                                               causal=True))
    layer.eval()
    x = t64((2, 4, 8), rng)
    return lambda x: (layer(x) ** 2).sum(), [x]


def case_attention_padded(rng):
    layer = _promote(nn.MultiHeadSelfAttention(8, num_heads=2, dropout=0.0,
                                               causal=True))
    layer.eval()
    x = t64((2, 4, 8), rng)
    padding = np.array([[True, True, False, False],
                        [False, False, False, False]])
    return (lambda x: (layer(x, key_padding_mask=padding) ** 2).sum(), [x])


def case_transformer_block(rng):
    layer = _promote(nn.TransformerEncoderLayer(8, num_heads=2, dropout=0.0))
    layer.eval()
    x = t64((1, 3, 8), rng)
    return lambda x: (layer(x) ** 2).sum(), [x]


def case_gru(rng):
    layer = _promote(nn.GRU(4, 3))
    x = t64((2, 3, 4), rng)
    padding = np.array([[True, False, False], [False, False, False]])
    return (lambda x: (layer(x, padding_mask=padding) ** 2).sum(), [x])


def case_caser_horizontal(rng):
    layer = _promote(nn.HorizontalConv(length=5, dim=4, heights=(1, 2),
                                       num_filters=2))
    x = t64((2, 5, 4), rng)
    return lambda x: (layer(x) ** 2).sum(), [x]


def case_caser_vertical(rng):
    layer = _promote(nn.VerticalConv(length=5, dim=4, num_filters=2))
    x = t64((2, 5, 4), rng)
    return lambda x: (layer(x) ** 2).sum(), [x]


def case_gcn(rng):
    adjacency = (rng.random((5, 5)) < 0.4).astype(np.float32)
    adjacency = np.maximum(adjacency, adjacency.T)
    np.fill_diagonal(adjacency, 0)
    stack = _promote(nn.GCN(adjacency, dim=3, num_layers=2))
    x = t64((5, 3), rng)
    return lambda x: (stack(x) ** 2).sum(), [x]


def case_mlp(rng):
    mlp = _promote(nn.MLP([4, 6, 3], dropout=0.0))
    x = t64((3, 4), rng)
    return lambda x: (mlp(x) ** 2).sum(), [x]


def case_concept_mlp_bank(rng):
    bank = _promote(nn.ConceptMLPBank(3, 4, 3, hidden=5))
    x = t64((2, 4), rng)
    return lambda x: (bank(x) ** 2).sum(), [x]


def case_gumbel_relaxation(rng):
    # The differentiable half of the straight-through estimator (Eq. 5).
    x = t64((2, 3, 6), rng, scale=0.5)
    return (lambda x: (nn.gumbel_softmax(x, tau=0.7, noise=False) ** 2).sum(),
            [x])


CASES = {
    "linear": case_linear,
    "embedding": case_embedding,
    "layer_norm": case_layer_norm,
    "dropout_eval": case_dropout_eval,
    "attention_causal": case_attention_causal,
    "attention_padded": case_attention_padded,
    "transformer_block": case_transformer_block,
    "gru": case_gru,
    "caser_horizontal": case_caser_horizontal,
    "caser_vertical": case_caser_vertical,
    "gcn": case_gcn,
    "mlp": case_mlp,
    "concept_mlp_bank": case_concept_mlp_bank,
    "gumbel_relaxation": case_gumbel_relaxation,
}

#: Composite layers go through more ops, so tolerances are a bit looser
#: than the per-op defaults (matching tests/nn/test_layer_gradients.py).
TOLERANCES = {
    "attention_causal": dict(atol=5e-4, rtol=5e-3),
    "attention_padded": dict(atol=5e-4, rtol=5e-3),
    "transformer_block": dict(atol=1e-3, rtol=1e-2),
    "gru": dict(atol=5e-4),
    "gcn": dict(atol=5e-4),
    "layer_norm": dict(atol=5e-4),
    "concept_mlp_bank": dict(atol=5e-4),
}


@pytest.mark.parametrize("dispatch", ["fused", "composed"])
@pytest.mark.parametrize("case", sorted(CASES))
class TestGradcheckMatrix:
    def test_layer(self, case, dispatch, rng, request):
        if dispatch == "composed":
            request.getfixturevalue("composed_kernels")
        set_seed(0)
        func, inputs = CASES[case](rng)
        tolerance = TOLERANCES.get(case, {})
        assert gradcheck(func, inputs, **tolerance)


class TestEmbeddingPaddingRow:
    def test_padding_row_gradient_is_zero(self, rng):
        set_seed(0)
        layer = _promote(nn.Embedding(6, 3, padding_idx=0))
        indices = np.array([[0, 1, 0, 2]])
        (layer(indices) ** 2).sum().backward()
        assert np.allclose(layer.weight.grad[0], 0.0)
        assert not np.allclose(layer.weight.grad[1], 0.0)


class TestStraightThroughGumbel:
    """Numeric differentiation is invalid for the hard forward; check the
    estimator's contract directly instead."""

    @pytest.mark.parametrize("dispatch", ["fused", "composed"])
    def test_forward_is_hard_and_grad_is_relaxation(self, dispatch, rng, request):
        if dispatch == "composed":
            request.getfixturevalue("composed_kernels")
        set_seed(0)
        logits = rng.normal(size=(2, 4, 6)).astype(np.float64)
        hard_input = Tensor(logits.copy(), requires_grad=True)
        hard_output = nn.gumbel_top_k(hard_input, k=2, tau=0.7, noise=False)
        # Forward: exact multi-hot with exactly k active entries.
        assert set(np.unique(hard_output.data)) <= {0.0, 1.0}
        assert np.all(hard_output.data.sum(axis=-1) == 2)
        # Backward: identical to the relaxation's analytic gradient under
        # the same downstream function.
        weights = rng.normal(size=hard_output.shape)
        (hard_output * Tensor(weights)).sum().backward()
        soft_input = Tensor(logits.copy(), requires_grad=True)
        soft_output = nn.gumbel_softmax(soft_input, tau=0.7, noise=False)
        (soft_output * Tensor(weights)).sum().backward()
        np.testing.assert_array_equal(hard_input.grad, soft_input.grad)
