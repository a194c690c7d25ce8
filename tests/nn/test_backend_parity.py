"""Forward parity of every ``repro.nn`` layer across the two float dtypes.

For each layer the same seeded construction and the same input data run
once under ``use_dtype("float64")`` and once under ``use_dtype("float32")``;
outputs must agree to 1e-5.  This pins down two properties at once:
parameter initialisation draws identical values at either dtype (only the
storage dtype differs), and no layer's forward arithmetic hides a
precision-sensitive step that reduced precision would silently distort.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor, use_dtype
from repro.utils import set_seed

ATOL = 1e-5


def build_linear(rng):
    return nn.Linear(6, 4), Tensor(rng.normal(size=(3, 6)))


def build_linear_bank(rng):
    return nn.LinearBank(3, 5, 4), Tensor(rng.normal(size=(3, 2, 5)))


def build_embedding(rng):
    layer = nn.Embedding(9, 4, padding_idx=0)
    return layer, np.array([[1, 0, 3], [2, 8, 5]])


def build_multi_hot_embedding(rng):
    multi_hot = (rng.random((7, 4)) < 0.5).astype(np.float64)
    layer = nn.MultiHotEmbedding(multi_hot, dim=5)
    return layer, np.array([[1, 0, 3], [2, 6, 5]])


def build_layer_norm(rng):
    return nn.LayerNorm(5), Tensor(rng.normal(size=(4, 5)))


def build_mlp(rng):
    return nn.MLP([5, 7, 3], dropout=0.0), Tensor(rng.normal(size=(3, 5)))


def build_concept_mlp_bank(rng):
    return nn.ConceptMLPBank(3, 4, 3, hidden=5), Tensor(rng.normal(size=(2, 4)))


def build_attention(rng):
    layer = nn.MultiHeadSelfAttention(8, num_heads=2, dropout=0.0, causal=True)
    return layer, Tensor(rng.normal(size=(2, 4, 8)))


def build_transformer_block(rng):
    layer = nn.TransformerEncoderLayer(8, num_heads=2, dropout=0.0)
    return layer, Tensor(rng.normal(size=(2, 3, 8)))


def build_transformer_encoder(rng):
    layer = nn.TransformerEncoder(8, num_heads=2, num_layers=2, dropout=0.0)
    return layer, Tensor(rng.normal(size=(1, 4, 8)))


def build_ffn(rng):
    layer = nn.PositionwiseFeedForward(6, hidden=12, dropout=0.0)
    return layer, Tensor(rng.normal(size=(2, 3, 6)))


def build_gru(rng):
    return nn.GRU(4, 3), Tensor(rng.normal(size=(2, 5, 4)))


def build_gru_cell(rng):
    layer = nn.GRUCell(4, 3)
    x = Tensor(rng.normal(size=(2, 4)))
    h = Tensor(np.zeros((2, 3)))
    return layer, (x, h)


def build_horizontal_conv(rng):
    layer = nn.HorizontalConv(length=5, dim=4, heights=(1, 2), num_filters=2)
    return layer, Tensor(rng.normal(size=(2, 5, 4)))


def build_vertical_conv(rng):
    layer = nn.VerticalConv(length=5, dim=4, num_filters=2)
    return layer, Tensor(rng.normal(size=(2, 5, 4)))


def build_gcn(rng):
    adjacency = (rng.random((5, 5)) < 0.4).astype(np.float64)
    adjacency = np.maximum(adjacency, adjacency.T)
    np.fill_diagonal(adjacency, 0)
    return nn.GCN(adjacency, dim=3, num_layers=2), Tensor(rng.normal(size=(5, 3)))


def build_learned_adjacency_gcn(rng):
    layer = nn.LearnedAdjacencyGCN(4, dim=3, num_layers=1)
    return layer, Tensor(rng.normal(size=(4, 3)))


def build_relu(rng):
    return nn.ReLU(), Tensor(rng.normal(size=(3, 4)))


def build_gelu(rng):
    return nn.GELU(), Tensor(rng.normal(size=(3, 4)))


def build_sigmoid(rng):
    return nn.Sigmoid(), Tensor(rng.normal(size=(3, 4)))


def build_tanh(rng):
    return nn.Tanh(), Tensor(rng.normal(size=(3, 4)))


def build_dropout_eval(rng):
    layer = nn.Dropout(0.5)
    layer.eval()
    return layer, Tensor(rng.normal(size=(3, 4)))


BUILDERS = {
    "linear": build_linear,
    "linear_bank": build_linear_bank,
    "embedding": build_embedding,
    "multi_hot_embedding": build_multi_hot_embedding,
    "layer_norm": build_layer_norm,
    "mlp": build_mlp,
    "concept_mlp_bank": build_concept_mlp_bank,
    "attention": build_attention,
    "transformer_block": build_transformer_block,
    "transformer_encoder": build_transformer_encoder,
    "ffn": build_ffn,
    "gru": build_gru,
    "gru_cell": build_gru_cell,
    "horizontal_conv": build_horizontal_conv,
    "vertical_conv": build_vertical_conv,
    "gcn": build_gcn,
    "learned_adjacency_gcn": build_learned_adjacency_gcn,
    "relu": build_relu,
    "gelu": build_gelu,
    "sigmoid": build_sigmoid,
    "tanh": build_tanh,
    "dropout_eval": build_dropout_eval,
}


def _forward(name: str, dtype: str | None) -> np.ndarray:
    """Forward of one layer under ``use_dtype(dtype)`` (``None``: default)."""
    set_seed(1234)
    rng = np.random.default_rng(99)
    scope = contextlib.nullcontext() if dtype is None else use_dtype(dtype)
    with scope:
        layer, inputs = BUILDERS[name](rng)
        layer.eval()
        if not isinstance(inputs, tuple):
            inputs = (inputs,)
        out = layer(*inputs)
    return np.asarray(out.data, dtype=np.float64)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_forward_parity_float64_vs_float32(name):
    full = _forward(name, "float64")
    reduced = _forward(name, "float32")
    assert reduced.shape == full.shape
    np.testing.assert_allclose(reduced, full, atol=ATOL, rtol=0,
                               err_msg=f"{name}: float32 diverged from float64")


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_forward_parity_default_vs_float32(name):
    # The default dtype is float32: an explicit float32 scope changes nothing.
    default = _forward(name, None)
    reduced = _forward(name, "float32")
    np.testing.assert_array_equal(reduced, default)
