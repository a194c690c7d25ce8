"""Linear, LinearBank, Embedding, LayerNorm, Dropout, activations, MLP."""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor
from repro.utils import set_seed


def randn(shape, requires_grad=False):
    data = np.random.default_rng(0).normal(size=shape).astype(np.float32)
    return Tensor(data, requires_grad=requires_grad)


class TestLinear:
    def test_shape(self):
        layer = nn.Linear(5, 3)
        assert layer(randn((7, 5))).shape == (7, 3)

    def test_no_bias(self):
        layer = nn.Linear(5, 3, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_matches_manual(self):
        layer = nn.Linear(4, 2)
        x = randn((3, 4))
        expected = x.data @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(x).data, expected, rtol=1e-5)

    def test_repr(self):
        assert "Linear(4, 2" in repr(nn.Linear(4, 2))


class TestLinearBank:
    def test_broadcast_shape(self):
        bank = nn.LinearBank(6, 5, 3)
        out = bank(randn((2, 4, 5)))
        assert out.shape == (2, 4, 6, 3)

    def test_banks_are_independent(self):
        bank = nn.LinearBank(3, 4, 2, bias=False)
        x = randn((1, 4))
        out = bank(x).data[0]  # (3, 2)
        for k in range(3):
            expected = x.data[0] @ bank.weight.data[k]
            np.testing.assert_allclose(out[k], expected, rtol=1e-5)

    def test_per_bank_shape(self):
        bank = nn.LinearBank(6, 5, 3)
        out = bank.forward_per_bank(randn((2, 4, 6, 5)))
        assert out.shape == (2, 4, 6, 3)

    def test_per_bank_uses_own_slice(self):
        bank = nn.LinearBank(2, 3, 2, bias=False)
        z = randn((1, 2, 3))
        out = bank.forward_per_bank(z).data[0]
        for k in range(2):
            expected = z.data[0, k] @ bank.weight.data[k]
            np.testing.assert_allclose(out[k], expected, rtol=1e-5)


class TestEmbedding:
    def test_lookup(self):
        table = nn.Embedding(10, 4)
        out = table(np.array([[1, 2], [3, 0]]))
        assert out.shape == (2, 2, 4)
        np.testing.assert_array_equal(out.data[0, 0], table.weight.data[1])

    def test_padding_row_zero_initialised(self):
        table = nn.Embedding(10, 4, padding_idx=0)
        np.testing.assert_array_equal(table.weight.data[0], np.zeros(4))

    def test_gradient_scattered(self):
        table = nn.Embedding(5, 3)
        out = table(np.array([1, 1, 2]))
        out.sum().backward()
        np.testing.assert_allclose(table.weight.grad[1], 2.0 * np.ones(3))
        np.testing.assert_allclose(table.weight.grad[2], np.ones(3))
        np.testing.assert_allclose(table.weight.grad[0], np.zeros(3))

    def test_tensor_index_accepted(self):
        table = nn.Embedding(5, 3)
        out = table(Tensor(np.array([0, 4])))
        assert out.shape == (2, 3)


class TestMultiHotEmbedding:
    def test_sums_selected_rows(self):
        multi_hot = np.array([[0, 0, 0], [1, 1, 0], [0, 0, 1]], dtype=np.float32)
        layer = nn.MultiHotEmbedding(multi_hot, dim=4)
        out = layer(np.array([1, 2, 0]))
        expected_row1 = layer.weight.data[0] + layer.weight.data[1]
        np.testing.assert_allclose(out.data[0], expected_row1, rtol=1e-5)
        np.testing.assert_allclose(out.data[2], np.zeros(4), atol=1e-7)


class TestLayerNorm:
    def test_normalises_last_axis(self):
        layer = nn.LayerNorm(8)
        out = layer(randn((4, 8)) * 10.0 + 3.0).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_gamma_beta_trainable(self):
        layer = nn.LayerNorm(4)
        assert len(layer.parameters()) == 2


class TestDropout:
    def test_eval_mode_is_identity(self):
        layer = nn.Dropout(0.5)
        layer.eval()
        x = randn((10, 10))
        np.testing.assert_array_equal(layer(x).data, x.data)

    def test_zero_probability_is_identity(self):
        layer = nn.Dropout(0.0)
        x = randn((10, 10))
        np.testing.assert_array_equal(layer(x).data, x.data)

    def test_training_zeroes_and_scales(self):
        set_seed(0)
        layer = nn.Dropout(0.5)
        x = Tensor(np.ones((100, 100), dtype=np.float32))
        out = layer(x).data
        assert (out == 0).mean() == pytest.approx(0.5, abs=0.05)
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0, rtol=1e-5)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)
        with pytest.raises(ValueError):
            nn.Dropout(-0.1)


class TestActivations:
    def test_relu(self):
        out = nn.ReLU()(Tensor(np.array([-1.0, 2.0]))).data
        np.testing.assert_array_equal(out, [0.0, 2.0])

    def test_sigmoid_range(self):
        out = nn.Sigmoid()(randn((50,))).data
        assert np.all((out > 0) & (out < 1))

    def test_tanh_range(self):
        out = nn.Tanh()(randn((50,))).data
        assert np.all((out > -1) & (out < 1))

    def test_gelu_close_to_relu_for_large_inputs(self):
        x = Tensor(np.array([10.0, -10.0]))
        out = nn.GELU()(x).data
        np.testing.assert_allclose(out, [10.0, 0.0], atol=1e-3)


class TestMLP:
    def test_dims_validation(self):
        with pytest.raises(ValueError):
            nn.MLP([4])

    def test_forward_shape(self):
        mlp = nn.MLP([6, 8, 3])
        assert mlp(randn((5, 6))).shape == (5, 3)

    def test_hidden_layers_have_relu(self):
        mlp = nn.MLP([2, 2, 2])
        kinds = [type(layer).__name__ for layer in mlp.layers]
        assert kinds == ["Linear", "ReLU", "Linear"]


class TestConceptMLPBank:
    def test_single_layer(self):
        bank = nn.ConceptMLPBank(5, 8, 3)
        assert bank(randn((2, 8))).shape == (2, 5, 3)

    def test_two_layer(self):
        bank = nn.ConceptMLPBank(5, 8, 3, hidden=6)
        assert bank(randn((2, 8))).shape == (2, 5, 3)
        assert bank.decode(randn((2, 5, 8)), randn((2, 5))).shape == (2, 3)
