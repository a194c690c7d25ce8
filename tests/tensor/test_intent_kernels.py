"""ISRec's decoder kernel against the composed form it replaced.

:func:`repro.tensor.fused.intent_decode` replaced ``decode_broadcast``, kept
here, and only here, as the reference: Eq. (11) as per-concept outputs
``(..., K, d)`` from ``LinearBank.forward_per_bank``'s broadcast matmul,
masked and summed over concepts.

The kernel is gradchecked in float64, matched to the oracle at 1e-5 in
float32, and a full ISRec training step is run both ways in float64.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ISRec, ISRecConfig
from repro import nn
from repro.core.intent_decoder import IntentDecoder
from repro.data.batching import next_item_batches
from repro.tensor import Tensor, fused, gradcheck, use_dtype
from repro.utils import set_seed

K, D_IN, D_OUT = 5, 3, 4


# ----------------------------------------------------------------------
# Oracle: the composed form the kernel replaced
# ----------------------------------------------------------------------
def decode_broadcast(decoder: IntentDecoder, features: Tensor,
                     intention: Tensor) -> Tensor:
    bank = decoder.decoder_bank
    out = bank.first.forward_per_bank(features)
    if bank.second is not None:
        out = bank.second.forward_per_bank(out.relu())
    return (out * intention.reshape(*intention.shape, 1)).sum(axis=-2)


@pytest.fixture
def oracle_paths(monkeypatch):
    """Route the intent decoder through the broadcast oracle."""
    monkeypatch.setattr(
        IntentDecoder, "forward",
        lambda self, features, intention: decode_broadcast(self, features, intention))


def _leaf(rng, shape, dtype=np.float64, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True,
                  dtype=dtype)


def _mask(rng, shape, dtype=np.float64):
    # A straight-through mask carries gradient, so make it a leaf too.
    return Tensor((rng.random(shape) < 0.5) + 0.1 * rng.standard_normal(shape),
                  requires_grad=True, dtype=dtype)


# ----------------------------------------------------------------------
# Gradchecks (float64, finite differences)
# ----------------------------------------------------------------------
class TestGradcheck:
    @pytest.mark.parametrize("banks", [1, K])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_intent_decode(self, rng, banks, with_bias):
        z = _leaf(rng, (2, 3, K, D_IN))
        m = _mask(rng, (2, 3, K))
        weight = _leaf(rng, (banks, D_IN, D_OUT))
        bias = _leaf(rng, (banks, D_OUT)) if with_bias else None
        probe = Tensor(rng.standard_normal((2, 3, D_OUT)))
        inputs = [z, m, weight] + ([bias] if with_bias else [])
        assert gradcheck(
            lambda *args: (fused.intent_decode(*args) * probe).sum(), inputs)

    def test_mismatched_bank_count_rejected(self, rng):
        x = Tensor(rng.standard_normal((2, K, D_IN)))
        weight = Tensor(rng.standard_normal((K - 1, D_IN, D_OUT)))
        with pytest.raises(ValueError):
            fused.intent_decode(x, Tensor(np.ones((2, K))), weight)


# ----------------------------------------------------------------------
# float32 equivalence with the oracle
# ----------------------------------------------------------------------
def _f32(rng, shape, scale=1.0):
    return (rng.standard_normal(shape) * scale).astype(np.float32)


def _randomise(module: nn.Module, rng) -> None:
    # Non-zero biases, so the kernel's bias terms are exercised.
    for _, param in module.named_parameters():
        param.data = _f32(rng, param.shape, 0.5)


def _grads(module: nn.Module, leaves) -> list[np.ndarray]:
    params = [p.grad for _, p in module.named_parameters()]
    return params + [leaf.grad for leaf in leaves]


def _assert_close(actual, expected):
    for a, e in zip(actual, expected, strict=True):
        np.testing.assert_allclose(a, e, rtol=1e-5, atol=1e-5)


class TestFloat32Equivalence:
    @pytest.mark.parametrize("shared", [False, True], ids=["K_banks", "one_bank"])
    @pytest.mark.parametrize("hidden", [None, 6], ids=["linear", "mlp_hidden"])
    def test_decoder_matches_broadcast(self, rng, shared, hidden):
        decoder = IntentDecoder(K, D_IN, D_OUT, mlp_hidden=hidden,
                                shared_mlp=shared)
        _randomise(decoder, rng)
        z_data, m_data = _f32(rng, (3, 7, K, D_IN)), _f32(rng, (3, 7, K))
        probe = Tensor(_f32(rng, (3, 7, D_OUT)))
        runs = []
        for path in (decoder, lambda z, m: decode_broadcast(decoder, z, m)):
            decoder.zero_grad()
            z = Tensor(z_data, requires_grad=True)
            m = Tensor(m_data, requires_grad=True)
            out = path(z, m)
            (out * probe).sum().backward()
            runs.append(([out.data], _grads(decoder, (z, m))))
        (out_k, grads_k), (out_o, grads_o) = runs
        _assert_close(out_k, out_o)
        _assert_close(grads_k, grads_o)


# ----------------------------------------------------------------------
# One full ISRec training step, kernel vs oracle, float64
# ----------------------------------------------------------------------
CONFIGS = {
    "default": ISRecConfig(dim=16),
    "mlp_hidden": ISRecConfig(dim=16, mlp_hidden=12),
    "shared_mlp": ISRecConfig(dim=16, shared_mlp=True),
}


def _training_step(model: ISRec, batch) -> tuple[float, dict[str, np.ndarray]]:
    set_seed(99)  # identical dropout and Gumbel draws on both paths
    model.zero_grad()
    loss = model.training_loss(batch)
    loss.backward()
    return float(loss.data), {name: p.grad for name, p in model.named_parameters()}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_full_isrec_step_matches_oracle_float64(name, tiny_dataset, tiny_split,
                                                request):
    with use_dtype(np.float64):
        set_seed(2024)
        model = ISRec.from_dataset(tiny_dataset, max_len=12, config=CONFIGS[name])
    model.train()
    batch = next(next_item_batches(tiny_split.train_sequences(), model.max_len,
                                   32, np.random.default_rng(0)))
    loss, grads = _training_step(model, batch)
    request.getfixturevalue("oracle_paths")
    oracle_loss, oracle_grads = _training_step(model, batch)

    assert loss == oracle_loss
    scale = max(float(np.abs(g).max()) for g in oracle_grads.values()
                if g is not None)
    for param, grad in grads.items():
        expected = oracle_grads[param]
        if expected is None:
            assert grad is None, param
            continue
        assert grad.dtype == np.float64
        np.testing.assert_allclose(grad, expected, rtol=0, atol=1e-12 * scale,
                                   err_msg=param)

