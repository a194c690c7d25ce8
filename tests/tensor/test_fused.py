"""Fused kernels (repro.tensor.fused): gradchecks against finite differences
and equivalence against the composed references of ``tests/composed.py``."""

import numpy as np
import pytest

from repro.nn.attention import MultiHeadSelfAttention, causal_mask
from repro.nn.normalization import LayerNorm
from repro.tensor import functional as F
from repro.tensor import fused
from repro.tensor.gradcheck import gradcheck
from repro.tensor.tensor import Tensor, tensor_allocs
from tests.composed import (
    REFERENCES,
    attention_composed,
    cross_entropy_composed,
    layer_norm_composed,
    log_softmax_composed,
    softmax_composed,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _leaf(rng, shape, dtype=np.float64):
    return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=dtype)


def _grad_leaf(data):
    return Tensor(data, requires_grad=True)


# ----------------------------------------------------------------------
# Gradchecks (float64, finite differences)
# ----------------------------------------------------------------------
class TestGradcheck:
    def test_softmax(self, rng):
        x = _leaf(rng, (3, 5))
        weights = Tensor(rng.standard_normal((3, 5)))
        assert gradcheck(lambda t: (fused.softmax(t) * weights).sum(), [x])

    def test_softmax_other_axis(self, rng):
        x = _leaf(rng, (2, 4, 3))
        weights = Tensor(rng.standard_normal((2, 4, 3)))
        assert gradcheck(lambda t: (fused.softmax(t, axis=1) * weights).sum(), [x])

    def test_log_softmax(self, rng):
        x = _leaf(rng, (4, 6))
        weights = Tensor(rng.standard_normal((4, 6)))
        assert gradcheck(lambda t: (fused.log_softmax(t) * weights).sum(), [x])

    def test_cross_entropy(self, rng):
        logits = _leaf(rng, (6, 7))
        targets = rng.integers(0, 7, size=6)
        assert gradcheck(lambda t: fused.cross_entropy(t, targets), [logits])

    def test_cross_entropy_with_mask(self, rng):
        logits = _leaf(rng, (2, 4, 5))
        targets = rng.integers(0, 5, size=(2, 4))
        mask = np.array([[1.0, 1.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]])
        assert gradcheck(lambda t: fused.cross_entropy(t, targets, mask), [logits])

    def test_attention(self, rng):
        q, k, v = (_leaf(rng, (2, 4, 3)) for _ in range(3))
        weights = Tensor(rng.standard_normal((2, 4, 3)))
        assert gradcheck(
            lambda a, b, c: (fused.attention(a, b, c, scale=0.7) * weights).sum(),
            [q, k, v],
        )

    def test_attention_causal_mask(self, rng):
        q, k, v = (_leaf(rng, (2, 4, 3)) for _ in range(3))
        mask = causal_mask(4)
        assert gradcheck(
            lambda a, b, c: fused.attention(a, b, c, mask=mask, scale=0.5).sum(),
            [q, k, v],
        )

    def test_attention_fully_masked_row(self, rng):
        # Row 1 forbidden everywhere: forward degrades to uniform weights and
        # no gradient may flow back through that row's scores.
        q, k, v = (_leaf(rng, (1, 3, 2)) for _ in range(3))
        mask = np.array([[False, True, True],
                         [True, True, True],
                         [False, False, True]])
        assert gradcheck(
            lambda a, b, c: fused.attention(a, b, c, mask=mask).sum(),
            [q, k, v],
        )

    def test_attention_dropout_mask_constant(self, rng):
        q, k, v = (_leaf(rng, (2, 3, 2)) for _ in range(3))
        drop = (rng.random((2, 3, 3)) < 0.8).astype(np.float64) / 0.8
        assert gradcheck(
            lambda a, b, c: fused.attention(a, b, c, dropout_mask=drop).sum(),
            [q, k, v],
        )

    def test_layer_norm(self, rng):
        x = _leaf(rng, (2, 3, 4))
        gamma = Tensor(rng.standard_normal(4), requires_grad=True, dtype=np.float64)
        beta = Tensor(rng.standard_normal(4), requires_grad=True, dtype=np.float64)
        weights = Tensor(rng.standard_normal((2, 3, 4)))
        assert gradcheck(
            lambda a, g, b: (fused.layer_norm(a, g, b) * weights).sum(),
            [x, gamma, beta],
        )


# ----------------------------------------------------------------------
# Forward/backward equivalence against the composed references
# ----------------------------------------------------------------------
class TestEquivalence:
    def test_softmax_matches_composed(self, rng):
        x = Tensor(rng.standard_normal((4, 2, 12, 12)).astype(np.float32))
        fused_out = fused.softmax(x, axis=-1)
        composed = softmax_composed(x, axis=-1)
        np.testing.assert_allclose(fused_out.data, composed.data, atol=1e-5)

    def test_log_softmax_matches_composed(self, rng):
        x = Tensor(rng.standard_normal((4, 12, 50)).astype(np.float32))
        np.testing.assert_allclose(fused.log_softmax(x).data,
                                   log_softmax_composed(x).data, atol=1e-5)

    def test_cross_entropy_matches_composed(self, rng):
        logits_data = rng.standard_normal((4, 12, 50)).astype(np.float32)
        targets = rng.integers(1, 50, size=(4, 12))
        mask = (rng.random((4, 12)) < 0.7).astype(np.float32)
        mask[0] = 1.0  # keep at least one row fully valid

        a = Tensor(logits_data.copy(), requires_grad=True)
        b = Tensor(logits_data.copy(), requires_grad=True)
        fused_loss = fused.cross_entropy(a, targets, mask)
        composed_loss = cross_entropy_composed(b, targets, mask)
        np.testing.assert_allclose(fused_loss.data, composed_loss.data, atol=1e-5)

        fused_loss.backward()
        composed_loss.backward()
        np.testing.assert_allclose(a.grad, b.grad, atol=1e-5)

    def test_cross_entropy_no_mask_matches_composed(self, rng):
        logits_data = rng.standard_normal((8, 30)).astype(np.float32)
        targets = rng.integers(0, 30, size=8)
        a = Tensor(logits_data.copy(), requires_grad=True)
        b = Tensor(logits_data.copy(), requires_grad=True)
        np.testing.assert_allclose(fused.cross_entropy(a, targets).data,
                                   cross_entropy_composed(b, targets).data,
                                   atol=1e-5)

    def test_cross_entropy_all_masked_raises(self, rng):
        logits = Tensor(rng.standard_normal((3, 5)).astype(np.float32))
        with pytest.raises(ValueError):
            fused.cross_entropy(logits, np.zeros(3, dtype=int), np.zeros(3))
        with pytest.raises(ValueError):
            cross_entropy_composed(logits, np.zeros(3, dtype=int), np.zeros(3))

    def test_attention_matches_composed(self, rng):
        data = [rng.standard_normal((2, 2, 8, 4)).astype(np.float32) for _ in range(3)]
        mask = causal_mask(8)
        leaves_fused = [Tensor(d.copy(), requires_grad=True) for d in data]
        leaves_comp = [Tensor(d.copy(), requires_grad=True) for d in data]

        out_fused = fused.attention(*leaves_fused, mask=mask, scale=0.5)
        out_comp = attention_composed(*leaves_comp, mask=mask, scale=0.5)
        np.testing.assert_allclose(out_fused.data, out_comp.data, atol=1e-5)

        out_fused.sum().backward()
        out_comp.sum().backward()
        for lf, lc in zip(leaves_fused, leaves_comp):
            np.testing.assert_allclose(lf.grad, lc.grad, atol=1e-4)

    def test_attention_fully_masked_rows_match_composed(self, rng):
        data = [rng.standard_normal((1, 1, 4, 3)).astype(np.float32) for _ in range(3)]
        mask = np.zeros((1, 1, 4, 4), dtype=bool)
        mask[..., 2, :] = True  # query 2 may attend to nothing at all
        leaves_fused = [Tensor(d.copy(), requires_grad=True) for d in data]
        leaves_comp = [Tensor(d.copy(), requires_grad=True) for d in data]

        out_fused = fused.attention(*leaves_fused, mask=mask)
        out_comp = attention_composed(*leaves_comp, mask=mask)
        np.testing.assert_allclose(out_fused.data, out_comp.data, atol=1e-5)

        out_fused.sum().backward()
        out_comp.sum().backward()
        for lf, lc in zip(leaves_fused, leaves_comp):
            np.testing.assert_allclose(lf.grad, lc.grad, atol=1e-4)

    def test_layer_norm_matches_composed(self, rng):
        layer = LayerNorm(16)
        layer.gamma.data[:] = rng.standard_normal(16).astype(np.float32)
        layer.beta.data[:] = rng.standard_normal(16).astype(np.float32)
        x = Tensor(rng.standard_normal((4, 10, 16)).astype(np.float32))
        composed = layer_norm_composed(x, layer.gamma, layer.beta, layer.eps)
        np.testing.assert_allclose(layer(x).data, composed.data, atol=1e-5)

    def test_attention_module_paths_match(self, rng, request):
        attention = MultiHeadSelfAttention(dim=8, num_heads=2, dropout=0.0)
        attention.eval()
        x = Tensor(rng.standard_normal((3, 6, 8)).astype(np.float32))
        padding = np.zeros((3, 6), dtype=bool)
        padding[1, :3] = True
        padding[2, :] = True  # a fully-padded sequence exercises the guard

        out_fused = attention(x, key_padding_mask=padding)
        request.getfixturevalue("composed_kernels")
        out_composed = attention(x, key_padding_mask=padding)
        np.testing.assert_allclose(out_fused.data, out_composed.data, atol=1e-5)

    def test_training_loss_paths_match(self, rng, request):
        # The fused kernel folds the padding-column ban into the CE node
        # (suppress_index=0); the composed reference adds it explicitly.
        from repro.models.sasrec import SASRec
        from repro.utils.seeding import temp_seed

        with temp_seed(3):
            model = SASRec(num_items=30, dim=8, max_len=6, num_layers=1,
                           dropout=0.0)
        inputs = rng.integers(1, 31, size=(4, 6))
        targets = rng.integers(1, 31, size=(4, 6))
        inputs[:, :2] = 0
        targets[:, :2] = 0
        mask = (targets > 0).astype(np.float32)
        batch = (np.arange(4), inputs, targets, mask)

        loss_fused = model.training_loss(batch)
        loss_fused.backward()
        grads_fused = [p.grad.copy() if p.grad is not None else None
                       for p in model.parameters()]
        for p in model.parameters():
            p.zero_grad()
        request.getfixturevalue("composed_kernels")
        loss_composed = model.training_loss(batch)
        loss_composed.backward()

        np.testing.assert_allclose(loss_fused.data, loss_composed.data, atol=1e-5)
        for gf, parameter in zip(grads_fused, model.parameters()):
            if gf is None and parameter.grad is None:
                continue
            np.testing.assert_allclose(gf, parameter.grad, atol=1e-4)

    def test_fused_cross_entropy_suppress_index_matches_explicit_add(self, rng):
        logits_data = rng.standard_normal((5, 20)).astype(np.float32)
        targets = rng.integers(1, 20, size=5)
        a = Tensor(logits_data.copy(), requires_grad=True)
        b_data = logits_data.copy()
        b_data[:, 0] += -1e9
        b = Tensor(b_data, requires_grad=True)

        loss_a = fused.cross_entropy(a, targets, suppress_index=0)
        loss_b = cross_entropy_composed(b, targets)
        np.testing.assert_allclose(loss_a.data, loss_b.data, atol=1e-5)

        loss_a.backward()
        loss_b.backward()
        np.testing.assert_allclose(a.grad, b.grad, atol=1e-5)

    def test_functional_dispatch_honours_toggle(self, rng, request):
        # The composed_kernels fixture is what turns a whole-model check
        # into an oracle comparison, so it must reach every kernel.
        x = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        assert F.softmax(x)._op == "fused_softmax"
        request.getfixturevalue("composed_kernels")
        assert F.softmax(x)._op != "fused_softmax"
        for name, reference in REFERENCES.items():
            assert getattr(fused, name) is reference, name


# ----------------------------------------------------------------------
# Allocation behaviour (the point of fusing)
# ----------------------------------------------------------------------
class TestAllocations:
    def _allocs(self, fn):
        before = tensor_allocs()
        fn()
        return tensor_allocs() - before

    @pytest.mark.parametrize("kernel", ["cross_entropy", "softmax",
                                        "log_softmax", "attention",
                                        "layer_norm"])
    def test_fused_kernel_allocates_fewer_tensors(self, rng, kernel):
        # Forward + backward of each kernel on train-step-like shapes; the
        # point of fusing is to materialise fewer tensor temporaries.
        logits = rng.standard_normal((8, 16, 64)).astype(np.float32)
        targets = rng.integers(0, 64, size=(8, 16))
        qkv = [rng.standard_normal((8, 2, 16, 8)).astype(np.float32)
               for _ in range(3)]
        gamma, beta = (Tensor(rng.standard_normal(64).astype(np.float32),
                              requires_grad=True) for _ in range(2))
        cases = {
            "cross_entropy": lambda op: op(_grad_leaf(logits), targets),
            "softmax": lambda op: op(_grad_leaf(logits)).sum(),
            "log_softmax": lambda op: op(_grad_leaf(logits)).sum(),
            "attention": lambda op: op(*map(_grad_leaf, qkv),
                                       mask=causal_mask(16), scale=0.5).sum(),
            "layer_norm": lambda op: op(_grad_leaf(logits), gamma, beta).sum(),
        }
        run = cases[kernel]
        fused_allocs = self._allocs(lambda: run(getattr(fused, kernel)).backward())
        composed_allocs = self._allocs(lambda: run(REFERENCES[kernel]).backward())
        assert fused_allocs < composed_allocs

    def test_masked_fill_broadcasts_scalar_fill(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 5, 5)).astype(np.float32),
                   requires_grad=True)
        out = F.masked_fill(x, causal_mask(5), -1e9)
        assert out.shape == x.shape
        assert (out.data[..., 0, 1:] == -1e9).all()
        out.sum().backward()
        # Gradient is blocked exactly at masked positions.
        assert (x.grad[..., 0, 1:] == 0).all()
        assert (x.grad[..., -1, :] == 1).all()


class TestCausalMaskCache:
    def test_cached_and_readonly(self):
        first = causal_mask(9)
        assert causal_mask(9) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = True

    def test_values_unchanged(self):
        mask = causal_mask(4)
        assert mask[0, 1] and mask[2, 3]
        assert not mask.diagonal().any()
        assert not mask[3, 0]
