"""Fused intent-contrastive InfoNCE kernel (repro.tensor.fused.info_nce):
gradchecks at both float dtypes, equivalence against the composed
reference, and the allocation bound that justifies fusing."""

import numpy as np
import pytest

from repro.tensor import functional as F
from repro.tensor import fused, use_dtype
from repro.tensor.gradcheck import gradcheck
from repro.tensor.tensor import Tensor, tensor_allocs
from tests.composed import info_nce_composed


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _leaf(rng, shape, dtype=np.float64):
    return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=dtype)


def _views(rng, n=5, d=6, dtype=np.float64):
    return _leaf(rng, (n, d), dtype=dtype), _leaf(rng, (n, d), dtype=dtype)


# ----------------------------------------------------------------------
# Gradchecks (float64, finite differences) — fused and composed, under
# either float dtype setting (gradcheck upcasts internally).
# ----------------------------------------------------------------------
class TestGradcheck:
    def test_fused(self, rng):
        anchors, positives = _views(rng)
        assert gradcheck(lambda a, p: fused.info_nce(a, p, temperature=0.3),
                         [anchors, positives])

    def test_composed(self, rng):
        anchors, positives = _views(rng)
        assert gradcheck(lambda a, p: info_nce_composed(a, p, temperature=0.3),
                         [anchors, positives])

    def test_single_pair_degenerate(self, rng):
        # N=1: the only candidate is the positive, loss == 0, gradient == 0.
        anchors, positives = _views(rng, n=1, d=4)
        loss = fused.info_nce(anchors, positives)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)
        loss.backward()
        np.testing.assert_allclose(anchors.grad, 0.0, atol=1e-12)
        assert gradcheck(lambda a, p: fused.info_nce(a, p), [anchors, positives])

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("path", ["fused", "composed"])
    def test_every_backend(self, rng, dtype, path):
        op = fused.info_nce if path == "fused" else info_nce_composed
        with use_dtype(dtype):
            anchors, positives = _views(rng, n=4, d=5)
            assert gradcheck(lambda a, p: op(a, p, temperature=0.25),
                             [anchors, positives])

    def test_sharp_temperature(self, rng):
        # A sharp temperature stresses the logsumexp stabilisation.
        anchors, positives = _views(rng, n=4, d=5)
        assert gradcheck(lambda a, p: fused.info_nce(a, p, temperature=0.05),
                         [anchors, positives], atol=1e-4)


# ----------------------------------------------------------------------
# Forward/backward equivalence against the composed reference
# ----------------------------------------------------------------------
class TestEquivalence:
    def test_forward_and_grads_match_composed(self, rng):
        data_a = rng.standard_normal((16, 12)).astype(np.float32)
        data_p = rng.standard_normal((16, 12)).astype(np.float32)
        a_fused = Tensor(data_a.copy(), requires_grad=True)
        p_fused = Tensor(data_p.copy(), requires_grad=True)
        a_comp = Tensor(data_a.copy(), requires_grad=True)
        p_comp = Tensor(data_p.copy(), requires_grad=True)

        loss_fused = fused.info_nce(a_fused, p_fused, temperature=0.2)
        loss_comp = info_nce_composed(a_comp, p_comp, temperature=0.2)
        np.testing.assert_allclose(loss_fused.data, loss_comp.data, atol=1e-5)

        loss_fused.backward()
        loss_comp.backward()
        np.testing.assert_allclose(a_fused.grad, a_comp.grad, atol=1e-5)
        np.testing.assert_allclose(p_fused.grad, p_comp.grad, atol=1e-5)

    def test_every_backend_matches_composed(self, rng):
        data_a = rng.standard_normal((8, 6)).astype(np.float32)
        data_p = rng.standard_normal((8, 6)).astype(np.float32)
        for dtype in ("float32", "float64"):
            with use_dtype(dtype):
                a = Tensor(data_a.copy(), requires_grad=True)
                p = Tensor(data_p.copy(), requires_grad=True)
                b = Tensor(data_a.copy(), requires_grad=True)
                q = Tensor(data_p.copy(), requires_grad=True)
                loss_fused = fused.info_nce(a, p)
                loss_comp = info_nce_composed(b, q)
                np.testing.assert_allclose(loss_fused.data, loss_comp.data,
                                           atol=1e-5, err_msg=dtype)
                loss_fused.backward()
                loss_comp.backward()
                np.testing.assert_allclose(a.grad, b.grad, atol=1e-5,
                                           err_msg=dtype)
                np.testing.assert_allclose(p.grad, q.grad, atol=1e-5,
                                           err_msg=dtype)

    def test_dispatch_honours_toggle(self, rng, request):
        # F.info_nce runs the kernel, or its reference under the
        # composed_kernels fixture that whole-model oracle checks use.
        anchors, positives = _views(rng, n=3, d=4)
        assert F.info_nce(anchors, positives)._op == "fused_info_nce"
        request.getfixturevalue("composed_kernels")
        assert F.info_nce(anchors, positives)._op != "fused_info_nce"

    def test_symmetry_in_views(self, rng):
        # The symmetric objective is invariant to swapping the two views.
        anchors, positives = _views(rng, n=6, d=5)
        forward = fused.info_nce(anchors, positives)
        swapped = fused.info_nce(positives, anchors)
        np.testing.assert_allclose(forward.data, swapped.data, atol=1e-10)

    def test_perfect_alignment_beats_mismatch(self, rng):
        # Identical views give a lower loss than independent ones.
        data = rng.standard_normal((10, 8))
        aligned = fused.info_nce(Tensor(data), Tensor(data.copy()))
        shuffled = fused.info_nce(Tensor(data), Tensor(data[::-1].copy()))
        assert float(aligned.data) < float(shuffled.data)

    @pytest.mark.parametrize("op", [fused.info_nce, info_nce_composed])
    def test_shape_and_temperature_validation(self, rng, op):
        with pytest.raises(ValueError):
            op(Tensor(rng.standard_normal((3, 4))),
               Tensor(rng.standard_normal((4, 4))))
        with pytest.raises(ValueError):
            op(Tensor(rng.standard_normal((2, 3, 4))),
               Tensor(rng.standard_normal((2, 3, 4))))
        with pytest.raises(ValueError):
            op(Tensor(rng.standard_normal((3, 4))),
               Tensor(rng.standard_normal((3, 4))), temperature=0.0)


# ----------------------------------------------------------------------
# Allocation behaviour (the point of fusing)
# ----------------------------------------------------------------------
class TestAllocations:
    def _allocs(self, fn):
        before = tensor_allocs()
        fn()
        return tensor_allocs() - before

    def test_fused_is_single_node(self, rng):
        anchors, positives = _views(rng, n=32, d=16)

        def run():
            fused.info_nce(anchors, positives).backward()

        # One tape node for the loss scalar, nothing else.
        assert self._allocs(run) == 1

    def test_fused_allocates_fewer_tensors(self, rng):
        data_a = rng.standard_normal((32, 16))
        data_p = rng.standard_normal((32, 16))

        def run(op):
            a = Tensor(data_a, requires_grad=True)
            p = Tensor(data_p, requires_grad=True)
            op(a, p).backward()

        fused_allocs = self._allocs(lambda: run(fused.info_nce))
        composed_allocs = self._allocs(lambda: run(info_nce_composed))
        assert fused_allocs < composed_allocs
