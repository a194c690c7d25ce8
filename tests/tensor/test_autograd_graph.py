"""Behaviour of the autograd tape: accumulation, no_grad, detach, errors."""

import numpy as np
import pytest

from repro.tensor import Tensor, is_grad_enabled, no_grad


class TestBackward:
    def test_scalar_backward_default_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * a).sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 4.0])

    def test_backward_requires_scalar_without_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * a).backward()

    def test_backward_with_explicit_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 3.0).backward(np.array([1.0, 10.0], dtype=np.float32))
        np.testing.assert_allclose(a.grad, [3.0, 30.0])

    def test_backward_gradient_shape_mismatch(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = a * 2.0
        with pytest.raises(ValueError):
            out.backward(np.ones(3, dtype=np.float32))

    def test_backward_on_leaf_without_grad_raises(self):
        a = Tensor([1.0])
        with pytest.raises(RuntimeError):
            a.backward()

    def test_gradient_accumulates_across_backwards(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).sum().backward()
        (a * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0])

    def test_diamond_graph_accumulates_once_per_path(self):
        a = Tensor([2.0], requires_grad=True)
        b = a * 3.0
        out = (b + b).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, [6.0])

    def test_deep_chain_does_not_recurse(self):
        a = Tensor([1.0], requires_grad=True)
        x = a
        for _ in range(2000):
            x = x + 1.0
        x.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).sum().backward()
        a.zero_grad()
        assert a.grad is None


class TestGradMode:
    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()

    def test_detach(self):
        a = Tensor([1.0], requires_grad=True)
        d = a.detach()
        assert not d.requires_grad
        assert d.data is a.data  # shares storage


class TestDtypes:
    def test_low_precision_floats_promoted_to_float32(self):
        assert Tensor(np.zeros(2, dtype=np.float16)).dtype == np.float32

    def test_float32_preserved(self):
        assert Tensor(np.zeros(2, dtype=np.float32)).dtype == np.float32

    def test_float64_preserved(self):
        # float64 passes through so gradcheck can run in full precision;
        # Python float lists arrive as float64 and stay float64.
        assert Tensor(np.zeros(2, dtype=np.float64)).dtype == np.float64
        assert Tensor([1.0, 2.0]).dtype == np.float64

    def test_integer_data_keeps_dtype_and_never_requires_grad(self):
        t = Tensor(np.array([1, 2, 3]), requires_grad=True)
        assert t.dtype == np.int64
        assert not t.requires_grad

    def test_explicit_dtype(self):
        assert Tensor([1, 2], dtype=np.float64).dtype == np.float64

    def test_astype_differentiable(self):
        a = Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
        out = a.astype(np.float32)
        out.sum().backward()
        assert a.grad.dtype == np.float64
        np.testing.assert_allclose(a.grad, [1.0, 1.0])


class TestRepr:
    def test_repr_mentions_requires_grad(self):
        assert "requires_grad=True" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_len_shape_size_ndim(self):
        t = Tensor(np.zeros((3, 4)))
        assert len(t) == 3
        assert t.shape == (3, 4)
        assert t.size == 12
        assert t.ndim == 2

    def test_item(self):
        assert Tensor([2.5]).item() == pytest.approx(2.5)

    def test_comparisons_return_numpy(self):
        a = Tensor([1.0, 3.0])
        mask = a > 2.0
        assert isinstance(mask, np.ndarray)
        np.testing.assert_array_equal(mask, [False, True])
