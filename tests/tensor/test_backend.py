"""The thread-scoped float dtype setting (``default_dtype`` / ``use_dtype``).

Covers the coercion rules of tensor construction — including the
regression for float32 arrays surviving tensor construction inside a
float64 scope — parameter initialisation following the setting, the
scoping/nesting semantics of ``use_dtype``, and bit-compatibility of the
tensor ops with the plain numpy expressions they wrap.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.nn import Linear
from repro.tensor import Tensor, default_dtype, gradcheck, use_dtype, zeros
from repro.utils import set_seed


class TestRegistry:
    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError, match="float32 or float64"):
            with use_dtype(np.float16):
                pass
        assert default_dtype() is np.float32

    def test_nesting_restores(self):
        assert default_dtype() is np.float32
        with use_dtype(np.float64):
            with use_dtype("float32"):
                assert default_dtype() is np.float32
            assert default_dtype() is np.float64
        assert default_dtype() is np.float32

    def test_thread_override_is_local(self):
        seen = {}

        def probe():
            seen["dtype"] = default_dtype()

        with use_dtype(np.float64):
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert seen["dtype"] is np.float32


class TestDtypePolicy:
    def test_default_backend_implicit_dtypes(self):
        # Python floats arrive float64 and stay, integers stay integral.
        assert Tensor([1.0, 2.0]).dtype == np.float64
        assert Tensor(np.zeros(3, dtype=np.float32)).dtype == np.float32
        assert Tensor([1, 2]).dtype == np.int64
        assert Tensor([True]).dtype == np.bool_
        assert zeros(2).dtype == np.float32

    def test_float32_preserved_under_float64_backend(self):
        # Regression: a float64 scope must not silently promote explicit
        # float32 data on Tensor construction.
        with use_dtype(np.float64):
            assert Tensor(np.zeros(4, dtype=np.float32)).dtype == np.float32
            assert Tensor([1.0, 2.0]).dtype == np.float64
            assert zeros(2).dtype == np.float64

    def test_explicit_dtype_always_wins(self):
        with use_dtype(np.float64):
            assert Tensor([1.0], dtype=np.float32).dtype == np.float32
            assert zeros(2, dtype=np.float32).dtype == np.float32
        assert Tensor([1.0], dtype=np.float64).dtype == np.float64

    def test_param_init_follows_backend(self):
        set_seed(3)
        with use_dtype(np.float64):
            layer64 = Linear(4, 3)
        set_seed(3)
        layer32 = Linear(4, 3)
        assert layer64.weight.dtype == np.float64
        assert layer32.weight.dtype == np.float32
        np.testing.assert_allclose(layer64.weight.data,
                                   layer32.weight.data.astype(np.float64),
                                   atol=1e-7)

    def test_half_precision_input_coerces_to_backend_dtype(self):
        assert Tensor(np.zeros(2, dtype=np.float16)).dtype == np.float32
        with use_dtype(np.float64):
            assert Tensor(np.zeros(2, dtype=np.float16)).dtype == np.float64
            assert Tensor(np.array([1.5], dtype=object)).dtype == np.float64


class TestNumericsThroughBackends:
    def test_default_backend_bit_compatible(self):
        # Tensor ops must produce byte-identical results to raw numpy.
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 4)).astype(np.float32)
        b = rng.normal(size=(4, 3)).astype(np.float32)
        out = (Tensor(a) @ Tensor(b)).data
        assert out.tobytes() == (a @ b).tobytes()
        assert Tensor(a).exp().data.tobytes() == np.exp(a).tobytes()
        assert (Tensor(a) * Tensor(a)).data.tobytes() == (a * a).tobytes()
        assert Tensor(a).sum(axis=0).data.tobytes() == a.sum(axis=0).tobytes()

    def test_batched_matmul_fold_matches_gufunc(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 3, 5)).astype(np.float32)
        b = rng.normal(size=(5, 4)).astype(np.float32)
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data,
                                   np.matmul(a, b), rtol=1e-6)

    @pytest.mark.parametrize("name", ["float32", "float64"])
    def test_train_step_runs_under_every_backend(self, name):
        set_seed(11)
        with use_dtype(name):
            layer = Linear(6, 2)
            x = Tensor(np.random.default_rng(2).normal(size=(3, 6)))
            loss = (layer(x) ** 2).sum()
            loss.backward()
            assert layer.weight.dtype == np.dtype(name)
            assert layer.weight.grad is not None
            assert np.isfinite(loss.data)

    def test_gradcheck_passes_under_float32_backend(self):
        # gradcheck upcasts internally, so float32 inputs keep
        # full-precision gradient validation at unchanged tolerances.
        x = Tensor(np.random.default_rng(4).normal(size=(3, 3)),
                   requires_grad=True, dtype=np.float32)
        assert x.dtype == np.float32
        assert gradcheck(lambda t: (t.exp() * t).sum(), [x])
