"""``_unbroadcast`` reduces leading or trailing axes with a ones-GEMV.

The reference is the plain ``.sum`` over the broadcast axes; in float64
the GEMV must agree with it to 1e-12 of the largest entry, for every way
broadcasting can stretch an operand and for gradients of any layout.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor.tensor import _unbroadcast


def reference(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, size in enumerate(shape)
                 if size == 1 and grad.shape[i] != 1)
    return grad.sum(axis=axes, keepdims=True).reshape(shape)


CASES = {
    "prepended": ((64, 40, 30, 8), (8,)),
    "prepended_2d": ((6, 5, 7, 3), (7, 3)),
    "stretched_leading": ((5, 7, 3), (1, 7, 3)),
    "stretched_trailing": ((5, 7, 8), (5, 7, 1)),
    "stretched_middle": ((3, 4, 5), (3, 1, 5)),
    "prepended_and_stretched": ((4, 5, 7, 3), (1, 7, 3)),
    "prepended_and_trailing": ((4, 5, 6), (5, 1)),
    "scalar": ((3, 4), ()),
    "unchanged_size_one": ((1, 3), (3,)),
}


def _layouts(rng, shape):
    """The same values as C-contiguous, transposed and strided arrays."""
    base = rng.standard_normal(shape)
    yield "contiguous", base
    yield "transposed", np.ascontiguousarray(base.T).T
    padded = np.zeros(shape[:-1] + (2 * shape[-1],))
    padded[..., ::2] = base
    yield "strided", padded[..., ::2]
    yield "broadcast", np.broadcast_to(base[:1], shape)


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_sum_reference_float64(case, rng):
    grad_shape, shape = CASES[case]
    for layout, grad in _layouts(rng, grad_shape):
        actual = _unbroadcast(grad, shape)
        expected = reference(grad, shape)
        assert actual.shape == shape, layout
        assert actual.dtype == np.float64, layout
        np.testing.assert_allclose(
            actual, expected, rtol=0,
            atol=1e-12 * max(float(np.abs(expected).max()), 1.0),
            err_msg=layout)

