"""Numerical gradient checking used to validate every analytic gradient.

The test-suite calls :func:`gradcheck` on each primitive and composite
operation; it compares the autograd gradient against a central finite
difference computed in float64.

:func:`gradcheck` upcasts floating inputs to float64 copies, so float32
parameters are checked at full precision with the same tolerances.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.tensor.tensor import Tensor


def numerical_gradient(func: Callable[..., Tensor], inputs: Sequence[Tensor],
                       index: int, eps: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of ``func`` w.r.t. ``inputs[index]``.

    ``func`` must return a scalar :class:`Tensor`.
    """
    target = inputs[index]
    grad = np.zeros_like(target.data, dtype=np.float64)
    flat = target.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = float(func(*inputs).data)
        flat[i] = original - eps
        lower = float(func(*inputs).data)
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2.0 * eps)
    return grad


def _as_float64(tensor_input: Tensor) -> Tensor:
    """Upcast a float tensor to a float64 copy.

    Tensors already in float64 (and non-float tensors) pass through as the
    *same* object — case builders routinely close over a parameter and also
    list it as an input, so identity must be preserved whenever no upcast is
    required.
    """
    if tensor_input.data.dtype.kind != "f" or tensor_input.data.dtype == np.float64:
        return tensor_input
    upcast = Tensor(tensor_input.data.astype(np.float64),
                    requires_grad=tensor_input.requires_grad)
    return upcast


def gradcheck(func: Callable[..., Tensor], inputs: Sequence[Tensor],
              eps: float = 1e-5, atol: float = 1e-4, rtol: float = 1e-3) -> bool:
    """Verify analytic gradients of ``func`` against finite differences.

    Parameters
    ----------
    func:
        Function of the given tensors returning a scalar :class:`Tensor`.
    inputs:
        Tensors; those with ``requires_grad=True`` are checked.  Floating
        inputs are upcast to float64 copies internally, so the comparison
        always runs in full precision regardless of the inputs' dtype.

    Returns
    -------
    bool
        ``True`` when every checked gradient matches.  Raises
        ``AssertionError`` with a diagnostic message otherwise.
    """
    inputs = [_as_float64(tensor_input) for tensor_input in inputs]
    for tensor_input in inputs:
        if tensor_input.requires_grad:
            tensor_input.zero_grad()
    output = func(*inputs)
    if output.data.size != 1:
        raise ValueError("gradcheck requires a scalar-valued function")
    output.backward()
    for i, tensor_input in enumerate(inputs):
        if not tensor_input.requires_grad:
            continue
        analytic = tensor_input.grad
        if analytic is None:
            raise AssertionError(f"input {i} received no gradient")
        numeric = numerical_gradient(func, inputs, i, eps=eps)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            worst = np.max(np.abs(analytic - numeric))
            raise AssertionError(
                f"gradient mismatch for input {i}: max abs diff {worst:.3e}\n"
                f"analytic:\n{analytic}\nnumeric:\n{numeric}"
            )
    return True
