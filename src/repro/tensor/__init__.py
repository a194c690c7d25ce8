"""A small reverse-mode automatic differentiation engine built on numpy.

This package is the substrate that replaces PyTorch in the ISRec
reproduction.  It provides:

- :class:`~repro.tensor.tensor.Tensor` — an n-dimensional array that records
  the operations applied to it and can back-propagate gradients.
- :mod:`~repro.tensor.functional` — composite differentiable operations
  (softmax, cross-entropy, cosine similarity, ...).
- :mod:`~repro.tensor.fused` — fused single-tape-node kernels for the
  training hot path (softmax, cross-entropy, masked attention, layer norm)
  with hand-derived VJPs, the only path those operations take.
- :mod:`~repro.tensor.gradcheck` — numerical gradient checking used by the
  test-suite to validate every analytic gradient.
- :func:`~repro.tensor.tensor.default_dtype` /
  :func:`~repro.tensor.tensor.use_dtype` — the thread-scoped float dtype of
  implicit tensor data and new parameters: float32 by default, float64 as
  the scoped full-precision reference.

Every operation supports numpy-style broadcasting; gradients of broadcast
operands are reduced back to the operand's shape.
"""

from repro.tensor.tensor import (
    Tensor, no_grad, inference_mode, is_grad_enabled, is_inference_mode,
    tensor, tensor_allocs, graph_nodes, zeros, ones, arange,
    default_dtype, use_dtype,
)
from repro.tensor import functional
from repro.tensor import fused
from repro.tensor.gradcheck import gradcheck, numerical_gradient

__all__ = [
    "Tensor",
    "tensor",
    "tensor_allocs",
    "graph_nodes",
    "default_dtype",
    "use_dtype",
    "zeros",
    "ones",
    "arange",
    "no_grad",
    "inference_mode",
    "is_grad_enabled",
    "is_inference_mode",
    "functional",
    "fused",
    "gradcheck",
    "numerical_gradient",
]
