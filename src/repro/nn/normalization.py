"""Layer normalisation."""

from __future__ import annotations

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import fused
from repro.tensor.tensor import Tensor


class LayerNorm(Module):
    """Normalise the last dimension to zero mean / unit variance, then scale-shift.

    Matches the standard Transformer usage (applied after residual adds in
    the encoder of the paper, §3.3).  The forward runs as the fused
    single-tape-node kernel :func:`repro.tensor.fused.layer_norm`.
    """

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(init.ones((dim,)))
        self.beta = Parameter(init.zeros((dim,)))

    def forward(self, x: Tensor) -> Tensor:
        """Normalise the last axis, then apply the learned scale/shift."""
        return fused.layer_norm(x, self.gamma, self.beta, self.eps)
