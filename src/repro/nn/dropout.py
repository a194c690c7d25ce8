"""Inverted dropout."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor.tensor import Tensor, is_inference_mode
from repro.utils.seeding import get_rng


class Dropout(Module):
    """Zero activations with probability ``p`` during training, scaled by ``1/(1-p)``.

    A no-op in eval mode, when ``p == 0``, or inside
    :func:`repro.tensor.inference_mode` — the serving stack must stay
    deterministic even when handed a model left in training mode.
    """

    def __init__(self, p: float = 0.1):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p

    def forward(self, x: Tensor) -> Tensor:
        """Apply inverted dropout (identity in eval mode)."""
        if not self.training or self.p == 0.0 or is_inference_mode():
            return x
        keep = 1.0 - self.p
        mask = (_uniform(x.shape, x.data.dtype) < keep).astype(x.data.dtype)
        mask *= 1.0 / keep
        return x * Tensor(mask)


def _uniform(shape: tuple[int, ...], dtype) -> "np.ndarray":
    """Uniform [0, 1) draws natively in ``dtype`` when the generator can.

    Drawing float32 directly halves the RNG bandwidth of every dropout mask
    on the (float32) training hot path.
    """
    rng = get_rng()
    if dtype == np.float32:
        return rng.random(shape, dtype=np.float32)
    return rng.random(shape)
