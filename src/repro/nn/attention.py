"""Multi-head (self-)attention, causal or bidirectional.

Implements Eq. (3) of the paper.  SASRec and ISRec use the causal variant
(footnote 2: query ``i`` may only attend to keys ``j <= i``); BERT4Rec uses
the bidirectional variant.

The hot path (mask + softmax + weighted sum) runs as the fused
single-tape-node kernel :func:`repro.tensor.fused.attention`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.dropout import Dropout, _uniform
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.tensor import fused
from repro.tensor.tensor import Tensor, is_inference_mode

_CAUSAL_MASK_CACHE: dict[int, np.ndarray] = {}


def causal_mask(length: int) -> np.ndarray:
    """Boolean ``(length, length)`` mask, ``True`` where attention is forbidden.

    Cached per ``length`` (every forward of every layer reuses the same
    array) and returned read-only so the shared buffer cannot be mutated.
    """
    mask = _CAUSAL_MASK_CACHE.get(length)
    if mask is None:
        mask = np.triu(np.ones((length, length), dtype=bool), k=1)
        mask.setflags(write=False)
        _CAUSAL_MASK_CACHE[length] = mask
    return mask


class MultiHeadSelfAttention(Module):
    """Scaled dot-product self-attention with ``num_heads`` heads.

    Parameters
    ----------
    dim:
        Model dimensionality ``d`` (must be divisible by ``num_heads``).
    num_heads:
        Number of attention heads.
    dropout:
        Dropout on the attention weights.
    causal:
        When ``True``, position ``i`` can only attend to positions ``<= i``.
    """

    def __init__(self, dim: int, num_heads: int = 2, dropout: float = 0.1,
                 causal: bool = True):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.causal = causal
        self.scale = 1.0 / np.sqrt(self.head_dim)
        self.query = Linear(dim, dim)
        self.key = Linear(dim, dim)
        self.value = Linear(dim, dim)
        self.output = Linear(dim, dim)
        self.dropout = Dropout(dropout)

    def _split_heads(self, x: Tensor, batch: int, length: int) -> Tensor:
        return x.reshape(batch, length, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _forbidden_mask(self, batch: int, length: int,
                        key_padding_mask: np.ndarray | None) -> np.ndarray | None:
        """Mask broadcastable to the ``(B, h, T, T)`` scores, or ``None``.

        Without a padding mask this is just the precomputed ``(T, T)``
        causal mask (or nothing at all for the bidirectional variant) — the
        per-batch ``(B, 1, T, T)`` bool assembly only happens when padding
        actually requires it.
        """
        if key_padding_mask is None:
            return causal_mask(length) if self.causal else None
        forbidden = np.zeros((batch, 1, length, length), dtype=bool)
        if self.causal:
            forbidden |= causal_mask(length)[None, None]
        forbidden |= np.asarray(key_padding_mask, dtype=bool)[:, None, None, :]
        # Guard fully-masked rows (a padded query attending to nothing) by
        # letting them attend to themselves; their output is discarded anyway.
        fully_masked = forbidden.all(axis=-1, keepdims=True)
        if fully_masked.any():
            eye = np.eye(length, dtype=bool)[None, None]
            forbidden = forbidden & ~(fully_masked & eye)
        return forbidden

    def forward(self, x: Tensor, key_padding_mask: np.ndarray | None = None) -> Tensor:
        """Attend within each sequence of the ``(batch, length, dim)`` input.

        Parameters
        ----------
        key_padding_mask:
            Optional boolean ``(batch, length)`` array, ``True`` at padded
            positions which must never be attended to.
        """
        batch, length, _ = x.shape
        q = self._split_heads(self.query(x), batch, length)
        k = self._split_heads(self.key(x), batch, length)
        v = self._split_heads(self.value(x), batch, length)
        forbidden = self._forbidden_mask(batch, length, key_padding_mask)

        dropout_mask = None
        if self.training and self.dropout.p > 0.0 and not is_inference_mode():
            keep = 1.0 - self.dropout.p
            shape = (batch, self.num_heads, length, length)
            dropout_mask = (_uniform(shape, x.data.dtype) < keep).astype(x.data.dtype)
            dropout_mask *= 1.0 / keep
        context = fused.attention(q, k, v, mask=forbidden, scale=self.scale,
                                  dropout_mask=dropout_mask)
        merged = context.transpose(0, 2, 1, 3).reshape(batch, length, self.dim)
        return self.output(merged)
