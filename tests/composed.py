"""Composed reference implementations of the fused kernels.

Each function here builds one kernel of :mod:`repro.tensor.fused` from
several tape primitives, the way the layers computed it before the kernels
existed.  They are the oracles the kernels are checked against: directly
(gradcheck, 1e-5 equivalence, allocation counts) and through whole models,
by :func:`patch_composed`, which the ``composed_kernels`` fixture of
``tests/conftest.py`` applies.  The intent decoder's and the top-lambda
node's references live beside their own tests
(``tests/tensor/test_intent_kernels.py``, ``tests/core/test_top_lambda.py``).
"""

from __future__ import annotations

import numpy as np

from repro.tensor import functional as F
from repro.tensor import fused
from repro.tensor.tensor import Tensor

_NEG_INF = -1e9


def softmax_composed(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax built from ~4 tape primitives."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax_composed(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax built from ~5 tape primitives."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy_composed(logits: Tensor, targets: np.ndarray,
                           mask: np.ndarray | None = None,
                           suppress_index: int | None = None) -> Tensor:
    """Cross-entropy on the full log-softmax graph.

    ``suppress_index`` adds ``-1e9`` to that column explicitly, the way
    ``SequenceRecommender.all_item_logits`` bans the padding item.
    """
    if suppress_index is not None:
        ban = np.zeros(logits.shape[-1], dtype=logits.data.dtype)
        ban[suppress_index] = _NEG_INF
        logits = logits + Tensor(ban)
    targets = np.asarray(targets)
    logp = log_softmax_composed(logits, axis=-1)
    flat = logp.reshape(-1, logp.shape[-1])
    rows = np.arange(flat.shape[0])
    picked = flat[rows, targets.reshape(-1)]
    nll = -picked
    if mask is None:
        return nll.mean()
    mask_flat = np.asarray(mask, dtype=flat.dtype).reshape(-1)
    total = float(mask_flat.sum())
    if total <= 0:
        raise ValueError("cross_entropy mask excludes every position")
    return (nll * Tensor(mask_flat)).sum() * (1.0 / total)


def info_nce_composed(anchors: Tensor, positives: Tensor,
                      temperature: float = 0.2) -> Tensor:
    """Symmetric InfoNCE from normalise/matmul/cross-entropy primitives."""
    if anchors.ndim != 2 or anchors.shape != positives.shape:
        raise ValueError(
            "info_nce expects matching (N, D) views, got "
            f"{anchors.shape} and {positives.shape}")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    a_hat = F.l2_normalize(anchors, axis=-1)
    p_hat = F.l2_normalize(positives, axis=-1)
    logits = (a_hat @ p_hat.swapaxes(0, 1)) * (1.0 / temperature)
    targets = np.arange(anchors.shape[0])
    row_direction = cross_entropy_composed(logits, targets)
    col_direction = cross_entropy_composed(logits.swapaxes(0, 1), targets)
    return (row_direction + col_direction) * 0.5


def attention_composed(q: Tensor, k: Tensor, v: Tensor,
                       mask: np.ndarray | None = None, scale: float = 1.0,
                       dropout_mask: np.ndarray | None = None) -> Tensor:
    """Masked scaled-dot-product attention from matmul, fill and softmax."""
    scores = (q @ k.swapaxes(-1, -2)) * scale
    if mask is not None:
        scores = F.masked_fill(scores, mask, _NEG_INF)
    weights = softmax_composed(scores, axis=-1)
    if dropout_mask is not None:
        weights = weights * Tensor(dropout_mask)
    return weights @ v


def layer_norm_composed(x: Tensor, gamma: Tensor, beta: Tensor,
                        eps: float = 1e-5) -> Tensor:
    """Layer normalisation from ~9 tape primitives."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    variance = (centered * centered).mean(axis=-1, keepdims=True)
    normalized = centered / (variance + eps).sqrt()
    return normalized * gamma + beta


#: Each fused kernel the layers call, with its composed reference.
REFERENCES = {
    "softmax": softmax_composed,
    "log_softmax": log_softmax_composed,
    "cross_entropy": cross_entropy_composed,
    "info_nce": info_nce_composed,
    "attention": attention_composed,
    "layer_norm": layer_norm_composed,
}


def patch_composed(monkeypatch) -> None:
    """Route every call to a kernel in :data:`REFERENCES` to its reference."""
    for name, reference in REFERENCES.items():
        monkeypatch.setattr(fused, name, reference)
