"""Composite differentiable operations built from :class:`~repro.tensor.Tensor` primitives.

These mirror the pieces of ``torch.nn.functional`` that the ISRec
reproduction needs: numerically stable softmax / log-softmax, sequence
cross-entropy with padding masks, cosine similarity (Eq. 6 of the paper),
binary cross-entropy for the pairwise baselines, and the BPR losses used by
BPR-MF / FPMC / GRU4Rec+.

The softmax family, :func:`cross_entropy` and :func:`info_nce` run as the
fused single-tape-node kernels of :mod:`repro.tensor.fused`, each gradchecked
against the composed form it replaced (kept as an oracle in the tests).
"""

from __future__ import annotations

import numpy as np

from repro.tensor import fused
from repro.tensor.tensor import Tensor, where


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (one fused tape node)."""
    return fused.softmax(x, axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis`` (one fused tape node)."""
    return fused.log_softmax(x, axis=axis)


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  mask: np.ndarray | None = None) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under ``logits``.

    Parameters
    ----------
    logits:
        ``(..., num_classes)`` unnormalised scores.
    targets:
        Integer array broadcastable to ``logits.shape[:-1]``.
    mask:
        Optional ``{0,1}`` float array matching ``targets``; positions with
        ``0`` are excluded from the mean (used for padded positions in a
        sequence, Eq. 13 of the paper).

    Runs as the fused single-node kernel :func:`repro.tensor.fused.cross_entropy`.
    """
    return fused.cross_entropy(logits, targets, mask)


def info_nce(anchors: Tensor, positives: Tensor, temperature: float = 0.2) -> Tensor:
    """Symmetric InfoNCE between two ``(N, D)`` views (Sec. "intent contrastive").

    Both views are L2-normalised, all ``N x N`` pairwise cosine similarities
    are divided by ``temperature``, and the loss averages the row-direction
    and column-direction cross-entropies with the matching pair on the
    diagonal as the positive class.  Runs as the fused single-node kernel
    :func:`repro.tensor.fused.info_nce`.
    """
    return fused.info_nce(anchors, positives, temperature=temperature)


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable log-sum-exp along ``axis``."""
    peak = Tensor(x.data.max(axis=axis, keepdims=True))
    out = (x - peak).exp().sum(axis=axis, keepdims=True).log() + peak
    if not keepdims:
        out = out.reshape(tuple(s for i, s in enumerate(out.shape) if i != axis % x.ndim))
    return out


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy on raw ``logits`` (numerically stable)."""
    targets_t = Tensor(np.asarray(targets, dtype=logits.data.dtype))
    # log(1 + exp(-|x|)) + max(x, 0) - x * t  (the standard stable form)
    abs_logits = logits.abs()
    softplus = ((-abs_logits).exp() + 1.0).log()
    positive_part = logits.relu()
    return (softplus + positive_part - logits * targets_t).mean()


def bpr_loss(positive_scores: Tensor, negative_scores: Tensor) -> Tensor:
    """Bayesian personalised ranking loss: ``-mean(log sigmoid(pos - neg))``."""
    diff = positive_scores - negative_scores
    # -log(sigmoid(d)) == softplus(-d)
    abs_diff = diff.abs()
    softplus = ((-abs_diff).exp() + 1.0).log()
    return (softplus + (-diff).relu()).mean()


def bpr_max_loss(positive_scores: Tensor, negative_scores: Tensor,
                 regularization: float = 1.0) -> Tensor:
    """BPR-max loss from the GRU4Rec+ paper (Hidasi & Karatzoglou 2018).

    Softmax weights over negatives concentrate the ranking penalty on the
    hardest negatives and a score regulariser keeps negative scores small.

    Parameters
    ----------
    positive_scores:
        ``(batch,)`` scores of ground-truth items.
    negative_scores:
        ``(batch, num_negatives)`` scores of sampled negatives.
    """
    weights = softmax(negative_scores, axis=-1)
    diff = positive_scores.reshape(-1, 1) - negative_scores
    ranked = (weights * diff.sigmoid()).sum(axis=-1)
    loss = -(ranked + 1e-8).log().mean()
    reg = (weights * negative_scores * negative_scores).sum(axis=-1).mean()
    return loss + regularization * reg


def cosine_similarity(a: Tensor, b: Tensor, axis: int = -1, eps: float = 1e-8) -> Tensor:
    """Cosine similarity along ``axis`` with broadcasting (Eq. 6).

    The paper adopts cosine rather than inner-product similarity to avoid
    the mode-collapse where only large-norm concepts are ever activated.
    """
    dot = (a * b).sum(axis=axis)
    norm_a = ((a * a).sum(axis=axis) + eps).sqrt()
    norm_b = ((b * b).sum(axis=axis) + eps).sqrt()
    return dot / (norm_a * norm_b)


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-8) -> Tensor:
    """Scale vectors along ``axis`` to unit L2 norm."""
    norm = ((x * x).sum(axis=axis, keepdims=True) + eps).sqrt()
    return x / norm


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Return ``x`` with positions where ``mask`` is true replaced by ``value``.

    The fill value broadcasts as a scalar through :func:`where`, so no
    full-size constant tensor is allocated (``mask`` itself may also be any
    shape broadcastable to ``x``, e.g. a shared ``(T, T)`` causal mask
    against ``(B, h, T, T)`` attention scores).
    """
    fill = Tensor(np.asarray(value, dtype=x.data.dtype))
    return where(np.asarray(mask, dtype=bool), fill, x)


def mean_squared_error(predictions: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error against constant targets."""
    diff = predictions - Tensor(np.asarray(targets, dtype=predictions.data.dtype))
    return (diff * diff).mean()
