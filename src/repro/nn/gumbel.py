"""Gumbel-Softmax estimators for the discrete intention vector (Eq. 5).

The paper samples the multi-hot intention vector ``m_t`` from a categorical
distribution over concepts and trains through the discrete sample with the
Gumbel-Softmax estimator (Jang et al. 2016).  We implement the straight-
through variant generalised to ``lambda`` simultaneous activations: the
forward pass emits a hard multi-hot vector with exactly ``lambda`` ones; the
backward pass flows through the underlying softmax relaxation.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import functional as F
from repro.tensor.tensor import Tensor
from repro.utils.seeding import get_rng


def sample_gumbel(shape: tuple[int, ...], eps: float = 1e-10) -> np.ndarray:
    """Draw standard Gumbel(0, 1) noise."""
    uniform = get_rng().random(shape)
    return -np.log(-np.log(uniform + eps) + eps)


#: Mantissa bits a score keeps in the selection key of :func:`hard_top_k`.
#: Scores within about ``2**-11`` of each other (relative) share a key, so a
#: perturbation at float32 rounding scale, or float32 against float64,
#: cannot reorder them.
KEY_MANTISSA_BITS = 11


def selection_key(scores: np.ndarray) -> np.ndarray:
    """Unique integer keys ordering ``scores`` along the last axis.

    A key is the score's bit pattern (mapped so that integer order is float
    order) with all but :data:`KEY_MANTISSA_BITS` mantissa bits replaced by
    the reversed position: scores that share their leading bits are ranked
    by position, the lowest index first.  Every key in a row is distinct,
    so a top-``k`` by key is unique.  Rows wider than the dropped bits can
    number are keyed in float64, which keeps the same mantissa bits.
    """
    scores = np.asarray(scores)
    width = scores.shape[-1]
    exact = (np.float32 if scores.dtype != np.float64 and width <= 1 << 12
             else np.float64)
    info = np.finfo(exact)
    itype = np.int32 if exact is np.float32 else np.int64
    key = scores.astype(exact).view(itype)
    sign = key >> (info.bits - 1)
    sign &= np.iinfo(itype).max
    key ^= sign
    key &= itype(-(1 << (info.nmant - KEY_MANTISSA_BITS)))
    key |= np.arange(width - 1, -1, -1, dtype=itype)
    return key


def hard_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Multi-hot indicator of the ``k`` largest entries along the last axis.

    Mirrors the paper's operator ``g`` (§3.5), which leaves ties undefined:
    entries are ranked by :func:`selection_key`, so near-equal scores go to
    the lowest index and rounding noise cannot flip the choice.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    keys = selection_key(scores)
    cut = max(keys.shape[-1] - k, 0)
    # The keys are unique, so exactly k of them reach the k-th largest.
    kth = np.partition(keys, cut, axis=-1)[..., cut:cut + 1]
    return (keys >= kth).astype(np.float32)


def gumbel_softmax(logits: Tensor, tau: float = 1.0, noise: bool = True) -> Tensor:
    """Relaxed one-hot sample: ``softmax((logits + Gumbel noise) / tau)``.

    The softmax runs through the fused kernel dispatched by ``F.softmax``
    (a single tape node; see :mod:`repro.tensor.fused`).
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    perturbed = logits
    if noise:
        perturbed = perturbed + Tensor(sample_gumbel(logits.shape).astype(logits.data.dtype))
    return F.softmax(perturbed * (1.0 / tau), axis=-1)


def gumbel_top_k(logits: Tensor, k: int, tau: float = 1.0, noise: bool = True) -> Tensor:
    """Straight-through multi-hot sample with exactly ``k`` active entries.

    Forward value is the hard multi-hot vector of the ``k`` largest perturbed
    logits; the gradient is that of the Gumbel-Softmax relaxation (the hard
    component is treated as a constant offset).

    Parameters
    ----------
    logits:
        ``(..., K)`` similarity scores (cosine similarities in ISRec).
    k:
        Number of simultaneously active concepts (the paper's ``lambda``).
    tau:
        Softmax temperature of the relaxation.
    noise:
        Disable to obtain a deterministic top-``k`` (used at evaluation time).
    """
    soft = gumbel_softmax(logits, tau=tau, noise=noise)
    hard = hard_top_k(soft.data, k)
    # out = hard + soft - stop_gradient(soft): forward == hard, grad == soft.
    return soft + Tensor(hard - soft.data)
