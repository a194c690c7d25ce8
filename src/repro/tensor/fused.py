"""Fused single-tape-node kernels for the training/inference hot path.

Every ISRec training step pays for a full-vocabulary softmax cross-entropy at
every real sequence position (Eq. 13) and ``L`` causal attention layers
(Eq. 3).  Composed from tape primitives, these take 6–10 tiny operations
each, so a single loss materialises half a dozen full-size temporaries plus
backward closures, and attention allocates a full ``(B, h, T, T)`` fill
tensor per layer just to mask.

This module provides the same operations as *one* tape node each, with a
hand-derived vector-Jacobian product:

- :func:`softmax` / :func:`log_softmax` — one shifted exp forward, the
  classic ``y * (g - <g, y>)`` / ``g - softmax * sum(g)`` backward.
- :func:`cross_entropy` — one logsumexp forward; the backward is the
  textbook ``softmax - one_hot`` scatter, never materialising the log-prob
  graph.
- :func:`attention` — masked scaled-dot-product attention: mask + softmax +
  weighted sum as a single op with a custom VJP (optionally applying an
  inverted-dropout mask to the attention weights inside the kernel).
- :func:`layer_norm` — normalisation + affine as one node with the standard
  three-term backward.

Each kernel is the only runtime path for its operation.  The composed
forms they replaced live in the test suite as oracles (``tests/composed.py``):
every kernel is gradchecked and matched against them, and whole models are
run through them by monkeypatching this module.  ISRec's decoder,
:func:`intent_decode` (Eq. 11's masked sum of per-concept reverse maps, one
GEMM over every position), keeps its oracle in
``tests/tensor/test_intent_kernels.py``; the transition's top-lambda
relaxation, :func:`norm_top_k`, keeps its in ``tests/core/test_top_lambda.py``.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import Tensor

_NEG_INF = -1e9


def _node(data: np.ndarray, parents: tuple[Tensor, ...], op: str, backward) -> Tensor:
    """Record ``data`` as a single tape node with a custom VJP closure."""
    out = parents[0]._make(np.asarray(data), parents, op)
    if out.requires_grad:
        out._backward = backward
    return out


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` as one tape node."""
    y = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        # dL/dx = y * (g - <g, y>): the softmax Jacobian applied in O(n).
        inner = (grad * y).sum(axis=axis, keepdims=True)
        x._accumulate(y * (grad - inner))

    return _node(y, (x,), "fused_softmax", backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis`` as one tape node."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    np.subtract(
        shifted,
        np.log(np.exp(shifted).sum(axis=axis, keepdims=True)),
        out=shifted,
    )

    def backward(grad: np.ndarray) -> None:
        # dL/dx = g - softmax * sum(g); softmax is recovered as exp(out).
        x._accumulate(grad - np.exp(shifted) * grad.sum(axis=axis, keepdims=True))

    return _node(shifted, (x,), "fused_log_softmax", backward)


# ----------------------------------------------------------------------
# Cross-entropy (Eq. 13)
# ----------------------------------------------------------------------
def cross_entropy(logits: Tensor, targets: np.ndarray,
                  mask: np.ndarray | None = None,
                  suppress_index: int | None = None) -> Tensor:
    """Mean NLL of integer ``targets`` under ``logits`` as one tape node.

    Forward is a single logsumexp; backward is ``softmax - one_hot`` scaled
    by each position's weight, written straight into one ``(N, V)`` buffer —
    the log-prob graph of the composed reference is never materialised.
    A position whose ``mask`` is 0 is excluded from the mean, and a mask
    that excludes every position raises :class:`ValueError`.

    ``suppress_index`` treats one vocabulary column as ``-inf`` inside the
    kernel (zero probability, zero gradient).  This replaces the
    ``logits + suppress`` constant-add that ``all_item_logits`` needs to
    ban the padding item, avoiding one full ``(B, T, V)`` temporary and
    tape node per training step.
    """
    targets = np.asarray(targets)
    data = logits.data
    vocabulary = data.shape[-1]
    flat = data.reshape(-1, vocabulary)
    count = flat.shape[0]
    index = targets.reshape(-1)
    rows = np.arange(count)

    # peak may include the suppressed column; any value >= the true maximum
    # keeps the exp shift stable, so no masked max pass is needed.
    peak = flat.max(axis=-1, keepdims=True)
    shifted = flat - peak
    np.exp(shifted, out=shifted)
    if suppress_index is not None:
        shifted[:, suppress_index] = 0.0
    denominator = shifted.sum(axis=-1)
    # nll_i = logsumexp(x_i) - x_i[target_i]
    nll = np.log(denominator) + peak[:, 0] - flat[rows, index]

    if mask is None:
        weights = np.full(count, 1.0 / count, dtype=data.dtype)
    else:
        mask_flat = np.asarray(mask, dtype=data.dtype).reshape(-1)
        total = float(mask_flat.sum())
        if total <= 0:
            raise ValueError("cross_entropy mask excludes every position")
        weights = mask_flat * (1.0 / total)
    value = np.asarray(nll @ weights, dtype=data.dtype)

    def backward(grad: np.ndarray) -> None:
        # Reuse the exp buffer: probs = shifted / denom, then the scatter.
        # The suppressed column already holds probability zero, and masked
        # positions (weight 0) contribute nothing after the final scale.
        probs = shifted
        probs /= denominator[:, None]
        probs[rows, index] -= 1.0
        if suppress_index is not None:
            probs[:, suppress_index] = 0.0
        probs *= (weights * float(grad))[:, None]
        # In-place shape assignment: `probs` owns its buffer, so this avoids
        # the defensive copy _accumulate makes for reshape views.
        probs.shape = data.shape
        logits._accumulate(probs)

    return _node(value, (logits,), "fused_cross_entropy", backward)


# ----------------------------------------------------------------------
# Intent-contrastive InfoNCE (ICSRec-style auxiliary objective)
# ----------------------------------------------------------------------
def info_nce(anchors: Tensor, positives: Tensor,
             temperature: float = 0.2, eps: float = 1e-8) -> Tensor:
    """Symmetric InfoNCE over two views of a batch as one tape node.

    ``anchors`` and ``positives`` are ``(N, D)`` intent representations of
    two augmented views of the same ``N`` sequences.  Both are L2-normalised
    (same ``sqrt(sum + eps)`` form as
    :func:`repro.tensor.functional.l2_normalize`), every pairwise cosine
    similarity is divided by ``temperature``, and the loss is the mean of
    the row-wise and column-wise cross-entropies with the diagonal as the
    positive class — in-batch negatives in both directions.

    The composed reference builds the same value from ~20 tape primitives;
    here forward is one normalised matmul plus two logsumexps and backward
    is a single hand-derived VJP: with
    ``G = grad/(2N) · (P_row + P_col) - grad/N · I`` scaled by
    ``1/temperature``, ``dA_hat = G @ P_hat`` and
    ``dP_hat = Gᵀ @ A_hat``, each pulled back through the normalisation via
    ``dX = inv_norm · (dX_hat - <dX_hat, X_hat> X_hat)``.
    """
    a = anchors.data
    p = positives.data
    if a.ndim != 2 or a.shape != p.shape:
        raise ValueError(
            f"info_nce expects matching (N, D) views, got {a.shape} and {p.shape}")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")

    inv_a = 1.0 / np.sqrt((a * a).sum(axis=-1, keepdims=True) + eps)
    inv_p = 1.0 / np.sqrt((p * p).sum(axis=-1, keepdims=True) + eps)
    a_hat = a * inv_a
    p_hat = p * inv_p
    logits = a_hat @ p_hat.T
    logits *= 1.0 / temperature
    count = logits.shape[0]
    rows = np.arange(count)
    diagonal = logits[rows, rows].copy()
    peak_row = logits.max(axis=1)
    lse_row = np.log(np.exp(logits - peak_row[:, None]).sum(axis=1)) + peak_row
    peak_col = logits.max(axis=0)
    lse_col = np.log(np.exp(logits - peak_col[None, :]).sum(axis=0)) + peak_col
    value = np.asarray(
        0.5 * ((lse_row - diagonal).mean() + (lse_col - diagonal).mean()),
        dtype=a.dtype)

    def backward(grad: np.ndarray) -> None:
        # Row/column softmaxes recovered stably from the cached logsumexps.
        score = np.exp(logits - lse_row[:, None])
        score += np.exp(logits - lse_col[None, :])
        score *= 0.5 / count
        score[rows, rows] -= 1.0 / count
        score *= float(grad) / temperature
        if anchors.requires_grad:
            d_hat = score @ p_hat
            anchors._accumulate(inv_a * (
                d_hat - (d_hat * a_hat).sum(axis=-1, keepdims=True) * a_hat))
        if positives.requires_grad:
            d_hat = score.T @ a_hat
            positives._accumulate(inv_p * (
                d_hat - (d_hat * p_hat).sum(axis=-1, keepdims=True) * p_hat))

    return _node(value, (anchors, positives), "fused_info_nce", backward)


# ----------------------------------------------------------------------
# Masked scaled-dot-product attention (Eq. 3)
# ----------------------------------------------------------------------
def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None,
              scale: float = 1.0, dropout_mask: np.ndarray | None = None) -> Tensor:
    """``softmax(mask(q kᵀ · scale)) @ v`` as a single tape node.

    Parameters
    ----------
    q, k, v:
        ``(..., T, head_dim)`` projections (any matching leading batch/head
        axes).
    mask:
        Optional boolean array broadcastable to the ``(..., T, T)`` score
        matrix, ``True`` where attention is forbidden.  Masking happens
        in-place on the score buffer — no full-size fill tensor is ever
        allocated.  A fully-masked row degrades to uniform weights exactly
        like the composed ``masked_fill`` + softmax reference, and its
        gradient w.r.t. ``q``/``k`` is zero (masked scores are constants).
    scale:
        Multiplier applied to the raw scores (``1/sqrt(head_dim)``).
    dropout_mask:
        Optional pre-scaled inverted-dropout multiplier applied to the
        attention weights inside the kernel (constant w.r.t. the gradient).
    """
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)

    scores = q.data @ np.swapaxes(k.data, -1, -2)
    if scale != 1.0:
        scores *= scale
    if mask is not None:
        np.copyto(scores, _NEG_INF, where=mask)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    weights = scores  # (..., T, T), the post-softmax attention weights
    applied = weights if dropout_mask is None else weights * dropout_mask
    out = applied @ v.data

    def backward(grad: np.ndarray) -> None:
        if v.requires_grad:
            v._accumulate(np.swapaxes(applied, -1, -2) @ grad)
        if q.requires_grad or k.requires_grad:
            dw = grad @ np.swapaxes(v.data, -1, -2)
            if dropout_mask is not None:
                dw *= dropout_mask
            ds = weights * (dw - (dw * weights).sum(axis=-1, keepdims=True))
            if mask is not None:
                # Masked scores are constants: no gradient may leak through,
                # matching the composed masked_fill reference (this only
                # matters for fully-masked rows, where weights are nonzero).
                np.copyto(ds, 0.0, where=mask)
            if scale != 1.0:
                ds *= scale
            if q.requires_grad:
                q._accumulate(ds @ k.data)
            if k.requires_grad:
                k._accumulate(np.swapaxes(ds, -1, -2) @ q.data)

    return _node(out, (q, k, v), "fused_attention", backward)


# ----------------------------------------------------------------------
# Layer normalisation
# ----------------------------------------------------------------------
def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Last-axis normalisation + affine as one tape node.

    Biased variance with ``eps`` inside the square root, as the standard
    Transformer layer norm, and uses the standard three-term
    backward ``dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))``.
    """
    mean = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mean
    variance = np.mean(xhat * xhat, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(variance + eps)
    xhat *= inv_std
    out = xhat * gamma.data
    np.add(out, beta.data, out=out)

    def backward(grad: np.ndarray) -> None:
        reduce_axes = tuple(range(grad.ndim - 1))
        if gamma.requires_grad:
            gamma._accumulate((grad * xhat).sum(axis=reduce_axes))
        if beta.requires_grad:
            beta._accumulate(grad.sum(axis=reduce_axes))
        if x.requires_grad:
            dxhat = grad * gamma.data
            x._accumulate(inv_std * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            ))

    return _node(out, (x, gamma, beta), "fused_layer_norm", backward)


# ----------------------------------------------------------------------
# ISRec intent decoder (Eq. 11) as one GEMM
# ----------------------------------------------------------------------
def intent_decode(features: Tensor, intention: Tensor, weight: Tensor,
                  bias: Tensor | None = None) -> Tensor:
    """Eq. (11), ``x = sum_k m_k (z_k W_k + b_k)``, as one tape node.

    ``features`` (``z``) is ``(..., K, in)``, ``intention`` (``m``)
    ``(..., K)``, ``weight`` ``(K, in, out)`` and ``bias`` ``(K, out)``; a
    bank of one map serves every concept.  With ``N`` positions the forward
    is one ``(N, K·in) @ (K·in, out)`` GEMM plus ``m @ b``, and the backward
    is ``∂W = (m⊙z)ᵀg``, ``∂b = mᵀg``, ``∂z = m⊙(gWᵀ)`` and
    ``∂m = <z, gWᵀ> + g·bᵀ``.  Neither the per-concept outputs
    ``(..., K, out)`` nor the per-position weight-gradient stack of a
    broadcast ``(..., K, 1, in) @ (K, in, out)`` matmul is ever built.
    ``tests/tensor/test_intent_kernels.py`` keeps that broadcast form as
    the equivalence oracle.
    """
    z, m, w = features.data, intention.data, weight.data
    *lead, concepts, width = z.shape
    banks = w.shape[0]
    if banks not in (1, concepts):
        raise ValueError(
            f"a bank of {banks} maps cannot read {concepts} concept slices")
    out_width = w.shape[-1]
    z = z.reshape(-1, concepts, width)
    m = m.reshape(-1, concepts)
    weighted = z * m[:, :, None]
    mass = m
    if banks == 1:
        weighted = weighted.sum(axis=1, keepdims=True)
        mass = m.sum(axis=1, keepdims=True)
    weighted = weighted.reshape(len(z), banks * width)
    flat_w = w.reshape(banks * width, out_width)
    out = weighted @ flat_w
    if bias is not None:
        out = out + mass @ bias.data

    def backward(grad: np.ndarray) -> None:
        g = grad.reshape(-1, out_width)
        if weight.requires_grad:
            weight._accumulate((weighted.T @ g).reshape(w.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(mass.T @ g)
        if not (features.requires_grad or intention.requires_grad):
            return
        back = (g @ flat_w.T).reshape(-1, banks, width)  # g Wᵀ per bank
        if features.requires_grad:
            features._accumulate((back * m[:, :, None]).reshape(features.shape))
        if intention.requires_grad:
            gm = (z * back).sum(axis=-1)
            if bias is not None:
                gm += g @ bias.data.T
            intention._accumulate(gm.reshape(intention.shape))

    parents = ((features, intention, weight) if bias is None
               else (features, intention, weight, bias))
    return _node(out.reshape(*lead, out_width), parents, "fused_intent_decode",
                 backward)


# ----------------------------------------------------------------------
# ISRec's top-lambda relaxation (§3.5, operator g) as one node
# ----------------------------------------------------------------------
def norm_top_k(features: Tensor, k: int, tau: float = 1.0,
               eps: float = 1e-8) -> Tensor:
    """Straight-through top-``k`` of feature norms as one tape node.

    ``features`` is ``(..., K, d')``.  With ``n = sqrt(sum_d z² + eps)``
    over the last axis, the forward value is the hard multi-hot
    ``hard_top_k(n, k)`` (:mod:`repro.nn.gumbel`) and the gradient is that
    of ``softmax(n / tau)``: ``∂z = z ⊙ s⊙(g - <g, s>) / (tau·n)``.  The
    squared norm is one GEMV over ``d'``.  The composed form (norm,
    scale, softmax, ``soft + (hard - soft)``) is the oracle in
    ``tests/core/test_top_lambda.py``.
    """
    from repro.nn.gumbel import hard_top_k  # repro.nn imports this module

    z = features.data
    width = z.shape[-1]
    squares = np.square(z).reshape(-1, width) @ np.ones(width, dtype=z.dtype)
    norms = np.sqrt(squares + eps).reshape(z.shape[:-1])
    soft = norms * (1.0 / tau)
    soft -= soft.max(axis=-1, keepdims=True)
    np.exp(soft, out=soft)
    soft /= soft.sum(axis=-1, keepdims=True)
    hard = hard_top_k(norms, k).astype(z.dtype, copy=False)

    def backward(grad: np.ndarray) -> None:
        concepts = grad.shape[-1]
        g = grad.reshape(-1, concepts)
        s = soft.reshape(-1, concepts)
        inner = np.einsum("ij,ij->i", g, s)
        scale = s * (g - inner[:, None])
        scale /= norms.reshape(-1, concepts) * tau
        features._accumulate(z * scale.reshape(norms.shape)[..., None])

    return _node(hard, (features,), "fused_norm_top_k", backward)
