"""Int8 weight quantization for the inference artifact.

Training stays in float; quantization happens once, at
:func:`~repro.serve.artifact.export_artifact` time, and only touches the
artifact on disk:

- :func:`quantize_per_channel` / :func:`dequantize` — symmetric per-channel
  int8 codecs for weight matrices: one float32 scale per output channel
  (row), values clipped to ``[-127, 127]`` so the representable range is
  symmetric and zero is exact.  A ``dim=64`` embedding table shrinks 4x.

:func:`~repro.serve.artifact.load_artifact` dequantizes every int8 matrix
back to float32 once, at load, so an int8 artifact is served by the same
:class:`~repro.serve.engine.RecommendationEngine` as a float one (and
rolls through :meth:`~repro.serve.cluster.ServingCluster.swap` unchanged).
Dequantizing at load beats an integer product on numpy, which has no int8
SIMD kernels.

Accuracy is validated two ways (``tests/serve/test_quantized.py`` and the
benchmark): top-10 overlap against the exact model's engine, and
HR@10/NDCG@10 parity of the quantized artifact.
"""

from __future__ import annotations

import numpy as np

#: Quantization modes accepted by ``export_artifact(quantize=...)``.
QUANT_SCHEMES = ("int8",)

#: Minimum dimensionality for a weight to be quantized at export: matrices
#: and embedding tables are; biases, gains, and other vectors stay float,
#: where quantization saves nothing and costs accuracy.
_MIN_QUANT_NDIM = 2


def quantize_per_channel(array: np.ndarray, axis: int = 0
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric per-channel int8 quantization of a float array.

    Each slice along ``axis`` (a "channel" — for an ``(V+1, dim)`` embedding
    table, one item's vector) gets its own scale ``max|w| / 127`` so that
    outlier rows do not crush the resolution of every other row.  Returns
    ``(q, scales)`` with ``q`` int8 of the input shape and ``scales`` a
    float32 vector of length ``array.shape[axis]``.  All-zero channels get
    scale 1.0 (they decode to exact zeros either way).
    """
    arr = np.asarray(array, dtype=np.float32)
    if arr.ndim < 1:
        raise ValueError("cannot per-channel quantize a scalar")
    moved = np.moveaxis(arr, axis, 0)
    flat = moved.reshape(moved.shape[0], -1)
    max_abs = np.abs(flat).max(axis=1)
    scales = np.where(max_abs > 0.0, max_abs / 127.0, 1.0).astype(np.float32)
    q = np.clip(np.rint(flat / scales[:, None]), -127, 127).astype(np.int8)
    q = np.moveaxis(q.reshape(moved.shape), 0, axis)
    return np.ascontiguousarray(q), scales


def dequantize(q: np.ndarray, scales: np.ndarray, axis: int = 0) -> np.ndarray:
    """Decode :func:`quantize_per_channel` output back to float32."""
    q = np.asarray(q)
    shape = [1] * q.ndim
    shape[axis] = -1
    scales = np.asarray(scales, dtype=np.float32).reshape(shape)
    return q.astype(np.float32) * scales
