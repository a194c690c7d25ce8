"""Int8 weight quantization for the inference-only serving path.

Training stays in float; quantization happens once, at
:func:`~repro.serve.artifact.export_artifact` time, and only touches the
artifact and the serving stack:

- :func:`quantize_per_channel` / :func:`dequantize` — symmetric per-channel
  int8 codecs for weight matrices: one float32 scale per output channel
  (row), values clipped to ``[-127, 127]`` so the representable range is
  symmetric and zero is exact.  A ``dim=64`` embedding table shrinks 4x.
- :class:`QuantizedEngine` — a :class:`~repro.serve.engine.RecommendationEngine`
  whose scoring hot path is rebuilt around the quantized table: the int8
  weights are dequantized **once at load** into a contiguous float32 table,
  per-request scoring runs entirely in float32 into a preallocated scores
  buffer (the base engine upcasts every request's full-vocabulary scores to
  a fresh float64 array), and cached encoder states are stored as float16,
  halving state-cache memory.  Dequantizing at load beats an integer
  product on numpy, which has no int8 SIMD kernels.
- :func:`engine_for_artifact` — the factory the cluster workers use: it
  inspects the artifact's metadata and builds a :class:`QuantizedEngine`
  for quantized artifacts, a plain engine otherwise, so int8 artifacts roll
  through :meth:`~repro.serve.cluster.ServingCluster.swap` unchanged.

Accuracy is validated two ways (``tests/serve/test_quantized.py`` and the
benchmark): top-10 overlap against the exact engine, and HR@10/NDCG@10
parity of the quantized artifact under the offline evaluator.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.serve.engine import RecommendationEngine

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


class QuantizedEngine(RecommendationEngine):
    """Serve top-K from an int8-quantized item table.

    Parameters
    ----------
    model:
        The dequantized model from :func:`~repro.serve.artifact.load_artifact`
        (used for encoder forwards and the offline ``score`` protocol).
    item_q, item_scales:
        The raw int8 item-embedding table and its per-row scales, straight
        from the artifact; dequantized once into the float32 scoring table.
    state_dtype:
        Storage dtype of cached encoder states (default float16 — half the
        cache memory; states are upcast to float32 per request).
    event_log:
        Optional :class:`~repro.online.EventLog` observe tap (see the base
        engine).
    """

    def __init__(self, model, item_q: np.ndarray, item_scales: np.ndarray,
                 cache_size: int = 1024, state_dtype=np.float16, event_log=None):
        super().__init__(model, cache_size=cache_size, event_log=event_log)
        if np.asarray(item_q).dtype != np.int8:
            raise TypeError("item_q must be an int8 array")
        self.name = f"serve-int8({model.name})"
        self._item_q = np.ascontiguousarray(item_q)
        self._item_scales = np.asarray(item_scales, dtype=np.float32).reshape(-1)
        self._table = dequantize(self._item_q, self._item_scales)
        self._state_dtype = np.dtype(state_dtype)
        # Reused across requests (all scoring runs under the engine lock),
        # as is the per-user deduplicated seen-item index (recomputing
        # ``np.unique`` of the history on every warm request costs more
        # than the suppression itself).
        self._scores_buf = np.empty(self._table.shape[0], dtype=np.float32)
        self._seen_cache: dict[int, np.ndarray] = {}

    def _invalidate_user(self, user: int) -> None:
        # Runs under the engine lock (base-class contract), making the
        # history mutation and the seen-index invalidation atomic: a
        # concurrent recommend can no longer observe the new history with
        # the stale memoised index.
        super()._invalidate_user(user)
        self._seen_cache.pop(user, None)

    def _cache_put(self, user: int, state: np.ndarray) -> None:
        super()._cache_put(user, state.astype(self._state_dtype))

    def _seen_index(self, user: int) -> np.ndarray:
        suppress = self._seen_cache.get(user)
        if suppress is None:
            seen = self._histories.get(user)
            suppress = np.unique(np.asarray(seen if seen else [], dtype=np.int64))
            limit = self._table.shape[0]
            suppress = suppress[(suppress > 0) & (suppress < limit)]
            self._seen_cache[user] = suppress
        return suppress

    def _topk(self, user: int, k: int, filter_seen: bool) -> list[tuple[int, float]]:
        """Float32 scoring over the quantized table; exact partial sort.

        Unlike the base engine this never materialises a float64 copy of
        the full-vocabulary scores — the argpartition/lexsort ranking is
        dtype-agnostic and the returned scores are Python floats anyway —
        and the result list is assembled through vectorised ``tolist()``
        instead of per-item numpy scalar conversions.
        """
        state = self._states[user].astype(np.float32)
        scores = np.matmul(self._table, state, out=self._scores_buf)
        scores[0] = -np.inf  # padding id is never recommended
        if filter_seen:
            suppress = self._seen_index(user)
            if suppress.size:
                scores[suppress] = -np.inf
        k = min(int(k), self.model.num_items)
        winners = np.argpartition(scores, -k)[-k:]
        winners = winners[np.lexsort((winners, -scores[winners]))]
        values = scores[winners]
        finite = np.isfinite(values)
        return list(zip(winners[finite].tolist(),
                        values[finite].astype(np.float64).tolist()))

    def quantization_info(self) -> dict:
        """Scheme, table shape, and memory footprint versus float32."""
        int8_bytes = self._item_q.nbytes + self._item_scales.nbytes
        return {
            "scheme": "int8",
            "table_shape": tuple(self._item_q.shape),
            "state_dtype": self._state_dtype.name,
            "int8_bytes": int(int8_bytes),
            "float32_bytes": int(self._table.nbytes),
            "compression": float(self._table.nbytes / int8_bytes),
        }


def engine_for_artifact(path: str | Path, cache_size: int = 1024,
                        event_log=None) -> RecommendationEngine:
    """Build the right engine for an artifact.

    Quantized artifacts (``export_artifact(..., quantize="int8")``) get a
    :class:`QuantizedEngine` wired to the raw int8 item table; plain
    artifacts get a :class:`~repro.serve.engine.RecommendationEngine`.
    This is the factory :class:`~repro.serve.cluster.ServingCluster`
    workers build their shards through, which is what makes artifact
    hot-swap quantization-transparent.
    """
    from repro.serve.artifact import load_artifact, read_quantization

    model = load_artifact(path)
    quantized = read_quantization(path)
    if quantized:
        for name, (q, scales) in quantized.items():
            if name.endswith("item_embedding.weight"):
                return QuantizedEngine(model, q, scales,
                                       cache_size=cache_size,
                                       event_log=event_log)
    return RecommendationEngine(model, cache_size=cache_size,
                                event_log=event_log)
