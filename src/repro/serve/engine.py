"""Top-K recommendation engine over a frozen model.

The engine owns two pieces of per-user state:

- **histories** — the source of truth: every item the user has interacted
  with, updated through :meth:`RecommendationEngine.observe` /
  :meth:`~RecommendationEngine.set_history`;
- **cache entries** — a bounded LRU cache mapping a user to the final
  hidden state of the frozen encoder over their (left-padded, clipped to
  ``max_len``) history, together with the deduplicated index of the
  items that history contains.  A new interaction drops the entry; the
  next request recomputes both lazily in one ``B=1`` forward.

All model evaluation runs under :func:`repro.tensor.inference_mode`, so a
request allocates zero autograd graph nodes (asserted by the parity
tests via :func:`repro.tensor.graph_nodes`).  Top-K extraction is an
exact partial sort: the full-catalogue logits (the same ``state @ V^T``
product as Eq. 12) are written into a preallocated buffer in the item
table's own dtype, the padding column and — optionally — already-seen
items are suppressed to ``-inf`` (mirroring the ``suppress_index``
convention of the fused training kernel), ``np.argpartition`` picks the
``k`` winners and an ordering sort ranks just those.

An int8 artifact (``export_artifact(..., quantize="int8")``) is served by
the same class: :func:`~repro.serve.artifact.load_artifact` dequantizes
its matrices into the model, so the engine scores over the dequantized
``item_embedding`` table.

For offline validation the engine also implements the
``score(users, inputs, candidates)`` protocol of
:class:`~repro.models.base.Recommender` by delegating to the model's own
``score`` under :func:`~repro.tensor.inference_mode`, so
``RankingEvaluator.evaluate(engine)`` reproduces the training-side
evaluation bit for bit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro import obs
from repro.data.batching import pad_left
from repro.models.base import SequenceRecommender
from repro.tensor.tensor import inference_mode


class RecommendationEngine:
    """Serve exact top-K recommendations from a frozen model.

    Parameters
    ----------
    model:
        A :class:`~repro.models.base.SequenceRecommender`, typically from
        :func:`repro.serve.load_artifact`.  Forced into eval mode.
    cache_size:
        Maximum number of per-user cache entries (encoder state plus
        seen-item index) kept in the LRU cache.
    event_log:
        Optional :class:`~repro.online.EventLog` that every ``observe``
        is appended to (under the engine lock, so event order matches
        history order) — the tap the online-learning loop consumes.
    """

    def __init__(self, model: SequenceRecommender, cache_size: int = 1024,
                 event_log=None):
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        model.eval()
        self.model = model
        self.cache_size = int(cache_size)
        self.event_log = event_log
        self.name = f"serve({model.name})"
        self.max_len = model.max_len
        self._histories: dict[int, list[int]] = {}
        # user -> (final encoder state, sorted unique seen item ids).
        self._states: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        # Full-catalogue scores, reused by every request (all scoring runs
        # under the engine lock).
        table = model.item_embedding.weight.data
        self._scores = np.empty(table.shape[0], dtype=table.dtype)
        # One reentrant lock serialises every history/state-cache mutation:
        # concurrent recommend()/observe() callers would otherwise race the
        # LRU (an eviction between the refresh and the top-K drops the entry).
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # History management
    # ------------------------------------------------------------------
    def _invalidate_user(self, user: int) -> None:
        """Drop ``user``'s cache entry (state and seen index together).

        Called under the engine lock by every history mutation, so a
        mutation and its cache invalidation are atomic with respect to
        concurrent requests.
        """
        self._states.pop(user, None)

    def set_history(self, user: int, items) -> None:
        """Replace ``user``'s interaction history (invalidates the state)."""
        user = int(user)
        history = [int(item) for item in np.asarray(items).ravel()]
        with self._lock:
            self._histories[user] = history
            self._invalidate_user(user)

    def observe(self, user: int, item: int) -> None:
        """Append one new interaction (invalidates the cached state)."""
        user, item = int(user), int(item)
        with self._lock:
            self._histories.setdefault(user, []).append(item)
            self._invalidate_user(user)
            if self.event_log is not None:
                self.event_log.append(user, item)

    def history(self, user: int) -> list[int]:
        """The full recorded interaction history of ``user``."""
        with self._lock:
            return list(self._histories.get(int(user), []))

    def known_users(self) -> list[int]:
        """Every user with a recorded history (for state migration)."""
        with self._lock:
            return list(self._histories)

    # ------------------------------------------------------------------
    # State cache
    # ------------------------------------------------------------------
    def cache_info(self) -> dict:
        """Current cache occupancy (``size``/``capacity``/cached users)."""
        with self._lock:
            return {"size": len(self._states), "capacity": self.cache_size,
                    "users": list(self._states)}

    def _entry_for(self, user: int) -> tuple[np.ndarray, np.ndarray]:
        """``user``'s cache entry, recomputed by one forward on a miss."""
        entry = self._states.get(user)
        if entry is not None:
            self._states.move_to_end(user)
            return entry
        history = np.asarray(self._histories.get(user, []), dtype=np.int64)
        with inference_mode():
            states = self.model.sequence_output(pad_left([history], self.max_len))
        # Explicit copy: the row is a *view* into the forward buffer, and
        # caching it would keep the whole (max_len, dim) output alive.
        state = np.asarray(states.data)[0, -1, :].copy()
        seen = np.unique(history)
        seen = seen[(seen > 0) & (seen < len(self._scores))]
        entry = self._states[user] = (state, seen)
        while len(self._states) > self.cache_size:
            self._states.popitem(last=False)
            if obs.telemetry_enabled():
                obs.counter("serve.cache.evictions").inc()
        if obs.telemetry_enabled():
            obs.gauge("serve.cache.size").set(len(self._states))
        return entry

    # ------------------------------------------------------------------
    # Recommendation
    # ------------------------------------------------------------------
    def recommend(self, user: int, k: int = 10,
                  filter_seen: bool = True) -> list[tuple[int, float]]:
        """Top-``k`` ``(item, score)`` pairs for ``user``, best first."""
        k = int(k)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        with obs.timer("serve.request_latency_s"), self._lock:
            user = int(user)
            if obs.telemetry_enabled():
                obs.counter("serve.requests").inc()
                name = ("serve.cache.hits" if user in self._states
                        else "serve.cache.misses")
                obs.counter(name).inc()
            state, seen = self._entry_for(user)
            scores = np.matmul(self.model.item_embedding.weight.data, state,
                               out=self._scores)
            scores[0] = -np.inf  # padding id is never recommended
            if filter_seen and seen.size:
                scores[seen] = -np.inf
            k = min(k, self.model.num_items)
            winners = np.argpartition(scores, -k)[-k:]
            # Order the k winners by descending score, ties by ascending id.
            winners = winners[np.lexsort((winners, -scores[winners]))]
            values = scores[winners]
            finite = np.isfinite(values)
            return list(zip(winners[finite].tolist(),
                            values[finite].tolist()))

    # ------------------------------------------------------------------
    # Recommender protocol (offline parity with the evaluator)
    # ------------------------------------------------------------------
    def score(self, users: np.ndarray, inputs: np.ndarray,
              candidates: np.ndarray) -> np.ndarray:
        """Candidate scores: the model's own ``score``, without a tape."""
        with inference_mode():
            return self.model.score(users, inputs, candidates)
