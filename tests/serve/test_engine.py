"""RecommendationEngine tests: cache behaviour, top-K semantics, telemetry."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.serve import RecommendationEngine


class TestTopK:
    def test_recommend_returns_sorted_topk(self, engine):
        results = engine.recommend(0, k=5)
        assert len(results) == 5
        scores = [score for _item, score in results]
        assert scores == sorted(scores, reverse=True)
        items = [item for item, _score in results]
        assert len(set(items)) == 5
        assert all(1 <= item <= engine.model.num_items for item in items)

    def test_seen_items_suppressed(self, engine):
        seen = set(engine.history(0))
        assert seen, "fixture user should have a history"
        recommended = {item for item, _ in engine.recommend(0, k=10)}
        assert not (recommended & seen)

    def test_filter_seen_off_allows_seen_items(self, engine):
        # With a large enough k the unfiltered list must contain seen items
        # that the filtered list excludes.
        k = engine.model.num_items
        unfiltered = {item for item, _ in engine.recommend(0, k=k,
                                                           filter_seen=False)}
        assert set(engine.history(0)) <= unfiltered

    def test_padding_item_never_recommended(self, engine):
        items = [item for item, _ in
                 engine.recommend(0, k=engine.model.num_items,
                                  filter_seen=False)]
        assert 0 not in items

    def test_k_clamped_to_vocabulary(self, engine):
        results = engine.recommend(1, k=10_000, filter_seen=False)
        assert len(results) == engine.model.num_items

    def test_unknown_user_empty_history_works(self, engine):
        results = engine.recommend(99_999, k=3)
        assert len(results) == 3

    def test_recommend_deterministic(self, engine):
        assert engine.recommend(2, k=8) == engine.recommend(2, k=8)

    def test_k_below_one_rejected(self, engine):
        # argpartition(scores, -0)[-0:] is the whole array: k=0 used to
        # return every unseen item instead of failing.
        for k in (0, -3):
            with pytest.raises(ValueError, match="k must be >= 1"):
                engine.recommend(0, k=k)


class TestStateCache:
    def test_lru_eviction(self, frozen_model):
        engine = RecommendationEngine(frozen_model, cache_size=2)
        for user in (1, 2, 3):
            engine.set_history(user, [user, user + 1])
            engine.recommend(user, k=2)
        info = engine.cache_info()
        assert info["size"] == 2
        assert info["users"] == [2, 3]  # user 1 was least recently used

    def test_recommend_refreshes_lru_order(self, frozen_model):
        engine = RecommendationEngine(frozen_model, cache_size=2)
        for user in (1, 2):
            engine.set_history(user, [user, user + 1])
            engine.recommend(user, k=2)
        engine.recommend(1, k=2)  # touch 1 so 2 becomes the eviction victim
        engine.set_history(3, [3, 4])
        engine.recommend(3, k=2)
        assert engine.cache_info()["users"] == [1, 3]

    def test_observe_invalidates_state(self, engine):
        engine.recommend(0, k=3)
        cached_before = engine._states[0][0].copy()
        new_item = engine.recommend(0, k=1)[0][0]
        engine.observe(0, new_item)
        assert 0 not in engine._states
        engine.recommend(0, k=3)
        assert not np.array_equal(engine._states[0][0], cached_before)
        assert engine.history(0)[-1] == new_item

    def test_set_history_replaces_and_invalidates(self, engine):
        engine.recommend(5, k=2)
        engine.set_history(5, [1, 2, 3])
        assert 5 not in engine._states
        assert engine.history(5) == [1, 2, 3]


class TestTelemetry:
    def test_cache_counters_and_latency(self, engine):
        registry = obs.MetricsRegistry()
        previous = obs.set_registry(registry)
        try:
            with obs.use_telemetry():
                engine._states.pop(7, None)
                engine.recommend(7, k=3)  # miss
                engine.recommend(7, k=3)  # hit
            assert registry.counter("serve.cache.misses").value == 1
            assert registry.counter("serve.cache.hits").value == 1
            assert registry.counter("serve.requests").value == 2
            assert registry.gauge("serve.cache.size").value >= 1
            latency = registry.histogram("serve.request_latency_s")
            assert latency.count == 2
            snapshot = latency.snapshot()
            assert snapshot["p50"] is not None
            assert snapshot["p99"] >= snapshot["p50"]
        finally:
            obs.set_registry(previous)

    def test_disabled_telemetry_records_nothing(self, engine):
        registry = obs.MetricsRegistry()
        previous = obs.set_registry(registry)
        try:
            engine.recommend(0, k=3)
            assert registry.snapshot() == {}
        finally:
            obs.set_registry(previous)


class TestValidation:
    def test_bad_cache_size_rejected(self, frozen_model):
        with pytest.raises(ValueError, match="cache_size"):
            RecommendationEngine(frozen_model, cache_size=0)


class TestThreadSafety:
    def test_concurrent_mixed_operations_are_safe(self, frozen_model):
        # Hammer one engine from several threads with a small cache so
        # evictions race lookups; the internal lock must keep every
        # operation coherent (no KeyError from a mid-request eviction,
        # no cache overflow, no torn history).
        import threading

        engine = RecommendationEngine(frozen_model, cache_size=4)
        num_users = 12
        for user in range(num_users):
            engine.set_history(user, [1 + user % frozen_model.num_items])
        errors: list[BaseException] = []
        barrier = threading.Barrier(6)

        def worker(index: int) -> None:
            rng = np.random.default_rng(index)
            try:
                barrier.wait()
                for _ in range(40):
                    user = int(rng.integers(0, num_users))
                    op = rng.random()
                    if op < 0.25:
                        engine.observe(
                            user,
                            int(rng.integers(1, frozen_model.num_items + 1)))
                    elif op < 0.5:
                        engine.recommend((user + 1) % num_users, k=3,
                                         filter_seen=False)
                    else:
                        results = engine.recommend(user, k=3)
                        assert len(results) == 3
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        info = engine.cache_info()
        assert info["size"] <= info["capacity"]
        for user in range(num_users):
            assert len(engine.history(user)) >= 1
        assert sorted(engine.known_users()) == list(range(num_users))
