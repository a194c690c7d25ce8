"""ServingCluster functional tests: routing, parity, swap, lifecycle.

Fault-injection coverage (kills, corruption, slow/failing forwards) lives
in ``test_chaos.py`` under the ``faults`` marker; this module covers the
sunny-day contract plus the in-process router/queue units.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.models.pop import PopRec
from repro.serve import (
    ClusterConfig,
    Overloaded,
    RecommendationEngine,
    ServeError,
    ServingCluster,
    load_artifact,
)
from repro.serve.router import Router, ShardQueue, ShardRequest
from repro.utils.serialization import CheckpointIntegrityError


def fast_config(**overrides) -> ClusterConfig:
    """A cluster config tuned for tiny models on slow CI machines."""
    settings = dict(world=2, default_deadline_s=10.0, max_retries=2,
                    down_gate_s=2.0, heartbeat_interval_s=0.1,
                    check_interval_s=0.02, restart_backoff_s=0.05,
                    startup_timeout_s=60.0)
    settings.update(overrides)
    return ClusterConfig(**settings)


# ----------------------------------------------------------------------
# In-process units: queue + router
# ----------------------------------------------------------------------
class TestShardQueue:
    def test_sheds_recommend_beyond_limit(self):
        queue = ShardQueue(shard=0, limit=2)
        queue.put(ShardRequest("recommend", user=0))
        queue.put(ShardRequest("recommend", user=2))
        with pytest.raises(Overloaded) as excinfo:
            queue.put(ShardRequest("recommend", user=4))
        assert excinfo.value.shard == 0
        assert excinfo.value.limit == 2

    def test_control_traffic_bypasses_limit(self):
        queue = ShardQueue(shard=0, limit=1)
        queue.put(ShardRequest("recommend", user=0))
        queue.put(ShardRequest("ping", payload=1), enforce_limit=False)
        queue.put(ShardRequest("history", user=0, payload=[1]),
                  enforce_limit=False)
        assert queue.depth() == 3

    def test_queued_control_traffic_does_not_shed_recommends(self):
        # A bulk history load leaves many syncs queued; they must not count
        # against the recommend admission limit.
        limit = 4
        queue = ShardQueue(shard=0, limit=limit)
        for user in range(limit + 3):
            queue.put(ShardRequest("history", user=user, payload=[1]),
                      enforce_limit=False)
        queue.put(ShardRequest("recommend", user=0))
        for user in range(1, limit):
            queue.put(ShardRequest("recommend", user=user))
        with pytest.raises(Overloaded) as excinfo:
            queue.put(ShardRequest("recommend", user=limit))
        assert excinfo.value.depth == limit
        assert queue.depth() == 2 * limit + 3
        # Popping a recommend frees one admission slot.
        while queue.get(timeout=0.1).kind != "recommend":
            pass
        queue.put(ShardRequest("recommend", user=limit))

    def test_recommend_count_survives_concurrent_traffic(self):
        # Producers and dispatchers race on the admission count; once the
        # queue is empty again exactly ``limit`` recommends must fit.
        limit = 3
        queue = ShardQueue(shard=0, limit=limit)
        stop = threading.Event()

        def produce():
            for user in range(300):
                queue.put(ShardRequest("history", user=user, payload=[1]),
                          enforce_limit=False)
                try:
                    queue.put(ShardRequest("recommend", user=user))
                except Overloaded:
                    pass

        def consume():
            while not stop.is_set():
                queue.get(timeout=0.01)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            consumers = [threading.Thread(target=consume) for _ in range(2)]
            producers = [threading.Thread(target=produce) for _ in range(4)]
            for thread in consumers + producers:
                thread.start()
            for thread in producers:
                thread.join(timeout=30.0)
            stop.set()
            for thread in consumers:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in consumers + producers)
        queue.drain(ServeError("reset"))
        for user in range(limit):
            queue.put(ShardRequest("recommend", user=user))
        with pytest.raises(Overloaded):
            queue.put(ShardRequest("recommend", user=limit))

    def test_backoff_entries_do_not_block_fresh_traffic(self):
        queue = ShardQueue(shard=0, limit=8)
        retry = ShardRequest("recommend", user=0)
        retry.not_before = time.monotonic() + 30.0  # far future
        queue.requeue(retry)
        fresh = ShardRequest("recommend", user=2)
        queue.put(fresh)
        assert queue.get(timeout=1.0) is fresh

    def test_get_times_out_empty(self):
        queue = ShardQueue(shard=0, limit=2)
        start = time.monotonic()
        assert queue.get(timeout=0.05) is None
        assert time.monotonic() - start < 1.0

    def test_drain_fails_everything(self):
        queue = ShardQueue(shard=0, limit=4)
        requests = [ShardRequest("recommend", user=user)
                    for user in (0, 2, 4)]
        for request in requests:
            queue.put(request)
        assert queue.drain(ServeError("gone")) == 3
        for request in requests:
            assert isinstance(request.error, ServeError)
            assert request.done.is_set()


class TestRouter:
    def test_shard_assignment_is_stable(self):
        router = Router(world=3, queue_limit=4, num_items=10)
        assert [router.shard_of(user) for user in range(6)] == \
            [0, 1, 2, 0, 1, 2]

    def test_histories_feed_fallback(self):
        router = Router(world=2, queue_limit=4, num_items=5)
        router.set_history(0, [2, 2, 3])
        router.observe(0, 2)
        response = router.degraded_response(7, k=2, filter_seen=False)
        assert response.degraded
        assert [item for item, _s in response.items] == [2, 3]

    def test_degraded_response_filters_seen(self):
        router = Router(world=2, queue_limit=4, num_items=5)
        router.set_history(1, [2, 2, 3])
        response = router.degraded_response(1, k=2, filter_seen=True)
        items = [item for item, _s in response.items]
        assert 2 not in items and 3 not in items

    def test_users_of_shard_partitions(self):
        router = Router(world=2, queue_limit=4, num_items=5)
        for user in range(6):
            router.set_history(user, [1])
        assert [user for user, _h in router.users_of_shard(0)] == [0, 2, 4]
        assert [user for user, _h in router.users_of_shard(1)] == [1, 3, 5]


# ----------------------------------------------------------------------
# Full cluster (forked workers)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cluster(artifact_path, tiny_split):
    with ServingCluster(artifact_path, fast_config()) as cluster:
        for user in range(tiny_split.num_users):
            cluster.set_history(user, np.asarray(tiny_split.test_input(user)))
        yield cluster


class TestClusterServing:
    def test_matches_single_engine_exactly(self, cluster, artifact_path,
                                           tiny_split):
        engine = RecommendationEngine(load_artifact(artifact_path))
        for user in (0, 1, 5, 8):
            engine.set_history(user, np.asarray(tiny_split.test_input(user)))
            response = cluster.recommend(user, k=5)
            assert not response.degraded
            assert response.shard == user % cluster.config.world
            expected = engine.recommend(user, k=5)
            assert [item for item, _s in response.items] == \
                [item for item, _s in expected]

    def test_cold_user_is_served(self, cluster, tiny_split):
        cold = tiny_split.num_users + 10  # no history anywhere
        response = cluster.recommend(cold, k=3)
        assert not response.degraded
        assert len(response.items) == 3

    def test_observe_reaches_the_shard_replica(self, cluster):
        user = 21
        target = cluster.recommend(user, k=1,
                                   filter_seen=True).items[0][0]
        cluster.observe(user, target)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:  # the sync is asynchronous
            items = [item for item, _s in
                     cluster.recommend(user, k=5).items]
            if target not in items:
                break
            time.sleep(0.02)
        assert target not in items

    def test_brownout_degrades_instantly(self, cluster):
        cluster.set_brownout(True)
        try:
            start = time.perf_counter()
            response = cluster.recommend(2, k=3)
            assert response.degraded
            assert response.attempts == 0
            assert time.perf_counter() - start < 1.0
        finally:
            cluster.set_brownout(False)
        assert not cluster.recommend(2, k=3).degraded

    def test_stats_shape(self, cluster, artifact_path):
        stats = cluster.stats()
        assert stats["artifact"] == str(artifact_path)
        assert stats["world"] == 2
        assert len(stats["workers"]) == 2
        assert all(worker["ready"] for worker in stats["workers"])
        assert set(stats["router"]) == {"admitted", "shed", "degraded",
                                        "retries", "deadline_exceeded"}

    def test_worker_pids_are_live_children(self, cluster):
        import os

        pids = cluster.worker_pids()
        assert set(pids) == {0, 1}
        for pid in pids.values():
            os.kill(pid, 0)  # signal 0: existence check only

    def test_invalid_deadline_rejected(self, cluster):
        with pytest.raises(ValueError, match="deadline_s"):
            cluster.recommend(0, k=3, deadline_s=0.0)

    def test_k_below_one_rejected_before_admission(self, cluster):
        # k=0 used to be admitted and answered with the whole catalogue
        # (pickled back over the pipe); it must fail before brownout or
        # admission, so nothing reaches a queue or the fallback.
        before = cluster.stats()["router"]
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be >= 1"):
                cluster.recommend(0, k=k)
        cluster.set_brownout(True)
        try:
            with pytest.raises(ValueError, match="k must be >= 1"):
                cluster.recommend(0, k=0)
        finally:
            cluster.set_brownout(False)
        after = cluster.stats()["router"]
        assert after["admitted"] == before["admitted"]
        assert after["degraded"] == before["degraded"]


class TestClusterSwap:
    def test_swap_rolls_all_workers(self, artifact_path, tiny_dataset,
                                    tmp_path):
        from repro.core.config import ISRecConfig
        from repro.core.isrec import ISRec
        from repro.serve import export_artifact
        from repro.utils import set_seed

        set_seed(123)
        other = ISRec.from_dataset(tiny_dataset, max_len=12,
                                   config=ISRecConfig(dim=16))
        other_path = export_artifact(other, tmp_path / "other.npz")
        with ServingCluster(artifact_path, fast_config()) as cluster:
            cluster.set_history(0, [1, 2, 3])
            before = cluster.recommend(0, k=5)
            summary = cluster.swap(other_path)
            assert cluster.artifact_path == other_path
            assert cluster.swaps == 1
            assert summary["previous"] == str(artifact_path)
            after = cluster.recommend(0, k=5)
            assert not after.degraded
            # Different weights: rankings should differ (overwhelmingly).
            assert [i for i, _s in before.items] != \
                [i for i, _s in after.items]
            # History survived the swap (state migration).
            assert {1, 2, 3}.isdisjoint(
                item for item, _s in after.items)

    def test_swap_wrong_vocabulary_rolls_back(self, artifact_path,
                                              tmp_path):
        from repro.core.config import ISRecConfig
        from repro.core.isrec import ISRec
        from repro.serve import SwapFailed, export_artifact

        rng = np.random.default_rng(5)
        concepts = rng.random((31, 4)).astype(np.float32)
        concepts[0] = 0.0
        small = ISRec(30, concepts, np.eye(4, dtype=np.float32),
                      max_len=12, config=ISRecConfig(dim=16))
        small_path = export_artifact(small, tmp_path / "small.npz")
        with ServingCluster(artifact_path, fast_config()) as cluster:
            with pytest.raises(SwapFailed, match="vocabulary mismatch"):
                cluster.swap(small_path)
            assert cluster.artifact_path == artifact_path
            assert cluster.swaps == 0
            assert not cluster.recommend(0, k=3).degraded


class TestClusterLifecycle:
    def test_close_is_idempotent_and_late_calls_raise(self, artifact_path):
        cluster = ServingCluster(artifact_path, fast_config())
        assert not cluster.recommend(0, k=2).degraded
        cluster.close()
        cluster.close()
        with pytest.raises(ServeError, match="closed"):
            cluster.recommend(0, k=2)
        with pytest.raises(ServeError, match="closed"):
            cluster.observe(0, 1)

    def test_workers_terminate_on_close(self, artifact_path):
        import os

        cluster = ServingCluster(artifact_path, fast_config())
        pids = list(cluster.worker_pids().values())
        cluster.close()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            alive = []
            for pid in pids:
                try:
                    os.kill(pid, 0)
                    alive.append(pid)
                except ProcessLookupError:
                    pass
            if not alive:
                break
            time.sleep(0.05)
        assert not alive

    def test_rejects_non_artifact_file(self, tmp_path):
        pop = PopRec.from_counts(np.arange(8, dtype=np.float64))
        pop_path = pop.save(tmp_path / "pop.npz")
        with pytest.raises(CheckpointIntegrityError, match="artifact"):
            ServingCluster(pop_path, fast_config())

    def test_rejects_mismatched_fallback(self, artifact_path):
        wrong = PopRec.from_counts(np.zeros(10))
        with pytest.raises(ValueError, match="fallback"):
            ServingCluster(artifact_path, fast_config(), fallback=wrong)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="world"):
            ClusterConfig(world=0)
        with pytest.raises(ValueError, match="queue_limit"):
            ClusterConfig(queue_limit=0)
        with pytest.raises(ValueError, match="max_retries"):
            ClusterConfig(max_retries=-1)
        with pytest.raises(ValueError, match="default_deadline_s"):
            ClusterConfig(default_deadline_s=0.0)
