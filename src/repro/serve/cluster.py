"""Supervised, sharded, multi-process serving runtime.

:class:`ServingCluster` wraps the single-process
:class:`~repro.serve.engine.RecommendationEngine` in the robustness
skeleton a production serving tier needs (``docs/resilience.md``):

- **Sharding.**  ``world`` forked worker processes, each owning the users
  with ``user % world == shard`` and running its own engine over the same
  checksummed ``inference_artifact``.  The parent keeps the authoritative
  histories (in the :class:`~repro.serve.router.Router`), so a worker is
  disposable state: kill it and its replacement is re-seeded.
- **Supervision.**  A :class:`~repro.serve.supervisor.Supervisor` thread
  health-checks every worker (process liveness, dispatcher-observed pipe
  failures and liveness budgets, heartbeat pings over the request pipe)
  and restarts crashed or hung workers with rate-limited backoff.
- **Deadlines and retries.**  Every request carries a deadline budget; a
  request in flight on a dying worker is retried on the restarted worker
  under jittered exponential backoff, bounded by ``max_retries`` and the
  remaining budget, after which it resolves to a typed error or a
  degraded fallback — never a hang, never a silent drop.
- **Admission control and degradation.**  Bounded per-shard queues shed
  excess load with :class:`~repro.serve.router.Overloaded`; a shard that
  is down past its budget — or the whole cluster in brownout — answers
  from the router-resident popularity model with ``degraded=True``.
- **Hot-swap with rollback.**  :meth:`ServingCluster.swap` validates a
  new artifact on one canary worker (checksum verification + golden
  -request probe) before rolling it across the remaining workers one at a
  time; any failure rolls already-swapped workers back to the previous
  artifact and raises :class:`~repro.serve.router.SwapFailed`.  Requests
  keep flowing during the roll (each worker is briefly busy loading; its
  queue absorbs the blip).

Fault injection for the chaos suite enters through
``fault_plans={shard: ServeFaultPlan(...)}``
(:class:`repro.utils.faults.ServeFaultPlan`); the worker wraps its engine
in a :class:`repro.utils.faults.FaultyServeEngine`.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import obs
from repro.models.pop import PopRec
from repro.online.events import EventLog
from repro.serve.artifact import ARTIFACT_KIND, load_artifact
from repro.serve.engine import RecommendationEngine
from repro.serve.router import (
    DeadlineExceeded,
    Router,
    ServeError,
    ServeResponse,
    ShardRequest,
    ShardUnavailable,
    SwapFailed,
)
from repro.serve.supervisor import Supervisor, WorkerHandle
from repro.utils.serialization import (
    CheckpointIntegrityError,
    normalize_checkpoint_path,
    read_npz_verified,
)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _build_engine(artifact_path: str, cache_size: int, fault_plan):
    """Build the (optionally faulty) worker engine for an artifact.

    :func:`~repro.serve.artifact.load_artifact` dequantizes an int8
    artifact, so a worker handed one — at boot or mid-roll via
    :meth:`ServingCluster.swap` — serves it with the same engine.
    """
    engine = RecommendationEngine(load_artifact(artifact_path),
                                  cache_size=cache_size)
    if fault_plan is not None:
        from repro.utils.faults import FaultyServeEngine

        engine = FaultyServeEngine(engine, fault_plan)
    return engine


def _probe_engine(engine, golden_users, k: int) -> None:
    """Golden-request probe: every probe user must get a full finite top-K."""
    expected = min(int(k), int(engine.model.num_items))
    for user in golden_users:
        items = engine.recommend(int(user), k=k, filter_seen=False)
        if len(items) != expected:
            raise ValueError(
                f"golden probe for user {user} returned {len(items)} items, "
                f"expected {expected}")
        if not all(np.isfinite(score) for _item, score in items):
            raise ValueError(f"golden probe for user {user} returned "
                             f"non-finite scores")


def _swap_engine(old_engine, artifact_path: str, cache_size: int, fault_plan,
                 golden_users, k: int, probe: bool):
    """Build, state-migrate, and validate a replacement engine."""
    new_engine = _build_engine(artifact_path, cache_size, fault_plan)
    if int(new_engine.model.num_items) != int(old_engine.model.num_items):
        raise ValueError(
            f"artifact vocabulary mismatch: serving {old_engine.model.num_items} "
            f"items, artifact has {new_engine.model.num_items}")
    for user in old_engine.known_users():
        new_engine.set_history(user, old_engine.history(user))
    if probe:
        _probe_engine(new_engine, golden_users, k)
    return new_engine


def _worker_main(shard: int, conn, artifact_path: str, cache_size: int,
                 fault_plan) -> None:
    """Entry point of one forked shard worker.

    Replies only to messages that expect one (``req``, ``ping``, ``swap``);
    history syncs are fire-and-forget because the parent's store is
    authoritative and restarts re-seed from it.
    """
    # Forked children must not share the parent's telemetry sinks.
    obs.set_registry(obs.MetricsRegistry())
    obs.set_telemetry(False)
    try:
        engine = _build_engine(artifact_path, cache_size, fault_plan)
    except BaseException as exc:
        try:
            conn.send(("init_failed", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    conn.send(("up", shard))
    try:
        while True:
            message = conn.recv()
            command = message[0]
            if command == "stop":
                break
            if command == "req":
                _, req_id, user, k, filter_seen = message
                try:
                    items = engine.recommend(user, k=k, filter_seen=filter_seen)
                    conn.send(("ok", req_id, items))
                except Exception as exc:
                    conn.send(("err", req_id, type(exc).__name__, str(exc)))
            elif command == "history":
                _, user, items = message
                engine.set_history(user, items)
            elif command == "seed":
                for user, items in message[1]:
                    engine.set_history(user, items)
            elif command == "ping":
                conn.send(("pong", message[1]))
            elif command == "swap":
                _, req_id, path, golden_users, k, probe = message
                try:
                    engine = _swap_engine(engine, path, cache_size, fault_plan,
                                          golden_users, k, probe)
                except Exception as exc:
                    conn.send(("swap_failed", req_id,
                               f"{type(exc).__name__}: {exc}"))
                else:
                    conn.send(("swapped", req_id))
            else:
                raise RuntimeError(f"unknown worker command {command!r}")
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent died or pipe closed; exit quietly
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass
class ClusterConfig:
    """Tuning knobs of :class:`ServingCluster` (all durations in seconds).

    ``down_gate_s`` bounds how long a dispatched request waits for a
    not-ready worker before degrading — a restart faster than the gate is
    invisible to callers; a slower one costs them a degraded answer
    instead of a blown deadline.  ``degraded_fallback=False`` turns the
    degradation ladder off: exhausted requests raise
    :class:`~repro.serve.router.ShardUnavailable` instead.
    """

    world: int = 2
    cache_size: int = 1024
    queue_limit: int = 64
    default_deadline_s: float = 2.0
    max_retries: int = 2
    backoff_base_s: float = 0.02
    backoff_cap_s: float = 0.25
    liveness_timeout_s: float = 5.0
    down_gate_s: float = 0.5
    heartbeat_interval_s: float = 0.25
    check_interval_s: float = 0.05
    restart_backoff_s: float = 0.25
    startup_timeout_s: float = 60.0
    swap_timeout_s: float = 120.0
    golden_probe_k: int = 10
    seed_chunk: int = 512
    degraded_fallback: bool = True
    event_capacity: int = 65536
    seed: int = 0

    def __post_init__(self):
        if self.world < 1:
            raise ValueError(f"world must be >= 1, got {self.world}")
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.event_capacity < 1:
            raise ValueError(
                f"event_capacity must be >= 1, got {self.event_capacity}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        for name in ("default_deadline_s", "backoff_base_s", "backoff_cap_s",
                     "liveness_timeout_s", "down_gate_s",
                     "heartbeat_interval_s", "check_interval_s",
                     "restart_backoff_s", "startup_timeout_s",
                     "swap_timeout_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


# ----------------------------------------------------------------------
# Cluster
# ----------------------------------------------------------------------
class ServingCluster:
    """Supervised multi-process serving over one inference artifact.

    Parameters
    ----------
    artifact_path:
        A checksummed ``inference_artifact`` (checksum-verified up front,
        and again independently by every worker's ``load_artifact``).
    config:
        A :class:`ClusterConfig`; defaults are production-shaped.
    fallback:
        A :class:`~repro.models.pop.PopRec` to answer degraded requests
        (e.g. ``PopRec.load(path)`` of a trained export).  Defaults to an
        empty popularity model that learns from the observation stream.
    fault_plans:
        Optional ``{shard: ServeFaultPlan}`` chaos-test hook; production
        callers leave it ``None``.
    """

    def __init__(self, artifact_path, config: ClusterConfig | None = None,
                 fallback: PopRec | None = None,
                 fault_plans: dict | None = None):
        self.config = config or ClusterConfig()
        path = Path(artifact_path)
        if not path.exists() and normalize_checkpoint_path(path).exists():
            path = normalize_checkpoint_path(path)
        _arrays, meta = read_npz_verified(path)  # fail fast on corruption
        if meta.get("kind") != ARTIFACT_KIND:
            raise CheckpointIntegrityError(
                f"{path}: not an inference artifact "
                f"(kind={meta.get('kind')!r})")
        self.num_items = int(meta["num_items"])
        self.model_name = str(meta.get("model_name", meta.get("model_class")))
        self._artifact_path = path
        self._fault_plans = dict(fault_plans or {})
        if fallback is not None and fallback.num_items != self.num_items:
            raise ValueError(
                f"fallback covers {fallback.num_items} items but the "
                f"artifact serves {self.num_items}")
        self.events = EventLog(self.config.event_capacity)
        self.router = Router(self.config.world, self.config.queue_limit,
                             self.num_items, fallback=fallback,
                             event_log=self.events)
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError as error:  # pragma: no cover - non-POSIX platforms
            raise RuntimeError(
                "the serving cluster requires the 'fork' start method "
                "(POSIX only)") from error
        self._handles = [WorkerHandle(shard)
                         for shard in range(self.config.world)]
        self._req_ids = itertools.count(1)
        self._closed = False
        self._close_lock = threading.Lock()
        self._swap_lock = threading.Lock()
        self.swaps = 0
        for shard in range(self.config.world):
            if not self._respawn(shard):
                self._teardown()
                raise ServeError(
                    f"worker for shard {shard} failed to start")
        self._dispatchers = []
        for shard in range(self.config.world):
            thread = threading.Thread(
                target=self._dispatch_loop, args=(shard,), daemon=True,
                name=f"repro-serve-dispatch-{shard}")
            thread.start()
            self._dispatchers.append(thread)
        self._supervisor = Supervisor(
            self._handles, restart=self._respawn, ping=self._enqueue_ping,
            check_interval_s=self.config.check_interval_s,
            heartbeat_interval_s=self.config.heartbeat_interval_s,
            liveness_timeout_s=self.config.liveness_timeout_s,
            restart_backoff_s=self.config.restart_backoff_s)
        self._supervisor.start()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def recommend(self, user: int, k: int = 10, filter_seen: bool = True,
                  deadline_s: float | None = None) -> ServeResponse:
        """Top-``k`` for ``user`` within ``deadline_s``.

        Returns a :class:`~repro.serve.router.ServeResponse` (model answer
        or ``degraded=True`` popularity fallback) or raises a typed
        :class:`~repro.serve.router.ServeError` — the call returns by the
        deadline, always.
        """
        self._ensure_open()
        deadline_s = (self.config.default_deadline_s
                      if deadline_s is None else float(deadline_s))
        if deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        if int(k) < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        with obs.timer("serve.cluster.request_latency_s"):
            if self.router.brownout:
                return self.router.degraded_response(user, k, filter_seen)
            request = ShardRequest(
                "recommend", user=int(user), k=int(k),
                filter_seen=bool(filter_seen),
                deadline=time.monotonic() + deadline_s)
            self.router.admit(request)  # may shed with Overloaded
            if not request.done.wait(max(request.remaining(), 0.0)):
                request.cancelled = True
                self.router.stats.bump("deadline_exceeded")
                if obs.telemetry_enabled():
                    obs.counter("serve.cluster.deadline_exceeded").inc()
                raise DeadlineExceeded(int(user), deadline_s, request.attempts)
            if request.error is not None:
                raise request.error
            return request.result

    def observe(self, user: int, item: int) -> None:
        """Record one interaction (authoritative store + shard replica).

        Also appends the interaction to :attr:`events`, the ring-buffered
        :class:`~repro.online.EventLog` the online-learning loop drains.
        """
        self._ensure_open()
        history = self.router.observe(user, item)
        self._sync_history(int(user), history)

    def set_history(self, user: int, items) -> None:
        """Replace a user's history (authoritative store + shard replica)."""
        self._ensure_open()
        history = self.router.set_history(user, items)
        self._sync_history(int(user), history)

    def set_brownout(self, enabled: bool) -> None:
        """Toggle brownout: every request answers degraded, instantly."""
        self.router.brownout = bool(enabled)
        if obs.telemetry_enabled():
            obs.emit("serve.cluster.brownout", enabled=bool(enabled))

    def swap(self, artifact_path) -> dict:
        """Roll a new artifact across the cluster, canary-first.

        Shard 0 validates the artifact (the worker's ``load_artifact``
        verifies checksums; a golden-request probe must return full,
        finite top-Ks for sampled users).  Only then do the remaining
        workers swap, one at a time.  Any failure rolls every
        already-swapped worker back to the previous artifact and raises
        :class:`~repro.serve.router.SwapFailed`; requests keep being
        served throughout.  Returns a summary dict on success.
        """
        self._ensure_open()
        path = Path(artifact_path)
        if not path.exists() and normalize_checkpoint_path(path).exists():
            path = normalize_checkpoint_path(path)
        with self._swap_lock:
            previous = self._artifact_path
            started = time.perf_counter()
            if obs.telemetry_enabled():
                obs.emit("serve.cluster.swap", phase="start", path=str(path))
            swapped: list[int] = []
            for shard in range(self.config.world):
                failure = self._swap_one(shard, path, probe=(shard == 0))
                if failure is None:
                    swapped.append(shard)
                    # Re-seed from the *authoritative* store: the in-worker
                    # swap migrates histories from the old engine replica,
                    # which can lag behind observes whose syncs were dropped
                    # (e.g. while the worker was briefly down).  The
                    # idempotent seed makes the new engine exact.
                    self._reseed_shard(shard)
                    continue
                for done_shard in swapped:  # roll back, newest first
                    self._swap_one(done_shard, previous, probe=False)
                    self._reseed_shard(done_shard)
                if obs.telemetry_enabled():
                    obs.emit("serve.cluster.swap", phase="rolled_back",
                             path=str(path), failed_shard=shard,
                             reason=failure)
                raise SwapFailed(path, f"shard {shard}: {failure}")
            self._artifact_path = path
            self.swaps += 1
            duration = time.perf_counter() - started
            if obs.telemetry_enabled():
                obs.emit("serve.cluster.swap", phase="done", path=str(path),
                         duration_s=round(duration, 6))
                obs.counter("serve.cluster.swaps").inc()
            return {"path": str(path), "previous": str(previous),
                    "workers": self.config.world,
                    "duration_s": duration}

    @property
    def artifact_path(self) -> Path:
        """The artifact currently committed across the cluster."""
        return self._artifact_path

    def worker_pids(self) -> dict[int, int | None]:
        """Current PID per shard (chaos tests SIGKILL through this)."""
        return {handle.shard: handle.snapshot()["pid"]
                for handle in self._handles}

    def stats(self) -> dict:
        """One JSON-friendly snapshot of cluster health and counters."""
        return {
            "artifact": str(self._artifact_path),
            "model": self.model_name,
            "world": self.config.world,
            "brownout": self.router.brownout,
            "swaps": self.swaps,
            "router": self.router.stats.snapshot(),
            "events": self.events.stats(),
            "queue_depths": [queue.depth() for queue in self.router.queues],
            "workers": [handle.snapshot() for handle in self._handles],
        }

    def close(self) -> None:
        """Stop supervision, dispatchers, and workers (idempotent)."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._supervisor.stop()
        for thread in self._dispatchers:
            thread.join(timeout=self.config.liveness_timeout_s + 1.0)
        closed_error = ServeError("ServingCluster closed")
        for queue in self.router.queues:
            queue.drain(closed_error)
        self._teardown()

    def __enter__(self) -> "ServingCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _respawn(self, shard: int) -> bool:
        """(Re)start the worker for ``shard``; re-seed its history replica.

        Called at construction and from the supervisor thread.  Returns
        whether the worker came up; failures leave the handle not-ready
        for the supervisor to retry with backoff.
        """
        handle = self._handles[shard]
        handle.kill()
        if self._closed:
            return False
        process = None
        # Open the dirty-user window *before* snapshotting the shard's
        # histories: an observe() racing the re-seed (mutating the
        # authoritative store after the snapshot but before the new worker
        # is installed) would otherwise be dropped by the dispatcher — the
        # handle isn't ready yet — and silently missing from the replica.
        # Such users are recorded and re-synced after install instead.
        self.router.begin_reseed(shard)
        try:
            parent_conn, child_conn = self._context.Pipe()
            process = self._context.Process(
                target=_worker_main,
                args=(shard, child_conn, str(self._artifact_path),
                      self.config.cache_size, self._fault_plans.get(shard)),
                daemon=True, name=f"repro-serve-worker-{shard}")
            process.start()
            child_conn.close()
            if not parent_conn.poll(self.config.startup_timeout_s):
                raise ServeError(f"shard {shard} worker did not report up "
                                 f"within {self.config.startup_timeout_s}s")
            reply = parent_conn.recv()
            if reply[0] != "up":
                raise ServeError(f"shard {shard} worker failed to start: "
                                 f"{reply[1] if len(reply) > 1 else reply!r}")
            users = self.router.users_of_shard(shard)
            chunk = self.config.seed_chunk
            for start in range(0, len(users), chunk):
                parent_conn.send(("seed", users[start:start + chunk]))
        except (ServeError, OSError, EOFError):
            self.router.end_reseed(shard)  # discard the window
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            return False
        handle.install(process, parent_conn)
        # Flush users mutated during the re-seed window through the normal
        # dispatcher path (full-history syncs are idempotent; the queue is
        # FIFO, so the replica converges to the newest state).
        for user, history in self.router.end_reseed(shard):
            self._sync_history(user, history)
        if obs.telemetry_enabled():
            obs.gauge("serve.cluster.workers_ready").set(
                sum(h.ready.is_set() for h in self._handles))
        return True

    def _teardown(self) -> None:
        """Stop every worker process and close pipes."""
        for handle in self._handles:
            with handle.lock:
                conn = handle.conn
            if conn is not None:
                try:
                    conn.send(("stop",))
                except (OSError, BrokenPipeError):
                    pass
            handle.kill()

    # ------------------------------------------------------------------
    # Dispatch (one thread per shard; sole owner of the shard's pipe)
    # ------------------------------------------------------------------
    def _dispatch_loop(self, shard: int) -> None:
        queue = self.router.queues[shard]
        handle = self._handles[shard]
        rng = np.random.default_rng(
            np.random.SeedSequence((self.config.seed, shard)).generate_state(1))
        while not self._closed:
            request = queue.get(timeout=0.05)
            if request is None:
                continue
            if request.kind == "recommend":
                if request.cancelled or request.done.is_set():
                    continue
                if request.remaining() <= 0:
                    request.fail(DeadlineExceeded(
                        request.user, request.deadline - request.enqueued_at,
                        request.attempts))
                    continue
            self._dispatch(shard, queue, handle, request, rng)

    def _wait_ready(self, handle: WorkerHandle, budget: float) -> bool:
        """Wait (closable) for a live worker, at most ``budget`` seconds."""
        deadline = time.monotonic() + budget
        while not self._closed:
            step = min(0.05, deadline - time.monotonic())
            if step <= 0:
                return False
            if handle.ready.wait(step):
                return True
        return False

    def _await_reply(self, conn, timeout: float):
        """Next message on ``conn`` within ``timeout``, else ``None``."""
        deadline = time.monotonic() + timeout
        while not self._closed:
            step = min(0.05, deadline - time.monotonic())
            if step <= 0:
                return None
            try:
                if conn.poll(step):
                    return conn.recv()
            except (EOFError, OSError):
                return None
        return None

    def _dispatch(self, shard: int, queue, handle: WorkerHandle,
                  request: ShardRequest, rng) -> None:
        config = self.config
        if request.kind == "recommend":
            gate = min(request.remaining(), config.down_gate_s)
        elif request.kind == "swap":
            gate = config.down_gate_s + config.restart_backoff_s
        else:
            gate = 0.0
        if not (handle.ready.is_set() or
                (gate > 0 and self._wait_ready(handle, gate))):
            if request.kind == "recommend":
                self._give_up(request, shard, "shard down")
            elif request.kind == "swap":
                request.fail(SwapFailed(request.payload[0],
                                        f"shard {shard} down"))
            return  # ping/history/seed against a down worker: drop (restart re-seeds)
        with handle.lock:
            conn, generation = handle.conn, handle.generation
        try:
            if request.kind == "recommend":
                request.attempts += 1
                req_id = next(self._req_ids)
                conn.send(("req", req_id, request.user, request.k,
                           request.filter_seen))
                reply = self._await_reply(conn, config.liveness_timeout_s)
                self._finish_recommend(shard, queue, handle, generation,
                                       request, req_id, reply, rng)
            elif request.kind == "history":
                conn.send(("history", request.user, request.payload))
            elif request.kind == "seed":
                conn.send(("seed", request.payload))
            elif request.kind == "ping":
                conn.send(("ping", request.payload))
                reply = self._await_reply(conn, config.liveness_timeout_s)
                if reply is None or reply[0] != "pong":
                    self._suspect_if_current(handle, generation,
                                             "heartbeat unanswered")
                else:
                    handle.note_reply()
            elif request.kind == "swap":
                path, golden_users, k, probe = request.payload
                req_id = next(self._req_ids)
                conn.send(("swap", req_id, path, golden_users, k, probe))
                reply = self._await_reply(conn, config.swap_timeout_s)
                if reply is None:
                    self._suspect_if_current(handle, generation,
                                             "no reply to swap")
                    request.fail(SwapFailed(path, f"shard {shard} died "
                                            f"during swap"))
                elif reply[0] == "swapped" and reply[1] == req_id:
                    handle.note_reply()
                    request.resolve(True)
                elif reply[0] == "swap_failed" and reply[1] == req_id:
                    handle.note_reply()
                    request.fail(SwapFailed(path, reply[2]))
                else:
                    self._suspect_if_current(
                        handle, generation,
                        f"protocol desync on swap: {reply[0]!r}")
                    request.fail(SwapFailed(path, "protocol desync"))
        except (OSError, BrokenPipeError, EOFError):
            self._suspect_if_current(handle, generation, "pipe broken mid-send")
            if request.kind == "recommend":
                self._retry_or_give_up(shard, queue, request, rng,
                                       "pipe broken")
            elif request.kind == "swap":
                request.fail(SwapFailed(request.payload[0],
                                        f"shard {shard} pipe broke"))

    @staticmethod
    def _suspect_if_current(handle: WorkerHandle, generation: int,
                            reason: str) -> None:
        """Mark suspect only if the worker wasn't already replaced.

        A dispatcher can observe a broken pipe *after* the supervisor has
        already installed a fresh generation; blaming the new worker for
        the old one's death would churn restarts forever.
        """
        with handle.lock:
            if handle.generation == generation:
                handle.mark_suspect(reason)

    def _finish_recommend(self, shard: int, queue, handle: WorkerHandle,
                          generation: int, request: ShardRequest,
                          req_id: int, reply, rng) -> None:
        if reply is None:
            # Dead (no reply before the pipe broke) or hung past the
            # liveness budget: either way this generation is done.
            self._suspect_if_current(handle, generation,
                                     "no reply within liveness budget")
            self._retry_or_give_up(shard, queue, request, rng,
                                   "worker unresponsive")
            return
        kind = reply[0]
        if kind == "ok" and reply[1] == req_id:
            handle.note_reply()
            if not (request.cancelled or request.done.is_set()):
                request.resolve(ServeResponse(
                    items=tuple(reply[2]), degraded=False, shard=shard,
                    attempts=request.attempts))
            return
        if kind == "err" and reply[1] == req_id:
            handle.note_reply()
            if obs.telemetry_enabled():
                obs.counter("serve.cluster.forward_errors").inc()
            self._retry_or_give_up(shard, queue, request, rng,
                                   f"forward failed: {reply[2]}: {reply[3]}")
            return
        # Anything else is a protocol desync (stale generation replies are
        # impossible — the pipe dies with its process — so treat as fatal).
        self._suspect_if_current(handle, generation,
                                 f"protocol desync: {kind!r}")
        self._retry_or_give_up(shard, queue, request, rng, "protocol desync")

    def _retry_or_give_up(self, shard: int, queue, request: ShardRequest,
                          rng, reason: str) -> None:
        if request.cancelled or request.done.is_set():
            return
        now = time.monotonic()
        if request.attempts <= self.config.max_retries:
            exponent = min(max(request.attempts - 1, 0), 16)
            backoff = min(self.config.backoff_base_s * (2 ** exponent),
                          self.config.backoff_cap_s)
            backoff *= 0.5 + 0.5 * float(rng.random())  # full jitter, >= 50%
            if now + backoff < request.deadline:
                request.not_before = now + backoff
                self.router.stats.bump("retries")
                if obs.telemetry_enabled():
                    obs.counter("serve.cluster.retries").inc()
                queue.requeue(request)
                return
        self._give_up(request, shard, reason)

    def _give_up(self, request: ShardRequest, shard: int, reason: str) -> None:
        """Resolve a request the model path cannot serve anymore."""
        if request.cancelled or request.done.is_set():
            return
        if self._closed:
            request.fail(ServeError("ServingCluster closed"))
        elif self.config.degraded_fallback:
            request.resolve(self.router.degraded_response(
                request.user, request.k, request.filter_seen,
                attempts=request.attempts))
        else:
            request.fail(ShardUnavailable(shard, reason))

    # ------------------------------------------------------------------
    # Control-plane helpers
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise ServeError("ServingCluster is closed")

    def _sync_history(self, user: int, history: list[int]) -> None:
        """Queue an idempotent full-history sync to the owning shard."""
        shard = self.router.shard_of(user)
        request = ShardRequest("history", user=user, payload=history)
        self.router.queues[shard].put(request, enforce_limit=False)

    def _reseed_shard(self, shard: int) -> None:
        """Queue a full authoritative-history re-seed of ``shard``.

        Dispatched in ``seed_chunk`` batches through the shard's normal
        FIFO queue (so it serialises correctly against queued observes and
        requests) and applied via the worker's idempotent ``seed``
        handler.  Used after an artifact swap, where the in-worker state
        migration copies from the old engine *replica* rather than the
        parent's authoritative store.
        """
        users = self.router.users_of_shard(shard)
        chunk = self.config.seed_chunk
        for start in range(0, len(users), chunk):
            request = ShardRequest("seed", payload=users[start:start + chunk])
            self.router.queues[shard].put(request, enforce_limit=False)

    def _enqueue_ping(self, shard: int) -> None:
        request = ShardRequest("ping", payload=next(self._req_ids))
        self.router.queues[shard].put(request, enforce_limit=False)

    def _golden_users(self, shard: int) -> list[int]:
        """Probe users for the canary: sampled real users + one cold id."""
        users = [user for user, _history in
                 self.router.users_of_shard(shard)[:3]]
        users.append(shard)  # a cold (possibly empty-history) user
        return sorted(set(users))

    def _swap_one(self, shard: int, path: Path, probe: bool) -> str | None:
        """Swap one worker; returns ``None`` on success, else the reason."""
        request = ShardRequest(
            "swap", payload=(str(path), self._golden_users(shard),
                             self.config.golden_probe_k, probe))
        self.router.queues[shard].put(request, enforce_limit=False)
        budget = (self.config.swap_timeout_s + self.config.down_gate_s
                  + self.config.restart_backoff_s + 1.0)
        if not request.done.wait(budget):
            request.cancelled = True
            return "swap timed out"
        if request.error is not None:
            return str(request.error)
        return None
