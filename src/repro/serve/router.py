"""Request routing for the serving cluster: admission, shedding, fallback.

The router is the parent-process half of :class:`repro.serve.ServingCluster`
(``docs/resilience.md``).  It owns:

- **Typed outcomes.**  Every request resolves to a
  :class:`ServeResponse`, or raises one of the structured
  :class:`ServeError` subclasses — :class:`Overloaded` (shed at
  admission), :class:`DeadlineExceeded` (deadline budget exhausted),
  :class:`ShardUnavailable` (shard down past its retry budget with no
  fallback available), :class:`SwapFailed` (artifact roll rejected).
  Nothing in the cluster ever hangs a caller or drops a request silently.
- **Bounded per-shard queues** (:class:`ShardQueue`): a min-heap ordered
  by each entry's earliest-dispatch time (retries schedule themselves
  into the future with jittered backoff).  A recommend arriving while
  ``queue_limit`` recommends are queued sheds with :class:`Overloaded`;
  control traffic (heartbeats, history sync, swaps) neither counts
  towards nor is held to the bound, so supervision never competes with
  load.
- **The degraded-mode fallback**: a :class:`~repro.models.pop.PopRec`
  always resident in the router process.  The router keeps the
  authoritative per-user histories (workers hold replicas, re-seeded on
  restart) and feeds every observation into the popularity counts, so a
  brownout or a dead shard is answered instantly from popularity with
  ``degraded=True`` — correct-by-construction availability, reduced
  quality.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.models.pop import PopRec
from repro.serve.engine import checked_items


# ----------------------------------------------------------------------
# Typed outcomes
# ----------------------------------------------------------------------
class ServeError(RuntimeError):
    """Base class of every structured serving-cluster error."""


class Overloaded(ServeError):
    """Request shed at admission: the shard queue is at its depth limit."""

    def __init__(self, shard: int, depth: int, limit: int):
        super().__init__(
            f"shard {shard} queue depth {depth} >= limit {limit}; "
            f"request shed")
        self.shard = shard
        self.depth = depth
        self.limit = limit


class DeadlineExceeded(ServeError):
    """The per-request deadline budget elapsed before a result arrived."""

    def __init__(self, user: int, deadline_s: float, attempts: int):
        super().__init__(
            f"recommend(user={user}) missed its {deadline_s:.3f}s deadline "
            f"after {attempts} attempt(s)")
        self.user = user
        self.deadline_s = deadline_s
        self.attempts = attempts


class ShardUnavailable(ServeError):
    """Shard down past the retry budget and no degraded fallback enabled."""

    def __init__(self, shard: int, reason: str):
        super().__init__(f"shard {shard} unavailable: {reason}")
        self.shard = shard
        self.reason = reason


class SwapFailed(ServeError):
    """Artifact hot-swap rejected (validation failed; rollback completed)."""

    def __init__(self, path, reason: str):
        super().__init__(f"swap to {path} failed: {reason}")
        self.path = path
        self.reason = reason


@dataclass(frozen=True)
class ServeResponse:
    """Outcome of one cluster ``recommend`` call.

    ``items`` are ``(item, score)`` pairs best-first; ``degraded`` marks a
    popularity-fallback answer (scores are popularity counts, not model
    logits); ``shard`` is the owning shard; ``attempts`` counts dispatch
    attempts (0 for answers that never reached a worker — brownout or a
    shard already known to be down).
    """

    items: tuple
    degraded: bool
    shard: int
    attempts: int = 1


# ----------------------------------------------------------------------
# Queue entries
# ----------------------------------------------------------------------
class ShardRequest:
    """One queued unit of shard work (a recommend, or control traffic).

    ``kind`` is ``"recommend"`` (caller-facing, bounded, retried),
    ``"ping"`` (supervisor heartbeat), ``"history"`` (idempotent full
    history sync), ``"seed"`` (chunked multi-user history sync, used for
    the post-swap authoritative re-seed), or ``"swap"`` (artifact roll
    step).  Caller-facing requests carry a monotonic ``deadline``; the
    dispatcher skips entries whose caller cancelled or whose deadline
    already passed.
    """

    __slots__ = ("kind", "user", "k", "filter_seen", "deadline", "payload",
                 "attempts", "not_before", "done", "result", "error",
                 "cancelled", "enqueued_at")

    def __init__(self, kind: str, user: int = -1, k: int = 0,
                 filter_seen: bool = True, deadline: float = float("inf"),
                 payload=None):
        self.kind = kind
        self.user = user
        self.k = k
        self.filter_seen = filter_seen
        self.deadline = deadline
        self.payload = payload
        self.attempts = 0
        self.not_before = 0.0
        self.done = threading.Event()
        self.result = None
        self.error: BaseException | None = None
        self.cancelled = False
        self.enqueued_at = time.monotonic()

    def remaining(self, now: float | None = None) -> float:
        """Seconds of deadline budget left (negative when blown)."""
        now = time.monotonic() if now is None else now
        return self.deadline - now

    def resolve(self, result) -> None:
        """Deliver ``result`` to the waiting caller."""
        self.result = result
        self.done.set()

    def fail(self, error: BaseException) -> None:
        """Deliver a structured error to the waiting caller."""
        self.error = error
        self.done.set()


class ShardQueue:
    """Bounded, time-ordered work queue for one shard.

    Entries pop in ``not_before`` order (FIFO among ready entries), so a
    retry scheduled with backoff does not block fresh traffic queued
    behind it.  ``put`` sheds a ``"recommend"`` entry once ``limit``
    recommends are queued; control traffic (history and seed syncs, pings)
    neither counts towards that limit nor is ever shed, and retries always
    fit.
    """

    def __init__(self, shard: int, limit: int):
        self.shard = shard
        self.limit = int(limit)
        self._heap: list[tuple[float, int, ShardRequest]] = []
        self._recommends = 0  # queued "recommend" entries, retries included
        self._seq = itertools.count()
        self._cond = threading.Condition()

    def depth(self) -> int:
        """Current number of queued entries (all kinds)."""
        with self._cond:
            return len(self._heap)

    def put(self, request: ShardRequest, enforce_limit: bool = True) -> None:
        """Enqueue; sheds with :class:`Overloaded` when full (bounded kinds)."""
        with self._cond:
            if request.kind == "recommend":
                if enforce_limit and self._recommends >= self.limit:
                    raise Overloaded(self.shard, self._recommends, self.limit)
                self._recommends += 1
            heapq.heappush(self._heap,
                           (request.not_before, next(self._seq), request))
            self._cond.notify()

    def _pop(self) -> ShardRequest:
        request = heapq.heappop(self._heap)[2]
        if request.kind == "recommend":
            self._recommends -= 1
        return request

    def requeue(self, request: ShardRequest) -> None:
        """Re-enqueue a retry (never shed: it was already admitted)."""
        self.put(request, enforce_limit=False)

    def get(self, timeout: float) -> ShardRequest | None:
        """Next ready entry, or ``None`` after ``timeout`` seconds.

        Blocks until the head entry's ``not_before`` has passed (new
        arrivals with earlier dispatch times preempt the wait).
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                now = time.monotonic()
                if self._heap:
                    ready_at = self._heap[0][0]
                    if ready_at <= now:
                        return self._pop()
                    wait = min(ready_at, deadline) - now
                else:
                    wait = deadline - now
                if wait <= 0:
                    return None
                self._cond.wait(wait)

    def drain(self, error: BaseException) -> int:
        """Fail every queued entry with ``error``; returns the count."""
        with self._cond:
            drained = 0
            while self._heap:
                request = self._pop()
                if not request.done.is_set():
                    request.fail(error)
                    drained += 1
            self._cond.notify_all()
            return drained


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
@dataclass
class RouterStats:
    """Monotonic outcome counters kept by the router (thread-safe)."""

    admitted: int = 0
    shed: int = 0
    degraded: int = 0
    retries: int = 0
    deadline_exceeded: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def bump(self, name: str, amount: int = 1) -> None:
        with self.lock:
            setattr(self, name, getattr(self, name) + amount)

    def snapshot(self) -> dict:
        with self.lock:
            return {"admitted": self.admitted, "shed": self.shed,
                    "degraded": self.degraded, "retries": self.retries,
                    "deadline_exceeded": self.deadline_exceeded}


class Router:
    """Shard selection, admission control, and the degraded-mode answer.

    The router owns the authoritative per-user histories (the workers'
    engine replicas are re-seeded from here after a restart) and a
    :class:`~repro.models.pop.PopRec` fallback whose counts track every
    observation, so a degraded answer needs no worker at all.
    """

    def __init__(self, world: int, queue_limit: int, num_items: int,
                 fallback: PopRec | None = None, brownout: bool = False,
                 event_log=None):
        if world < 1:
            raise ValueError(f"world must be >= 1, got {world}")
        self.world = int(world)
        self.num_items = int(num_items)
        self.queues = [ShardQueue(shard, queue_limit)
                       for shard in range(self.world)]
        self.fallback = fallback if fallback is not None else \
            PopRec.from_counts(np.zeros(self.num_items + 1))
        self.brownout = bool(brownout)
        self.event_log = event_log
        self.stats = RouterStats()
        self._histories: dict[int, list[int]] = {}
        # Open re-seed windows: shard -> users mutated since the window
        # opened.  A worker restart snapshots this shard's histories and
        # replays them into the replacement; any mutation racing that
        # window lands here and is flushed after the worker installs, so
        # no observe is ever lost from a replica (docs/resilience.md).
        self._reseeding: dict[int, set[int]] = {}
        self._lock = threading.RLock()

    # -- sharding ------------------------------------------------------
    def shard_of(self, user: int) -> int:
        """The shard owning ``user`` (stable user-id hash sharding)."""
        return int(user) % self.world

    # -- history store (authoritative) ---------------------------------
    def _mark_dirty(self, user: int) -> None:
        """Record ``user`` into any open re-seed window (call under lock)."""
        shard = user % self.world
        dirty = self._reseeding.get(shard)
        if dirty is not None:
            dirty.add(user)

    def set_history(self, user: int, items) -> list[int]:
        """Replace ``user``'s history; feeds the popularity fallback.

        A replacement first retracts the previous history's popularity
        counts, so repeated syncs of the same user don't inflate the
        degraded-mode ranking.  Raises :class:`ValueError`, changing
        nothing, if an id lies outside ``1..num_items``.
        """
        user = int(user)
        history = checked_items(items, self.num_items)
        with self._lock:
            previous = self._histories.get(user)
            if previous:
                self.fallback.update(previous, amount=-1.0)
            self._histories[user] = history
            self.fallback.update(history)
            self._mark_dirty(user)
        return history

    def observe(self, user: int, item: int) -> list[int]:
        """Append one interaction; returns the full updated history.

        Appends to the :class:`~repro.online.EventLog` (when wired) under
        the same lock, so the event stream's order always matches the
        order interactions entered the authoritative store.  Raises
        :class:`ValueError`, changing nothing, if ``item`` lies outside
        ``1..num_items``.
        """
        user = int(user)
        [item] = checked_items([item], self.num_items)
        with self._lock:
            history = self._histories.setdefault(user, [])
            history.append(item)
            self.fallback.update([item])
            self._mark_dirty(user)
            if self.event_log is not None:
                self.event_log.append(user, item)
            return list(history)

    # -- re-seed windows (worker restart / artifact roll) --------------
    def begin_reseed(self, shard: int) -> None:
        """Open a dirty-user window for ``shard``'s restart re-seed."""
        with self._lock:
            self._reseeding[shard] = set()

    def end_reseed(self, shard: int) -> list[tuple[int, list[int]]]:
        """Close ``shard``'s window; returns current ``(user, history)``
        pairs for every user mutated while it was open."""
        with self._lock:
            dirty = self._reseeding.pop(shard, set())
            return [(user, list(self._histories.get(user, [])))
                    for user in sorted(dirty)]

    def history(self, user: int) -> list[int]:
        """The recorded history of ``user`` (copy)."""
        with self._lock:
            return list(self._histories.get(int(user), []))

    def users_of_shard(self, shard: int) -> list[tuple[int, list[int]]]:
        """All ``(user, history)`` pairs owned by ``shard`` (for re-seeding)."""
        with self._lock:
            return [(user, list(history))
                    for user, history in self._histories.items()
                    if user % self.world == shard]

    # -- admission -----------------------------------------------------
    def admit(self, request: ShardRequest) -> None:
        """Admit a caller-facing request, or shed it with ``Overloaded``."""
        shard = self.shard_of(request.user)
        queue = self.queues[shard]
        try:
            queue.put(request)
        except Overloaded:
            self.stats.bump("shed")
            if obs.telemetry_enabled():
                obs.counter("serve.cluster.shed").inc()
            raise
        self.stats.bump("admitted")
        if obs.telemetry_enabled():
            obs.counter("serve.cluster.requests").inc()
            obs.gauge(f"serve.cluster.queue_depth.{shard}").set(queue.depth())

    # -- degraded mode -------------------------------------------------
    def degraded_response(self, user: int, k: int, filter_seen: bool,
                          attempts: int = 0) -> ServeResponse:
        """Answer from the resident popularity model, flagged degraded."""
        exclude = self.history(user) if filter_seen else ()
        items = self.fallback.topk(k, exclude=exclude)
        self.stats.bump("degraded")
        if obs.telemetry_enabled():
            obs.counter("serve.cluster.degraded").inc()
        return ServeResponse(items=tuple(items), degraded=True,
                             shard=self.shard_of(user), attempts=attempts)
