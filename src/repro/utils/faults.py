"""Deterministic fault injection for exercising recovery paths.

The harness produces exactly reproducible failures so fault-tolerance tests
can assert end-to-end behaviour (kill-and-resume, rollback on divergence,
checkpoint-corruption fallback) without flakiness:

- :class:`FaultPlan` — a declarative, seed-driven schedule of faults: NaN
  training losses at chosen global steps (or with a fixed probability drawn
  from a seeded generator), and injected crashes (:class:`InjectedCrash`)
  mid-epoch;
- :class:`FaultyModel` — a transparent proxy wrapping any Trainer-compatible
  model, applying the plan to ``training_loss``;
- :func:`truncate_file` — chop a checkpoint file to a fraction of its size,
  simulating a crash mid-write (the atomic writer makes this impossible for
  the *final* file, so tests use it to model external corruption).

The serving chaos half drives the ``tests/serve/test_chaos.py`` suite
(``docs/resilience.md``):

- :class:`ServeFaultPlan` — a picklable schedule of per-request serving
  faults: slow forwards (injected latency), failing forwards
  (:class:`InjectedCrash`), and hard worker deaths (``os._exit`` mid
  request, indistinguishable from SIGKILL to the parent);
- :class:`FaultyServeEngine` — a transparent proxy over a
  :class:`~repro.serve.engine.RecommendationEngine` applying the plan to
  ``recommend``; the cluster worker wraps its engine
  with this when a plan is supplied;
- :func:`corrupt_file` — flip bytes in place so a checksummed artifact
  fails verification without changing its size.

All randomness comes from ``numpy.random.default_rng(plan.seed)``; the same
plan against the same training run always fires at the same steps.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class InjectedCrash(RuntimeError):
    """A crash injected by a :class:`FaultPlan` (simulates a hard kill)."""


@dataclass
class FaultPlan:
    """Schedule of failures to inject into a training run.

    ``*_steps`` fire deterministically at those 1-indexed global
    ``training_loss`` calls; ``*_prob`` fire stochastically-but-reproducibly
    from a generator seeded with ``seed``.  A step listed in ``crash_steps``
    wins over one listed in ``nan_loss_steps``.
    """

    seed: int = 0
    nan_loss_steps: frozenset[int] = field(default_factory=frozenset)
    crash_steps: frozenset[int] = field(default_factory=frozenset)
    nan_loss_prob: float = 0.0
    crash_prob: float = 0.0

    def __post_init__(self):
        self.nan_loss_steps = frozenset(self.nan_loss_steps)
        self.crash_steps = frozenset(self.crash_steps)
        if not (0.0 <= self.nan_loss_prob <= 1.0 and 0.0 <= self.crash_prob <= 1.0):
            raise ValueError("fault probabilities must be in [0, 1]")


class FaultyModel:
    """Proxy over a Trainer-compatible model that injects planned faults.

    Every attribute other than ``training_loss`` is forwarded to the wrapped
    model, so the proxy is a drop-in replacement for the Trainer protocol
    (``parameters``, ``train``/``eval``, ``state_dict``, batching, hooks).
    The global step counter survives rollbacks by design: a retried batch is
    a *new* call, so a one-shot fault does not re-fire on the retry.
    """

    def __init__(self, model, plan: FaultPlan):
        self._model = model
        self._plan = plan
        self._rng = np.random.default_rng(plan.seed)
        self.step_count = 0
        self.faults_fired: list[tuple[int, str]] = []

    def __getattr__(self, name):
        return getattr(self._model, name)

    @property
    def wrapped(self):
        """The underlying model."""
        return self._model

    def training_loss(self, batch):
        """Forward to the wrapped model, injecting the planned fault (if any)."""
        self.step_count += 1
        step = self.step_count
        crash = step in self._plan.crash_steps or (
            self._plan.crash_prob > 0.0
            and self._rng.random() < self._plan.crash_prob)
        if crash:
            self.faults_fired.append((step, "crash"))
            raise InjectedCrash(f"injected crash at global step {step}")
        poison = step in self._plan.nan_loss_steps or (
            self._plan.nan_loss_prob > 0.0
            and self._rng.random() < self._plan.nan_loss_prob)
        loss = self._model.training_loss(batch)
        if poison:
            self.faults_fired.append((step, "nan_loss"))
            from repro.tensor import Tensor

            return loss * Tensor(np.asarray(np.nan, dtype=np.float32))
        return loss


def truncate_file(path: str | Path, fraction: float = 0.5) -> Path:
    """Truncate ``path`` to ``fraction`` of its size (simulated torn write).

    Returns the path.  ``fraction`` must be in ``[0, 1)``.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must be in [0, 1), got {fraction}")
    path = Path(path)
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        handle.truncate(int(size * fraction))
    return path


def corrupt_file(path: str | Path, offset: int | None = None,
                 length: int = 64) -> Path:
    """Flip ``length`` bytes of ``path`` in place (size-preserving rot).

    Unlike :func:`truncate_file` the file keeps its size and structure, so
    it exercises the checksum-verification path rather than the
    archive-parsing path.  ``offset`` defaults to the middle of the file.
    Returns the path.
    """
    path = Path(path)
    size = path.stat().st_size
    if size == 0:
        raise ValueError(f"{path} is empty; nothing to corrupt")
    if offset is None:
        offset = size // 2
    offset = max(0, min(int(offset), size - 1))
    length = max(1, min(int(length), size - offset))
    with open(path, "r+b") as handle:
        handle.seek(offset)
        chunk = handle.read(length)
        handle.seek(offset)
        handle.write(bytes(byte ^ 0xFF for byte in chunk))
    return path


# ----------------------------------------------------------------------
# Serving chaos
# ----------------------------------------------------------------------
@dataclass
class ServeFaultPlan:
    """Schedule of per-request serving faults for a cluster worker.

    Indices are 1-based positions in the worker's request stream (each
    ``recommend`` call counts once); ``*_prob``
    variants fire stochastically-but-reproducibly from a generator seeded
    with ``seed``.  Precedence per request: die > fail > slow (a dying
    worker never also sleeps).  The plan is picklable, so it crosses the
    fork into cluster worker processes.
    """

    seed: int = 0
    slow_requests: frozenset[int] = field(default_factory=frozenset)
    fail_requests: frozenset[int] = field(default_factory=frozenset)
    die_requests: frozenset[int] = field(default_factory=frozenset)
    slow_prob: float = 0.0
    fail_prob: float = 0.0
    slow_s: float = 0.05

    def __post_init__(self):
        self.slow_requests = frozenset(self.slow_requests)
        self.fail_requests = frozenset(self.fail_requests)
        self.die_requests = frozenset(self.die_requests)
        if not (0.0 <= self.slow_prob <= 1.0 and 0.0 <= self.fail_prob <= 1.0):
            raise ValueError("fault probabilities must be in [0, 1]")
        if self.slow_s < 0:
            raise ValueError(f"slow_s must be >= 0, got {self.slow_s}")


class FaultyServeEngine:
    """Proxy over a serving engine that injects a :class:`ServeFaultPlan`.

    Every attribute other than ``recommend`` forwards to the wrapped
    engine, so the proxy drops into the cluster worker unchanged.
    """

    def __init__(self, engine, plan: ServeFaultPlan):
        self._engine = engine
        self._plan = plan
        self._rng = np.random.default_rng(plan.seed)
        self.request_count = 0
        self.faults_fired: list[tuple[int, str]] = []

    def __getattr__(self, name):
        return getattr(self._engine, name)

    @property
    def wrapped(self):
        """The underlying engine."""
        return self._engine

    def _inject(self) -> None:
        self.request_count += 1
        index = self.request_count
        if index in self._plan.die_requests:
            self.faults_fired.append((index, "die"))
            os._exit(1)  # hard death: no cleanup, like SIGKILL
        fail = index in self._plan.fail_requests or (
            self._plan.fail_prob > 0.0
            and self._rng.random() < self._plan.fail_prob)
        if fail:
            self.faults_fired.append((index, "fail"))
            raise InjectedCrash(f"injected forward failure at request {index}")
        slow = index in self._plan.slow_requests or (
            self._plan.slow_prob > 0.0
            and self._rng.random() < self._plan.slow_prob)
        if slow:
            self.faults_fired.append((index, "slow"))
            time.sleep(self._plan.slow_s)

    def recommend(self, *args, **kwargs):
        """Forward to the engine after applying the plan."""
        self._inject()
        return self._engine.recommend(*args, **kwargs)
