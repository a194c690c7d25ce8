"""Per-layer tracing from outside the program.

The traced run (``--trace 1``) wraps public calls of the program at class
level — module ``forward`` methods, ``training_loss``, ``Tensor.backward``,
``Adam.step``, the engine's ``recommend``/``set_history`` — and adds each
call's duration to accumulators in an anonymous shared memory map.  The
wrappers are installed before the serving cluster forks, so its worker
inherits them and writes its timings into the same map, in a section of
its own.  Untraced runs install nothing.

:class:`StepClock` is the one probe both kinds of run use: it wraps the
model's batch iterator, so it sees where every optimisation step starts
and ends without touching the trainer.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import statistics
import time

import numpy as np

import repro.train.trainer as trainer_module
from repro.core.encoder import IntentAwareEncoder
from repro.core.intent_decoder import IntentDecoder
from repro.core.intent_extraction import IntentExtractor
from repro.core.intent_transition import StructuredIntentTransition
from repro.core.isrec import ISRec
from repro.models.base import SequenceRecommender
from repro.optim import Adam
from repro.serve import RecommendationEngine
from repro.tensor import Tensor, graph_nodes, tensor_allocs

#: Accumulator slots: one per wrapped call.
SLOTS = (
    "core.encoder", "core.extractor", "core.transition", "core.decoder",
    "model.sequence_output", "model.training_loss", "tensor.backward",
    "train.clip", "optim.step", "eval.score",
    "engine.recommend", "engine.set_history",
)

#: Modules whose step inputs are captured for the isolated replay, and the
#: step they are captured from (the second, past first-call effects).
REPLAYED = ("core.encoder", "core.transition", "core.decoder")
CAPTURE_STEP = 1

PARENT, WORKER = 0, 1


class Recorder:
    """Call counts and total seconds per slot, in memory shared across fork.

    The process that creates the recorder writes into the ``PARENT``
    section and every forked child into the ``WORKER`` section.  Recording
    happens only while :attr:`enabled` is set; the flag lives in the shared
    map too, so the parent switches a worker's recording on and off.
    """

    def __init__(self):
        size = 8 * (1 + 2 * len(SLOTS) * 2)
        self._map = mmap.mmap(-1, size)
        values = np.frombuffer(self._map, dtype=np.float64)
        self._flag = values[:1]
        self._acc = values[1:].reshape(2, len(SLOTS), 2)
        self._index = {slot: i for i, slot in enumerate(SLOTS)}
        self._owner = os.getpid()
        #: Parent-only: ``{slot: captured call arguments}`` while capturing.
        self.captured: dict[str, list] | None = None

    @property
    def enabled(self) -> bool:
        return bool(self._flag[0])

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._flag[0] = 1.0 if value else 0.0

    def add(self, slot: str, seconds: float) -> None:
        section = PARENT if os.getpid() == self._owner else WORKER
        row = self._acc[section, self._index[slot]]
        row[0] += 1.0
        row[1] += seconds

    def reset(self) -> None:
        self._acc[...] = 0.0

    def count(self, section: int, slot: str) -> int:
        return int(self._acc[section, self._index[slot], 0])

    def seconds(self, section: int, slot: str) -> float:
        return float(self._acc[section, self._index[slot], 1])

    def close(self) -> None:
        self._flag = self._acc = None
        self._map.close()


def _snapshot_args(args) -> list:
    """Copies of a call's arguments, tensors reduced to their arrays."""
    captured = []
    for value in args:
        if isinstance(value, Tensor):
            captured.append(("tensor", value.data.copy()))
        elif isinstance(value, np.ndarray):
            captured.append(("array", value.copy()))
        else:
            captured.append(("value", value))
    return captured


def _timed(recorder: Recorder, slot: str, function):
    capture = slot in REPLAYED

    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return function(*args, **kwargs)
        if (capture and recorder.captured is not None
                and slot not in recorder.captured):
            recorder.captured[slot] = _snapshot_args(args[1:])
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            recorder.add(slot, time.perf_counter() - start)

    wrapper.__wrapped__ = function
    return wrapper


def _targets():
    return (
        (IntentAwareEncoder, "forward", "core.encoder"),
        (IntentExtractor, "forward", "core.extractor"),
        (StructuredIntentTransition, "forward", "core.transition"),
        (IntentDecoder, "forward", "core.decoder"),
        (ISRec, "sequence_output", "model.sequence_output"),
        (SequenceRecommender, "training_loss", "model.training_loss"),
        (Tensor, "backward", "tensor.backward"),
        (trainer_module, "clip_grad_norm", "train.clip"),
        (Adam, "step", "optim.step"),
        (SequenceRecommender, "score", "eval.score"),
        (RecommendationEngine, "recommend", "engine.recommend"),
        (RecommendationEngine, "set_history", "engine.set_history"),
    )


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Wrap every traced call for the duration of the ``with`` block.

    Enter it before any serving cluster starts, so forked workers inherit
    the wrappers.  The wrappers stay inert until ``recorder.enabled``.
    """
    originals = []
    try:
        for owner, name, slot in _targets():
            original = owner.__dict__[name]
            originals.append((owner, name, original))
            setattr(owner, name, _timed(recorder, slot, original))
        yield recorder
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)


class StepClock:
    """Timestamps every optimisation step through the batch iterator.

    A step is the time from the trainer receiving a batch to it asking for
    the next one: zero-grad, loss, backward, clipping and the optimizer
    step.  ``batch_s`` holds the time spent producing each batch.  With a
    ``recorder``, recording is switched on only inside steps (so the
    fit-time validation pass stays out of the step metrics), and the
    arguments of the replayed modules are captured during step
    ``CAPTURE_STEP``.
    """

    def __init__(self, recorder: Recorder | None = None):
        self.recorder = recorder
        self.step_s: list[float] = []
        self.batch_s: list[float] = []
        self.sequences: list[int] = []
        self.allocs: list[int] = []
        self.graph_nodes: list[int] = []
        #: ``{slot: arguments}`` captured during step ``CAPTURE_STEP``.
        self.captured: dict[str, list] | None = None

    def wrap(self, batches):
        recorder = self.recorder
        iterator = iter(batches)
        while True:
            start = time.perf_counter()
            try:
                batch = next(iterator)
            except StopIteration:
                return
            ready = time.perf_counter()
            self.batch_s.append(ready - start)
            self.sequences.append(len(batch[1]))
            allocs, nodes = tensor_allocs(), graph_nodes()
            if recorder is not None:
                if len(self.step_s) == CAPTURE_STEP:
                    recorder.captured = {}
                recorder.enabled = True
            yield batch
            if recorder is not None:
                recorder.enabled = False
                if recorder.captured is not None:
                    self.captured, recorder.captured = recorder.captured, None
            self.step_s.append(time.perf_counter() - ready)
            self.allocs.append(tensor_allocs() - allocs)
            self.graph_nodes.append(graph_nodes() - nodes)


def replay_fwdbwd(module, captured: list, repeats: int, seed: int) -> float:
    """Median seconds of forward + backward of ``module`` alone.

    Re-runs the module on the arguments captured from a training step,
    turned into fresh leaf tensors, and back-propagates a fixed random
    cotangent through every output that requires a gradient.
    """
    rng = np.random.default_rng(seed)
    cotangents = None
    times = []
    for _ in range(repeats):
        args = [Tensor(value.copy(), requires_grad=True) if kind == "tensor"
                else value for kind, value in captured]
        start = time.perf_counter()
        outputs = module(*args)
        if not isinstance(outputs, tuple):
            outputs = (outputs,)
        live = [output for output in outputs if output.requires_grad]
        if cotangents is None:
            cotangents = [rng.standard_normal(output.shape).astype(
                output.data.dtype) for output in live]
        loss = (live[0] * cotangents[0]).sum()
        for output, cotangent in zip(live[1:], cotangents[1:]):
            loss = loss + (output * cotangent).sum()
        loss.backward()
        times.append(time.perf_counter() - start)
    module.zero_grad()
    return statistics.median(times)
