"""Tracing records across fork and leaves the program as it found it."""

import multiprocessing

from perfbench import tracing
from perfbench.tracing import PARENT, WORKER
from repro.core.isrec import ISRec
from repro.serve import RecommendationEngine
from repro.tensor import Tensor


def _child(recorder, started, proceed):
    recorder.add("engine.recommend", 0.25)
    started.set()
    proceed.wait(10)
    if recorder.enabled:
        recorder.add("engine.recommend", 0.5)


def test_a_forked_child_records_into_its_own_section():
    recorder = tracing.Recorder()
    context = multiprocessing.get_context("fork")
    started, proceed = context.Event(), context.Event()
    process = context.Process(target=_child,
                              args=(recorder, started, proceed))
    process.start()
    assert started.wait(10)
    recorder.enabled = True  # seen by the child through the shared map
    proceed.set()
    process.join(10)
    assert not process.is_alive() and process.exitcode == 0
    recorder.add("engine.recommend", 2.0)
    assert recorder.count(WORKER, "engine.recommend") == 2
    assert recorder.seconds(WORKER, "engine.recommend") == 0.75
    assert recorder.count(PARENT, "engine.recommend") == 1
    recorder.reset()
    assert recorder.count(WORKER, "engine.recommend") == 0
    recorder.close()


def test_installed_wrappers_are_removed_afterwards():
    originals = (ISRec.sequence_output, Tensor.backward,
                 RecommendationEngine.recommend)
    recorder = tracing.Recorder()
    with tracing.installed(recorder):
        assert ISRec.sequence_output is not originals[0]
        assert Tensor.backward.__wrapped__ is originals[1]
    assert (ISRec.sequence_output, Tensor.backward,
            RecommendationEngine.recommend) == originals
    recorder.close()


def test_step_clock_times_every_step_and_switches_recording():
    recorder = tracing.Recorder()
    clock = tracing.StepClock(recorder)
    seen = []
    for batch in clock.wrap([(None, [1, 2])] * 3):
        seen.append(recorder.enabled)
    assert seen == [True, True, True] and not recorder.enabled
    assert len(clock.step_s) == len(clock.batch_s) == 3
    assert clock.sequences == [2, 2, 2]
    assert clock.captured == {}
    recorder.close()
