"""The benchmark's correctness checks reject what they exist to reject."""

import math

import numpy as np

from perfbench import checks
from repro.serve import (
    DeadlineExceeded, Overloaded, ServeResponse, ShardUnavailable,
)

ANSWER = ((12, 3.25), (7, 2.5), (40, 2.5), (3, -1.0))


def test_parity_accepts_identical_answers():
    assert checks.parity_mismatches({1: ANSWER}, {1: list(ANSWER)}) == []


def test_parity_rejects_a_score_one_ulp_off():
    corrupted = list(ANSWER)
    item, score = corrupted[2]
    corrupted[2] = (item, float(np.nextafter(score, math.inf)))
    problems = checks.parity_mismatches({1: tuple(corrupted)}, {1: ANSWER})
    assert len(problems) == 1 and "user 1" in problems[0]


def test_parity_rejects_reordered_or_missing_answers():
    reordered = (ANSWER[1], ANSWER[0]) + ANSWER[2:]
    assert checks.parity_mismatches({1: reordered}, {1: ANSWER})
    assert checks.parity_mismatches({}, {1: ANSWER})


def test_shed_and_degraded_answers_count_as_failed():
    outcomes = checks.Outcomes()
    assert outcomes.record_response(ServeResponse(ANSWER, False, 0))
    outcomes.record_error(Overloaded(0, 64, 64))
    assert not outcomes.record_response(ServeResponse(ANSWER, True, 0))
    outcomes.record_error(DeadlineExceeded(5, 2.0, 3))
    outcomes.record_error(ShardUnavailable(0, "down"))
    assert outcomes.as_dict() == {
        "attempted": 5, "ok": 1, "shed": 1, "deadline": 1, "degraded": 1,
        "error": 1, "failed": 4}
    assert outcomes.problems == ["a served answer was degraded"]


def test_answer_checks_catch_seen_items_and_bad_scores():
    assert checks.answer_problems(ANSWER, 4, 50, seen=[1, 2]) == []
    assert checks.answer_problems(ANSWER, 4, 50, seen=[7]) == [
        "recommended an already seen item"]
    assert checks.answer_problems(ANSWER[:3], 4, 50, seen=[]) == [
        "3 items instead of 4"]
    broken = ANSWER[:3] + ((9, math.nan),)
    assert "non-finite score" in checks.answer_problems(broken, 4, 50, [])
    assert "item id outside the catalogue" in checks.answer_problems(
        ANSWER, 4, 20, [])


def test_sum_check_accepts_parts_within_tolerance():
    parts = {"loss": 0.12, "backward": 0.25, "clip": 0.001, "optimizer": 0.002}
    assert checks.sum_problems("step", 0.38, parts, 0.05) == []


def test_sum_check_flags_a_missing_part():
    parts = {"loss": 0.12, "backward": None, "clip": 0.001, "optimizer": 0.002}
    problems = checks.sum_problems("step", 0.38, parts, 0.05)
    assert any("'backward' was not measured" in p for p in problems)
    assert any("parts sum to" in p for p in problems)
    del parts["backward"]
    assert checks.sum_problems("step", 0.38, parts, 0.05)


def test_sum_check_flags_parts_exceeding_the_total():
    assert checks.sum_problems("forward", 1.0, {"a": 0.7, "b": 0.5}, 0.05)
