"""Correctness checks and outcome accounting of the benchmark.

The check functions return a list of human-readable problems (empty when the
check passes), so a run can report all of them before it fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.serve import DeadlineExceeded, Overloaded


@dataclass
class Outcomes:
    """Counts of what happened to every attempted operation.

    ``shed``, ``deadline``, ``degraded`` and ``error`` all count as failed;
    a degraded answer is also an incorrect one (``problems`` says why).
    """

    attempted: int = 0
    ok: int = 0
    shed: int = 0
    deadline: int = 0
    degraded: int = 0
    error: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.shed + self.deadline + self.degraded + self.error

    def record_ok(self, count: int = 1) -> None:
        """Count operations that completed without a serving answer."""
        self.attempted += count
        self.ok += count

    def record_response(self, response) -> bool:
        """Count one served answer; returns whether it is a model answer."""
        self.attempted += 1
        if response.degraded:
            self.degraded += 1
            if self.degraded == 1:
                self.problems.append("a served answer was degraded")
            return False
        self.ok += 1
        return True

    def record_error(self, error: BaseException) -> None:
        """Count one request that raised instead of answering."""
        self.attempted += 1
        if isinstance(error, Overloaded):
            self.shed += 1
        elif isinstance(error, DeadlineExceeded):
            self.deadline += 1
        else:
            self.error += 1

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "ok": self.ok, "shed": self.shed,
                "deadline": self.deadline, "degraded": self.degraded,
                "error": self.error, "failed": self.failed}


def answer_problems(items, k: int, num_items: int, seen) -> list[str]:
    """Problems with one top-``k`` answer: size, ids, scores, seen items."""
    problems = []
    if len(items) != k:
        problems.append(f"{len(items)} items instead of {k}")
    ids = [int(item) for item, _score in items]
    if len(set(ids)) != len(ids):
        problems.append("repeated item ids")
    if any(not 1 <= item <= num_items for item in ids):
        problems.append("item id outside the catalogue")
    if not all(math.isfinite(float(score)) for _item, score in items):
        problems.append("non-finite score")
    scores = [float(score) for _item, score in items]
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("scores not in descending order")
    if seen is not None and set(ids) & set(seen):
        problems.append("recommended an already seen item")
    return problems


def _bits(items) -> list[tuple[int, bytes]]:
    return [(int(item), np.float64(score).tobytes()) for item, score in items]


def parity_mismatches(served: dict, reference: dict) -> list[str]:
    """Users whose served top-K differs from the reference, bit for bit.

    Both arguments map a user to a sequence of ``(item, score)`` pairs; the
    scores are compared by their float64 bit patterns.
    """
    problems = []
    for user in sorted(reference):
        if user not in served:
            problems.append(f"user {user}: no served answer")
        elif _bits(served[user]) != _bits(reference[user]):
            problems.append(f"user {user}: served top-K differs from the "
                            f"in-process engine")
    return problems


def sum_problems(name: str, total: float, parts: dict[str, float | None],
                 tolerance: float) -> list[str]:
    """Check that measured ``parts`` add up to ``total`` within ``tolerance``.

    ``tolerance`` is a share of ``total``.  A part given as ``None`` was not
    measured and is reported as missing; the sum of the rest must then still
    land within the tolerance, which a missing part usually breaks.
    """
    problems = [f"{name}: part {part!r} was not measured"
                for part, value in parts.items() if value is None]
    measured = sum(value for value in parts.values() if value is not None)
    if not total > 0:
        problems.append(f"{name}: total is {total!r}")
    elif abs(measured - total) > tolerance * total:
        problems.append(
            f"{name}: parts sum to {measured:.6g} against a total of "
            f"{total:.6g} ({100 * (measured - total) / total:+.1f}%, "
            f"tolerance {100 * tolerance:.0f}%)")
    return problems


def sum_error(total: float, parts: dict[str, float | None]) -> float:
    """Relative gap between ``total`` and the sum of its measured parts."""
    measured = sum(value for value in parts.values() if value is not None)
    return abs(measured - total) / total if total > 0 else math.inf


def percentile_ms(seconds, q: float) -> float:
    """The ``q``-th percentile of a list of durations, in milliseconds."""
    return float(np.percentile(np.asarray(seconds, dtype=np.float64), q)) * 1e3
