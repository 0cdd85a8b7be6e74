"""Pure arithmetic of the benchmark: percentiles, rung verdicts, capacity,
failure accounting and span self time.

Nothing here imports the program, so ``selftest.py`` can check it on
hand-made inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]; NaN when empty."""
    if not values:
        return math.nan
    data = sorted(values)
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * min(max(q, 0.0), 100.0) / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


@dataclass
class Outcome:
    """What happened to the queries of one batch or one streaming rung.

    ``attempted`` counts every query the workload scheduled.  A query is
    *failed* when it was dead-lettered (shed-dropped queries included),
    abandoned by a drain, never accounted for, or answered wrongly.
    Shed-degraded queries are answered and are not failures, but they
    still break a rung's verdict (see :func:`rung_passes`).
    """

    attempted: int
    answered: int
    dead_letters: int = 0
    abandoned: int = 0
    wrong: int = 0
    shed: int = 0

    @property
    def unaccounted(self) -> int:
        return max(0, self.attempted - self.answered - self.dead_letters - self.abandoned)

    @property
    def failed(self) -> int:
        return self.dead_letters + self.abandoned + self.unaccounted + self.wrong

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def merge_outcomes(outcomes: Iterable[Outcome]) -> Outcome:
    total = Outcome(0, 0)
    for o in outcomes:
        total.attempted += o.attempted
        total.answered += o.answered
        total.dead_letters += o.dead_letters
        total.abandoned += o.abandoned
        total.wrong += o.wrong
        total.shed += o.shed
    return total


def rung_passes(tail_ms: float, outcome: Outcome, limit_ms: float) -> bool:
    """A rung meets the limit: nothing shed or failed and its tail <= limit.

    A shed query is answered late by plain Dijkstra and a failed one not
    at all, so either one misses the limit and fails the rung.
    """
    if outcome.failed or outcome.shed or outcome.attempted == 0:
        return False
    return tail_ms <= limit_ms


def capacity(rungs: Sequence[Tuple[float, bool]]) -> float:
    """Highest rate of a fixed ladder whose rung passed; 0.0 when none did.

    ``rungs`` holds ``(rate, passed)`` pairs in any order.  A lower rung
    may fail while a higher one passes: at low rates windows close on
    their timer, so the wait for the window, not the load, sets p99.
    """
    return max((rate for rate, passed in rungs if passed), default=0.0)


def self_times(spans: Iterable[Mapping]) -> Dict[int, float]:
    """Self seconds per span id: its duration minus what its children cover.

    ``spans`` are dicts with ``span_id``, ``parent_id``, ``start`` and
    ``duration_seconds`` (the :class:`repro.obs.SpanRecord` layout).  Child
    intervals are clipped to the parent and merged before subtracting, so
    overlapping or overhanging children never drive self time negative.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.get("parent_id") is not None:
            start = float(s["start"])
            children.setdefault(int(s["parent_id"]), []).append(
                (start, start + float(s["duration_seconds"]))
            )
    out: Dict[int, float] = {}
    for s in spans:
        start = float(s["start"])
        end = start + float(s["duration_seconds"])
        covered = 0.0
        cursor = start
        for a, b in sorted(children.get(int(s["span_id"]), [])):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out[int(s["span_id"])] = max(0.0, (end - start) - covered)
    return out


def self_time_by_name(spans: Iterable[Mapping]) -> Dict[str, float]:
    """Total self seconds per span name."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for s in spans:
        name = str(s["name"])
        totals[name] = totals.get(name, 0.0) + own[int(s["span_id"])]
    return totals
