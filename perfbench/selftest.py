#!/usr/bin/env python3
"""Self-test of the benchmark's own logic, at tiny scale.

Run from the repository root::

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

Checks rung verdicts and capacity selection, failure accounting, span
self-time arithmetic, answer grading, the epoch attribution of streamed
answers, and that ``BENCHMARK.json``, ``config.json`` and the runner agree.
The end-to-end checks run the real program on ``beijing_like("tiny")``.
"""

from __future__ import annotations

import json
import math
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
from reference import EXACT, INEXACT, WRONG, Answer, grade, rounding_tolerance  # noqa: E402
from stats import (  # noqa: E402
    Outcome, capacity, merge_outcomes, percentile, rung_passes, self_time_by_name, self_times,
)


def _span(span_id, parent, start, duration, name="x"):
    return {"span_id": span_id, "parent_id": parent, "start": start,
            "duration_seconds": duration, "name": name}


def test_percentile_interpolates():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile(list(range(101)), 99) == 99.0
    assert percentile([0.0, 10.0], 25) == 2.5
    assert math.isnan(percentile([], 50))


def test_rung_verdict_and_capacity():
    ok = Outcome(attempted=200, answered=200)
    assert rung_passes(500.0, ok, 500)
    assert not rung_passes(500.1, ok, 500)
    assert not rung_passes(100.0, Outcome(attempted=200, answered=200, shed=1), 500)
    assert not rung_passes(100.0, Outcome(attempted=201, answered=200), 500)  # one unaccounted
    assert capacity([(200, True), (400, True), (650, False)]) == 400
    assert capacity([(650, True), (200, False), (400, True)]) == 650
    assert capacity([(200, False), (400, False)]) == 0.0


def test_failed_ratio_accounting():
    o = Outcome(attempted=100, answered=90, dead_letters=6, abandoned=2, wrong=3, shed=5)
    assert o.unaccounted == 2
    assert o.failed == 6 + 2 + 2 + 3
    assert o.failed_ratio == 0.13
    total = merge_outcomes([o, Outcome(attempted=100, answered=100)])
    assert (total.attempted, total.failed, total.shed) == (200, 13, 5)
    assert Outcome(attempted=0, answered=0).failed_ratio == 0.0


def test_self_time_arithmetic():
    spans = [
        _span(1, None, 0.0, 10.0, "batch"),
        _span(2, 1, 1.0, 3.0, "core.decompose"),
        _span(3, 1, 5.0, 4.0, "core.answer"),
        _span(4, 3, 6.0, 1.0, "index.query"),
        _span(5, 3, 6.5, 1.0, "index.query"),  # overlaps its sibling
        _span(6, 1, 9.5, 2.0, "core.answer"),  # overhangs its parent
    ]
    own = self_times(spans)
    assert own == {1: 2.5, 2: 3.0, 3: 2.5, 4: 1.0, 5: 1.0, 6: 2.0}
    by_name = self_time_by_name(spans)
    assert by_name["core.answer"] == 4.5 and by_name["index.query"] == 2.0
    # Self times of a properly nested tree add up to the root's duration.
    nested = spans[:4]
    assert math.isclose(sum(self_times(nested).values()), 10.0)


def test_host_speed_scaling():
    ref = hostspeed.REFERENCE_S
    speed = hostspeed.SpeedSampler()
    # Probes before (0.0), inside (0.5, 1.0) and after (2.0) a region from
    # 0.1 to 1.9, all at half the reference speed.
    speed.samples = [(0.0, 2 * ref, False), (0.5, 2 * ref, True), (1.0, 2 * ref, True), (2.0, 2 * ref, False)]
    assert math.isclose(speed.scaled(0.1, 1.9), (1.8 - 4 * ref) / 2)
    # Only probes within one interval of the region set its speed.
    speed.samples.append((5.0, ref, False))
    assert math.isclose(speed.scaled(4.99, 5.0), 0.01)
    # Without a probe nearby, every probe counts.
    assert math.isclose(speed.scaled(3.0, 3.5), 0.5 * 5 / 9)
    with hostspeed.SpeedSampler() as live:
        start = time.perf_counter()
        while time.perf_counter() - start < 3 * hostspeed.INTERVAL_S:
            pass
        end = time.perf_counter()
    inside = [s for _, s, i in live.samples if i]
    assert len(inside) >= 2 and len(live.samples) == len(inside) + 2
    assert 0 < live.scaled(start, end) < 2 * (end - start - sum(inside)) * ref / min(s for _, s, _ in live.samples)


def test_grading():
    weights = {(0, 1): 0.1, (1, 2): 0.2, (0, 2): 1.0}
    best = 0.0 + 0.1 + 0.2
    path = array("i", [0, 1, 2])
    longest = 1.0
    assert grade(Answer(0, 2, best, path), best, weights, longest) == EXACT
    assert grade(Answer(0, 2, math.nextafter(best, 1.0), path), best, weights, longest) == INEXACT
    assert grade(Answer(0, 2, best * 1.001, path), best, weights, longest) == WRONG
    assert grade(Answer(0, 2, 1.0, array("i", [0, 2])), best, weights, longest) == WRONG  # not shortest
    assert grade(Answer(0, 2, best, array("i", [0, 2, 1])), best, weights, longest) == WRONG  # wrong end
    assert grade(Answer(0, 2, best, array("i", [0, 3, 2])), best, weights, longest) == WRONG  # no such arc
    assert grade(Answer(0, 2, best, array("i")), best, weights, longest) == WRONG  # no path
    assert grade(Answer(0, 2, best, path), math.inf, weights, longest) == WRONG
    # The tolerance is len(path) ULPs of the longest cached path, no more.
    tolerance = 3 * math.ulp(longest)
    assert grade(Answer(0, 2, best + tolerance, path), best, weights, longest) == INEXACT
    assert grade(Answer(0, 2, best + 2 * tolerance, path), best, weights, longest) == WRONG
    assert grade(Answer(0, 2, best * (1 + 1e-12), path), best, weights, longest) == WRONG


def test_sub_path_rounding_stays_within_tolerance():
    import random

    rng = random.Random(7)
    for _ in range(200):
        weights = [rng.uniform(0.001, 3.0) for _ in range(rng.randint(2, 300))]
        prefix = [0.0]
        for w in weights:
            prefix.append(prefix[-1] + w)
        s = rng.randrange(len(weights))
        t = rng.randrange(s + 1, len(weights) + 1)
        reference = 0.0
        for w in weights[s:t]:
            reference += w
        path = array("i", range(s, t + 1))
        gap = abs((prefix[t] - prefix[s]) - reference)
        assert gap <= rounding_tolerance(Answer(s, t, reference, path), prefix[-1])


def test_window_epoch_attribution():
    class W:
        def __init__(self, cut_at, queries, completed_at=None):
            self.cut_at, self.queries = cut_at, queries
            self.completed_at = cut_at + 0.05 if completed_at is None else completed_at

    class A:
        def __init__(self, arrival):
            self.arrival = arrival

    times = [1.0, 2.0, 3.0]
    windows = [W(0.5, 2), W(1.2, 1), W(2.6, 2)]
    arrivals = [A(t) for t in (0.1, 0.4, 0.9, 2.2, 2.5)]
    owner = run._fifo_windows(windows, len(arrivals), shed=0)
    assert owner == [0, 0, 1, 2, 2]
    assert run._epoch_candidates(windows, arrivals, owner, times) == [[0], [0], [1], [2], [2]]
    # Shedding breaks the FIFO alignment.  A shed arrival is answered on
    # admission at the graph of the last window dispatched by then, which
    # may predate an epoch boundary between that cut and the arrival: the
    # arrival at 2.2 sees epoch 1 (cut 1.2), not epoch 2 (boundary 2.0).
    assert run._fifo_windows(windows, len(arrivals), shed=1) is None
    shed = run._epoch_candidates(windows, arrivals, None, times)
    assert shed[0] == [0, 1, 2] and shed[2] == [0, 1, 2]
    assert shed[3] == [1, 2]
    # A window cut at its deadline before an arrival but completed after
    # it may be dispatched after the arrival was shed: it does not count.
    late = [W(0.5, 2), W(1.2, 1, completed_at=2.3), W(2.6, 2)]
    assert run._epoch_candidates(late, arrivals, None, times)[3] == [0, 1, 2]


def test_config_matches_benchmark():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    config = json.loads((HERE / "config.json").read_text())
    layer_names = [m["name"] for m in bench["per_layer"]]
    assert sorted(layer_names) == sorted(config["layers"])
    e2e = {m["name"] for m in bench["end_to_end"]} | {"lat_p50_ms.*", "lat_p99_ms.*"}
    for name, where in config["layers"].items():
        assert set(where["moves"]) <= e2e, name
        assert not set(where["on"]) & set(where["unchanged_on"]), name
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    assert sorted(config["stream_rungs"]) == sorted(run.RUNGS) == sorted(run.RUNG_SHARES)


TINY = {"scale": "tiny"}


def test_tiny_batch_traced_run_accounts_for_wall_time():
    sizes = dict(TINY, batch_size=60, setup_repeats=2)
    trace = run.Trace()
    untraced = run.run_batch("batch-peak", 3, 0.01, **sizes)
    result = run.run_batch("batch-peak", 3, 0.01, trace, **sizes)
    metrics, _ = run.layer_metrics("batch-peak", 3, result, untraced, trace)
    assert result["outcome"].wrong == 0 and result["outcome"].failed == 0
    assert set(metrics) == {m["name"] for m in run.BENCHMARK["per_layer"]}
    spans = trace.spans()
    wall = sum(s["duration_seconds"] for s in spans if s["name"] == "batch")
    layers = sum(v for k, v in self_time_by_name(spans).items() if k != "batch")
    assert math.isclose(layers + metrics["obs.unattributed_ratio"] * wall, wall, rel_tol=1e-9)
    assert metrics["core.decompose_s"] > 0 and metrics["search.settled_per_query"] > 0


def test_tiny_stream_epochs_grades_every_answer_at_its_epoch():
    rates = {"low": 40, "mid": 80, "high": 120}
    result = run.run_stream("stream-epochs", 5, 6.0, rounds=2, rates=rates, **TINY)
    outcome = result["outcome"]
    assert outcome.attempted > 0 and outcome.wrong == 0 and outcome.failed == 0
    assert result["e2e"]["capacity_qps"] > 0
    assert sum(r["customizations"] for r in result["rungs"].values()) > 0


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except Exception as exc:  # report every failing check, then exit 1
                failures += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    sys.exit(1 if failures else 0)
