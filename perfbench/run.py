#!/usr/bin/env python3
"""Repo benchmark: batch throughput and open-loop serving capacity.

Run from the repository root::

    python3 perfbench/run.py --workload batch-peak --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md``): ``batch-peak``, ``batch-scatter``,
``stream-peak``, ``stream-epochs``; ``all`` runs the four in turn.
``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same workload once untraced and once with layer
spans and a metrics registry, and reports the per-layer metrics.  Compute
times (set-up, batches, window dispatch) are reported at a reference host
speed (see ``hostspeed.py``); stream latencies are real time.  Every
answer is graded against the benchmark's own Dijkstra after the timed
phase.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1 when
any answer is wrong and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from bisect import bisect_right
from contextlib import ExitStack, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((HERE / "config.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPANS_DIR = ROOT / ".perfbench-out"

SCALE = "large"  # beijing_like("large"): 6,913 vertices, 16,128 arcs
BATCH_SIZE = 2000
BATCH_METHOD = "slc-s"
SETUP_REPEATS = 15  # batch set-ups per run; setup_s is their median
STREAM_ROUNDS = 3  # interleaved passes over the rate ladder
RUNG_SHARES = {"low": 0.4, "mid": 0.3, "high": 0.3}  # of a run's seconds
SERVICE = {
    "window_seconds": 0.25,
    "max_batch": 64,
    "workers": 0,
    # Bounds an overload probe: a query still queued after a second is
    # dead-lettered, and shedding degrades at most 64 queries a window.
    "query_deadline_seconds": 1.0,
    "shed_policy": "degrade-then-drop",
    "degrade_budget": 64,
}
EPOCH_PERIOD_S = 1.0
CONGESTION_FRACTION = 0.15
LAYER_REFERENCE_QUERIES = 500

sys.path.insert(0, str(HERE))
from hostspeed import SpeedSampler  # noqa: E402
from stats import (  # noqa: E402
    Outcome, capacity, median, merge_outcomes, percentile, rung_passes, self_time_by_name,
)

WORKLOADS = ("batch-peak", "batch-scatter", "stream-peak", "stream-epochs")
RUNGS = ("low", "mid", "high")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _load_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        raise SystemExit(2)


class Trace:
    """The span tracer and metrics registry of one traced pass."""

    def __init__(self):
        from repro.obs import MetricsRegistry, SpanTracer

        self.tracer = SpanTracer()
        self.registry = MetricsRegistry()

    def serving(self):
        """Registry plus layer spans, for the measured phase only."""
        from repro.obs import use_registry
        from tracing import layer_spans

        stack = ExitStack()
        stack.enter_context(use_registry(self.registry))
        stack.enter_context(layer_spans(self.tracer))
        return stack

    def spans(self):
        return [r.to_dict() for r in self.tracer.records]


# ----------------------------------------------------------------------
# Grading
# ----------------------------------------------------------------------
def _grade_static(graph, answers):
    from reference import grade_all, weight_map

    return grade_all(graph.num_vertices, weight_map(graph), answers)


def _grade_epochs(scale, seed, horizon, candidates, answers):
    """Grade answers that may belong to different weight epochs.

    ``candidates[i]`` lists the epochs answer ``i`` may have been answered
    in (one epoch when the window it rode in is known).  The timeline is
    replayed on a fresh network, epoch by epoch; an answer takes its best
    grade over its candidate epochs.
    """
    from repro import TrafficTimeline, beijing_like
    from reference import WRONG, grade_all, weight_map
    from workloads import epoch_times, schedule_epochs

    graph = beijing_like(scale)
    timeline = TrafficTimeline(graph, seed=seed)
    schedule_epochs(timeline, horizon, EPOCH_PERIOD_S, CONGESTION_FRACTION)
    times = epoch_times(horizon, EPOCH_PERIOD_S)
    by_epoch = {}
    for i, epochs in enumerate(candidates):
        for e in epochs:
            by_epoch.setdefault(e, []).append(i)
    grades = [WRONG] * len(answers)
    for e in range(max(by_epoch, default=-1) + 1):
        if e:
            timeline.advance_to(times[e - 1])
        members = by_epoch.get(e)
        if not members:
            continue
        for i, g in zip(members, grade_all(graph.num_vertices, weight_map(graph), [answers[i] for i in members])):
            grades[i] = min(grades[i], g)
    return grades


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def _batch_setup(scale):
    from repro import BatchProcessor, beijing_like

    with SpeedSampler() as speed:
        t0 = time.perf_counter()
        graph = beijing_like(scale)
        t1 = time.perf_counter()
        graph.freeze()
        t2 = time.perf_counter()
        processor = BatchProcessor(graph)
        t3 = time.perf_counter()
    return graph, processor, {
        "setup": speed.scaled(t0, t3), "build": speed.scaled(t0, t1), "freeze": speed.scaled(t1, t2),
    }


def run_batch(workload, seed, seconds, trace=None, scale=SCALE, batch_size=BATCH_SIZE,
              setup_repeats=SETUP_REPEATS):
    from reference import INEXACT, WRONG, Answer
    from workloads import query_generator

    mix = "peak" if workload == "batch-peak" else "scatter"
    setups = []
    for _ in range(setup_repeats):
        graph, processor, times = _batch_setup(scale)
        setups.append(times)
    generator = query_generator(graph, mix, seed)
    walls, scaled, sizes, visited, answers, outcomes, cache_bytes = [], [], [], 0, [], [], []
    serving = trace.serving() if trace else nullcontext()
    with serving:
        while True:
            batch = generator.batch(batch_size)
            span = trace.tracer.span("batch", queries=len(batch)) if trace else nullcontext()
            with span, SpeedSampler() as speed:
                start = time.perf_counter()
                answer = processor.process(batch, BATCH_METHOD)
                end = time.perf_counter()
            walls.append(end - start)
            scaled.append(speed.scaled(start, end))
            sizes.append(len(batch))
            visited += answer.visited
            answers.extend(Answer.of(q, r) for q, r in answer.answers)
            outcomes.append(Outcome(attempted=len(batch), answered=len(answer.answers)))
            cache_bytes.append(answer.cache_bytes)
            del answer
            if len(walls) >= 2 and sum(walls) + walls[-1] / 2 > seconds:
                break
    rss = _peak_rss_mb()
    graded_at = time.perf_counter()
    grades = _grade_static(graph, answers)
    grading_s = time.perf_counter() - graded_at
    outcome = merge_outcomes(outcomes)
    outcome.wrong = grades.count(WRONG)
    queries = sum(sizes)
    per_query = [w for w, n in zip(scaled, sizes) for _ in range(n)]
    lat_p50, lat_p99 = 1000 * median(per_query), 1000 * percentile(per_query, 99)
    qps = queries / sum(scaled)
    e2e = {
        "setup_s": median([s["setup"] for s in setups]),
        "peak_rss_mb": rss,
        "batch_qps": qps,
        "batch_s.p50": median(scaled),
        "vnn_per_query": visited / queries,
        "ok_ratio": 1.0 - outcome.failed_ratio,
        "capacity_qps": qps,
        "admitted_ratio.high": 1.0,
    }
    for rung in RUNGS:
        e2e[f"lat_p50_ms.{rung}"] = lat_p50
        e2e[f"lat_p99_ms.{rung}"] = lat_p99
    return {
        "kind": "batch",
        "scale": scale,
        "batch_size": batch_size,
        "outcome": outcome,
        "e2e": e2e,
        "setups": setups,
        "walls": walls,
        "inexact": grades.count(INEXACT),
        "cache_bytes": cache_bytes,
        "log": [f"batches={len(walls)} queries={queries} wall_s={sum(walls):.3f} "
                f"reference_s={sum(scaled):.3f} grading_s={grading_s:.2f}"],
    }


# ----------------------------------------------------------------------
# Streaming workloads
# ----------------------------------------------------------------------
def _stream_setup(scale, epochs, seed):
    from repro import StreamingQueryService, TrafficTimeline, beijing_like

    with SpeedSampler() as speed:
        t0 = time.perf_counter()
        graph = beijing_like(scale)
        t1 = time.perf_counter()
        graph.freeze()
        t2 = time.perf_counter()
        timeline = TrafficTimeline(graph, seed=seed) if epochs else None
        t3 = time.perf_counter()
        service = StreamingQueryService(
            graph,
            clock="real",
            timeline=timeline,
            index="cch" if epochs else "none",
            **SERVICE,
        )
        t4 = time.perf_counter()
    times = {
        "setup": speed.scaled(t0, t2) + speed.scaled(t3, t4),
        "build": speed.scaled(t0, t1),
        "freeze": speed.scaled(t1, t2),
    }
    return graph, timeline, service, times


def _fifo_windows(windows, count, shed):
    """Index of the window each arrival rode in, or None when unknown.

    Windows take admitted arrivals first in, first out, so without shedding
    window ``k`` holds the next ``queries`` arrivals.  Shed arrivals skip
    the queue, which breaks that alignment.
    """
    if shed or sum(w.queries for w in windows) != count:
        return None
    return [k for k, w in enumerate(windows) for _ in range(w.queries)]


def _epoch_candidates(windows, arrivals, owner, times):
    """Weight epochs each arrival may have been answered in.

    The service moves the timeline to a window's cut when it dispatches
    the window.  With ``owner`` known, an arrival was answered at the
    epoch in force at its window's cut.  Otherwise it may have been shed
    and answered on admission, at the graph of the last window dispatched
    before then: no earlier than the latest cut of a window completed by
    its arrival, no later than the last cut.
    """
    if owner is not None:
        return [[bisect_right(times, windows[k].cut_at)] for k in owner]
    last = bisect_right(times, max([w.cut_at for w in windows], default=0.0))
    candidates = []
    for tq in arrivals:
        done = [w.cut_at for w in windows if w.completed_at <= tq.arrival]
        first = bisect_right(times, max(done)) if done else 0
        candidates.append(list(range(first, last + 1)))
    return candidates


def _stream_segment(scale, epochs, seed, rate, duration, input_graph, trace):
    """One stream of ``duration`` seconds at ``rate`` into a fresh service."""
    from repro.queries import TimedQuery
    from reference import Answer
    from workloads import arrivals, epoch_times, schedule_epochs

    horizon = duration + 4 * SERVICE["query_deadline_seconds"]
    scheduled = sorted(arrivals(input_graph, "peak", seed, rate, duration))
    graph, timeline, service, times = _stream_setup(scale, epochs, seed)
    # The service clock starts inside its constructor; the open loop starts
    # now, when the service is ready, so set-up is not charged as latency.
    start_at = service.clock.now()
    stream = [TimedQuery(start_at + tq.arrival, tq.query) for tq in scheduled]
    if epochs:
        schedule_epochs(timeline, horizon, EPOCH_PERIOD_S, CONGESTION_FRACTION, start_at)
    serving = trace.serving() if trace else nullcontext()
    with serving, SpeedSampler(service.clock.now) as speed:
        start = time.perf_counter()
        report = service.run(stream)
        wall = time.perf_counter() - start
    service.close()
    shed = report.shed_degraded + report.shed_dropped
    owner = _fifo_windows(report.windows, len(stream), shed)
    segment = {
        "seed": seed,
        "horizon": horizon,
        "setup": times,
        "wall": wall,
        "outcome": Outcome(
            attempted=len(stream),
            answered=len(report.answers),
            dead_letters=len(report.dead_letters),
            abandoned=report.unadmitted_arrivals,
            shed=shed,
        ),
        "latencies": list(report.latencies),
        # Time each query waited for its window to close; left out when
        # the window attribution is lost (see _fifo_windows).
        "waits": (
            [report.windows[k].cut_at - tq.arrival for k, tq in zip(owner, stream)]
            if owner is not None
            else []
        ),
        "answers": [Answer.of(q, r) for q, r in report.answers],
        "visited": sum(r.visited for _, r in report.answers),
        "windows": [
            (w.opened_at, w.cut_at, w.completed_at, w.queries, w.index_served, w.breaker_degraded,
             w.report.answer.cache_bytes if w.report is not None and w.report.answer is not None else None,
             speed.scaled(w.cut_at, w.completed_at))
            for w in report.windows
        ],
        "cache": (report.stream_cache_hits, report.stream_cache_misses, report.stream_cache_invalidations),
        "deadline_expired": report.deadline_expired,
        "customizations": report.index_customizations,
    }
    if epochs:
        position = {id(tq.query): i for i, tq in enumerate(stream)}
        times = [start_at + t for t in epoch_times(horizon, EPOCH_PERIOD_S)]
        per_arrival = _epoch_candidates(report.windows, stream, owner, times)
        every = sorted({e for c in per_arrival for e in c})
        segment["candidates"] = [
            per_arrival[position[id(q)]] if id(q) in position else every for q, _ in report.answers
        ]
    return segment


def run_stream(workload, seed, seconds, trace=None, scale=SCALE, rounds=STREAM_ROUNDS,
               rates=None):
    """Interleaved rounds of the rate ladder, each rung a fresh service.

    Every round runs each rung for its share of ``seconds`` divided by the
    number of rounds, so a slow stretch of the host spreads over all rungs
    instead of landing on one.  A rung's latencies are the union of its
    segments.  ``rates`` defaults to the ladder in ``config.json``.
    """
    from repro import beijing_like
    from reference import INEXACT, WRONG

    epochs = workload == "stream-epochs"
    rates = rates or CONFIG["stream_rungs"]
    limit_ms = CONFIG["latency_limit_ms"]
    input_graph = beijing_like(scale)
    segments = {rung: [] for rung in RUNGS}
    for r in range(rounds):
        for index, rung in enumerate(RUNGS):
            duration = seconds * RUNG_SHARES[rung] / rounds
            segments[rung].append(_stream_segment(
                scale, epochs, seed * 100 + 10 * r + index, rates[rung], duration, input_graph, trace,
            ))
    rss = _peak_rss_mb()
    graded_at = time.perf_counter()
    inexact = 0
    for segment in (s for group in segments.values() for s in group):
        if epochs:
            grades = _grade_epochs(scale, segment["seed"], segment["horizon"], segment["candidates"],
                                   segment["answers"])
        else:
            grades = _grade_static(input_graph, segment["answers"])
        segment["outcome"].wrong = grades.count(WRONG)
        inexact += grades.count(INEXACT)
        del segment["answers"]
    rungs = {}
    for rung, group in segments.items():
        outcome = merge_outcomes(s["outcome"] for s in group)
        latencies = [x for s in group for x in s["latencies"]]
        # A window's 64 queries finish together, so a rung's p99 sits inside
        # its one or two slowest windows.  The median over rounds of each
        # round's p99 keeps one stalled window from deciding the figure.
        tail_ms = 1000 * median([percentile(s["latencies"], 99) for s in group])
        rungs[rung] = {
            "rate": rates[rung],
            "duration": seconds * RUNG_SHARES[rung],
            "wall": sum(s["wall"] for s in group),
            "outcome": outcome,
            "latencies": latencies,
            "tail_ms": tail_ms,
            "passed": rung_passes(tail_ms, outcome, limit_ms),
            "visited": sum(s["visited"] for s in group),
            "windows": [w for s in group for w in s["windows"]],
            "waits": [x for s in group for x in s["waits"]],
            "cache": tuple(sum(s["cache"][i] for s in group) for i in range(3)),
            "deadline_expired": sum(s["deadline_expired"] for s in group),
            "customizations": sum(s["customizations"] for s in group),
        }
    outcome = merge_outcomes(r["outcome"] for r in rungs.values())
    windows = [w for r in rungs.values() for w in r["windows"]]
    high = rungs["high"]["outcome"]
    e2e = {
        "setup_s": median([s["setup"]["setup"] for group in segments.values() for s in group]),
        "peak_rss_mb": rss,
        # Window dispatch times at the reference speed (see hostspeed.py).
        "batch_qps": sum(w[3] for w in windows) / sum(w[7] for w in windows),
        # Only windows cut full at max_batch (the mid and high rungs'), so the
        # median does not jump between window sizes.
        "batch_s.p50": median([w[7] for w in windows if w[3] == SERVICE["max_batch"]]),
        "vnn_per_query": sum(r["visited"] for r in rungs.values()) / max(1, outcome.answered),
        "ok_ratio": 1.0 - outcome.failed_ratio,
        "capacity_qps": capacity([(r["rate"], r["passed"]) for r in rungs.values()]),
        "admitted_ratio.high": 1.0 - high.shed / high.attempted,
        "lat_p50_ms.low": 1000 * median(rungs["low"]["latencies"]),
        "lat_p99_ms.low": rungs["low"]["tail_ms"],
        "lat_p50_ms.mid": 1000 * median(rungs["mid"]["latencies"]),
        "lat_p99_ms.mid": rungs["mid"]["tail_ms"],
        "lat_p99_ms.high": rungs["high"]["tail_ms"],
    }
    log = [f"segments={rounds * len(RUNGS)} grading_s={time.perf_counter() - graded_at:.2f}"]
    for name, r in rungs.items():
        o = r["outcome"]
        log.append(
            f"rung {name}: rate={r['rate']}/s stream_s={r['duration']:.2f} wall_s={r['wall']:.2f} "
            f"attempted={o.attempted} answered={o.answered} dead_letters={o.dead_letters} "
            f"shed={o.shed} wrong={o.wrong} p50_ms={1000 * median(r['latencies']):.1f} "
            f"p99_ms={r['tail_ms']:.1f} (median of rounds; pooled {1000 * percentile(r['latencies'], 99):.1f}) "
            f"passed={r['passed']}"
        )
    return {
        "kind": "stream",
        "scale": scale,
        "rates": rates,
        "outcome": outcome,
        "e2e": e2e,
        "setups": [s["setup"] for group in segments.values() for s in group],
        "rungs": rungs,
        "inexact": inexact,
        "log": log,
    }


RUNNERS = {
    "batch-peak": run_batch,
    "batch-scatter": run_batch,
    "stream-peak": run_stream,
    "stream-epochs": run_stream,
}


# ----------------------------------------------------------------------
# Per-layer metrics of the traced run
# ----------------------------------------------------------------------
def _layer_reference(workload, seed, result):
    """A* per query and CCH per query on the workload's own queries,
    outside the registry, so kernel and index speed show apart from the
    cache."""
    from repro import BatchProcessor, CustomizableContractionHierarchy, QuerySet, beijing_like
    from workloads import arrivals, query_generator

    n = LAYER_REFERENCE_QUERIES
    graph = beijing_like(result["scale"])
    graph.freeze()
    if result["kind"] == "batch":
        mix = "peak" if workload == "batch-peak" else "scatter"
        queries = query_generator(graph, mix, seed).batch(result["batch_size"])[:n]
    else:
        rate = result["rates"]["high"]
        queries = QuerySet(tq.query for tq in arrivals(graph, "peak", seed * 100 + 2, rate, n / rate + 1.0)[:n])
    start = time.perf_counter()
    BatchProcessor(graph).process(queries, "astar")
    astar_ms = 1000 * (time.perf_counter() - start) / len(queries)
    out = {"search.astar_ms_per_query": astar_ms, "index.build_s": 0.0, "index.query_ms": 0.0}
    if result["kind"] == "stream":
        start = time.perf_counter()
        index = CustomizableContractionHierarchy(graph)
        out["index.build_s"] = time.perf_counter() - start
        start = time.perf_counter()
        for query in queries:
            index.distance(query.source, query.target)
        out["index.query_ms"] = 1000 * (time.perf_counter() - start) / len(queries)
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(workload, seed, result, untraced, trace):
    snap = trace.registry.snapshot()
    counters, gauges = snap.counters, snap.gauges
    spans = trace.spans()
    own = self_time_by_name(spans)
    answered = max(1, result["outcome"].answered)
    metrics = {m["name"]: 0.0 for m in BENCHMARK["per_layer"]}
    metrics.update(_layer_reference(workload, seed, result))
    if result["kind"] == "batch":
        units = len(result["walls"])
        total = sum(result["walls"])
        covered = sum(s["duration_seconds"] for s in spans if s["name"] == "batch")
        metrics["obs.unattributed_ratio"] = _ratio(own.get("batch", 0.0), covered)
        metrics["core.cache_mb"] = median(result["cache_bytes"]) / 2**20
    else:
        windows = [w for r in result["rungs"].values() for w in r["windows"]]
        units = len(windows)
        total = sum(w[2] - w[1] for w in windows)
        top = sum(s["duration_seconds"] for s in spans if s["parent_id"] is None)
        metrics["obs.unattributed_ratio"] = max(0.0, 1.0 - _ratio(top, total))
        cache_bytes = [w[6] for w in windows if w[6] is not None]
        metrics["core.cache_mb"] = median(cache_bytes) / 2**20 if cache_bytes else 0.0
        waits = [1000 * x for r in result["rungs"].values() for x in r["waits"]]
        dispatch = [1000 * (w[2] - w[1]) for w in windows]
        hits = sum(r["cache"][0] for r in result["rungs"].values())
        misses = sum(r["cache"][1] for r in result["rungs"].values())
        metrics.update({
            "streaming.window_wait_ms.p50": median(waits) if waits else 0.0,
            "streaming.dispatch_ms.p50": median(dispatch),
            "streaming.dispatch_ms.p99": percentile(dispatch, 99),
            "streaming.busy_ratio": _ratio(total, sum(r["wall"] for r in result["rungs"].values())),
            "streaming.window_size.mean": _ratio(sum(w[3] for w in windows), len(windows)),
            "streaming.cache_hit_ratio": _ratio(hits, hits + misses),
            "streaming.cache_invalidations": sum(r["cache"][2] for r in result["rungs"].values()),
            "streaming.queue_depth_max": gauges.get("streaming.queue_depth_max", 0.0),
            "streaming.index_served_windows": sum(1 for w in windows if w[4]),
            "resilience.dead_letters": result["outcome"].dead_letters,
            "resilience.deadline_expired": sum(r["deadline_expired"] for r in result["rungs"].values()),
            "resilience.breaker_degraded_windows": sum(1 for w in windows if w[5]),
        })
    windows_ms = [1000 * s["duration_seconds"] for s in spans if s["name"] == "service.process_window"]
    customize_ms = [1000 * s["duration_seconds"] for s in spans
                    if s["name"] == "index.ensure_current" and s["attrs"].get("result")]
    lookups = counters.get("cache.hits", 0) + counters.get("cache.misses", 0)
    metrics.update({
        "network.build_s": median([s["build"] for s in result["setups"]]),
        "network.freeze_s": median([s["freeze"] for s in result["setups"]]),
        "network.freezes": counters.get("csr.freezes", 0),
        "baselines.gc_sizing_s": _ratio(own.get("baselines.gc_sizing", 0.0), units),
        "core.decompose_s": _ratio(own.get("core.decompose", 0.0), units),
        "core.answer_s": _ratio(own.get("core.answer", 0.0), units),
        "core.clusters_per_query": _ratio(counters.get("cluster.count", 0), counters.get("cluster.queries", 0)),
        "core.singleton_ratio": _ratio(counters.get("cluster.singletons", 0), counters.get("cluster.queries", 0)),
        "core.cache_hit_ratio": _ratio(counters.get("cache.hits", 0), lookups),
        "core.subpath_hit_ratio": _ratio(counters.get("cache.subpath_hits", 0), lookups),
        "core.inexact_distance_ratio": result["inexact"] / answered,
        "search.settled_per_query": counters.get("search.settled", 0) / answered,
        "search.runs_per_query": counters.get("search.runs", 0) / answered,
        "search.relaxations_per_query": counters.get("search.relaxations", 0) / answered,
        "search.heap_pops_per_query": counters.get("search.heap_pops", 0) / answered,
        "search.np_rows": counters.get("csr.np_rows", 0),
        "index.customize_ms.p50": median(customize_ms) if customize_ms else 0.0,
        "index.customize_runs": counters.get("index.customize_runs", 0),
        "index.customize_triangles": counters.get("index.customize_triangles", 0),
        "index.order_builds": counters.get("index.order_builds", 0),
        "service.window_ms.p50": median(windows_ms) if windows_ms else 0.0,
        "service.window_ms.p99": percentile(windows_ms, 99) if windows_ms else 0.0,
        "service.degraded_windows": counters.get("service.degraded_windows", 0),
        "obs.tracing_overhead_pct": 100.0 * (_ratio(untraced["e2e"]["batch_qps"], result["e2e"]["batch_qps"]) - 1.0),
    })
    log = ["self seconds by span: " + " ".join(f"{k}={v:.3f}" for k, v in sorted(own.items()))]
    log.append(f"measured wall {total:.3f}s over {units} {'batches' if result['kind'] == 'batch' else 'windows'}; "
               f"unattributed {metrics['obs.unattributed_ratio']:.3f}")
    return metrics, log


# ----------------------------------------------------------------------
def _write_spans(workload, seed, trace):
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
    trace.tracer.write_jsonl(path)
    return path


def run_all(args) -> int:
    """Every workload in turn, each in its own process so that peak memory
    is its own; exits 1 if any workload saw a wrong answer."""
    worst = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        command = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(command, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(BENCHMARK["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    _load_program()
    runner = RUNNERS[args.workload]
    if args.trace:
        untraced = runner(args.workload, args.seed, args.seconds / 2)
        trace = Trace()
        result = runner(args.workload, args.seed, args.seconds / 2, trace)
        metrics, log = layer_metrics(args.workload, args.seed, result, untraced, trace)
        log.append(f"spans written to {_write_spans(args.workload, args.seed, trace)}")
        outcome = merge_outcomes([untraced["outcome"], result["outcome"]])
        inexact = untraced["inexact"] + result["inexact"]
        log = untraced["log"] + result["log"] + log
        units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    else:
        result = runner(args.workload, args.seed, args.seconds)
        metrics, outcome, log, inexact = result["e2e"], result["outcome"], result["log"], result["inexact"]
        units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for line in log:
        print(line)
    print(f"answers: attempted={outcome.attempted} failed={outcome.failed} wrong={outcome.wrong} "
          f"inexact_distances={inexact}")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    report = {
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(report))
    return 0 if outcome.wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
