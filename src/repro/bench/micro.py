"""Micro and smoke suites: fast, mostly-deterministic primitive metrics.

``microbench`` tracks per-operation costs of the core primitives (like
``benchmarks/test_microbench.py``), pairing each wall-time sample with
the deterministic work counter behind it (visited vertices, cluster
counts, cache hits) so a branch compare distinguishes "the machine was
busy" from "the algorithm does more work now".

``smoke`` is the CI-sized subset: seconds, not minutes, on the ``tiny``
network — the suite the advisory CI compare runs on every push.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple

from .registry import SuiteContext, SuiteRun, suite
from .schema import Metric

TIME_TOL = 40.0


#: Shortest loop one timing sample may cover.  A single call of a tiny
#: primitive (13-330 us on ``tiny``) sits below scheduler noise, so each
#: sample repeats the call until the loop lasts this long.
MIN_SAMPLE_SECONDS = 0.02

#: Iterations of :func:`speed_probe`, a fixed pure-Python loop.
PROBE_ITERATIONS = 20_000

#: Seconds one probe takes on the reference host (a 2-vCPU shared VM,
#: Python 3.11, in its fast state).  On a shared host a core switches
#: between a fast and an up to 2x slower state for seconds at a time, so
#: every sample is scaled by this over the probes run around it: per-call
#: times read as seconds at the reference speed.
REFERENCE_PROBE_SECONDS = 0.0025


def speed_probe() -> float:
    """Wall seconds of one fixed dictionary-update loop."""
    start = time.perf_counter()
    counts: Dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        key = i % 1000
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - start


def per_call(fn: Callable[[], object], rounds: int = 3) -> Tuple[float, object]:
    """(best seconds per call at the reference speed, last result).

    The loop length is autoranged once, in the manner of
    :meth:`timeit.Timer.autorange`: the call count doubles until one loop
    lasts at least :data:`MIN_SAMPLE_SECONDS`.  Each of ``rounds`` samples
    then times that loop between two :func:`speed_probe` runs.
    """
    result = None

    def loop(number: int) -> float:
        nonlocal result
        t0 = time.perf_counter()
        for _ in range(number):
            result = fn()
        return time.perf_counter() - t0

    number = 1
    while loop(number) < MIN_SAMPLE_SECONDS:
        number *= 2
    best = float("inf")
    for _ in range(rounds):
        before = speed_probe()
        elapsed = loop(number)
        speed = REFERENCE_PROBE_SECONDS / ((before + speed_probe()) / 2)
        best = min(best, elapsed / number * speed)
    return best, result


def _ms(seconds: float, tolerance_pct: float = TIME_TOL) -> Metric:
    return Metric(seconds * 1e3, unit="ms", kind="time",
                  tolerance_pct=tolerance_pct)


def _count(value: float, direction: str = "lower") -> Metric:
    return Metric(float(value), kind="count", direction=direction,
                  tolerance_pct=0.0)


def _collect(env, *, batch: int, rounds: int) -> Dict[str, Metric]:
    from ..core.cache import PathCache
    from ..core.coclustering import CoClusteringDecomposer
    from ..network.csr import freeze_network
    from ..network.grid import GridIndex
    from ..search.astar import a_star
    from ..search.bidirectional import bidirectional_dijkstra
    from ..search.dijkstra import dijkstra

    metrics: Dict[str, Metric] = {}
    graph = env.graph
    q = env.fresh_workload(801).batch(1, *env.r2r_band)[0]
    s, t = q.source, q.target

    seconds, result = per_call(lambda: dijkstra(graph, s, t), rounds)
    metrics["dijkstra.ms"] = _ms(seconds)
    metrics["dijkstra.visited"] = _count(result.visited)

    frozen = graph.copy()
    seconds, _ = per_call(lambda: freeze_network(frozen), rounds)
    metrics["freeze.ms"] = _ms(seconds)
    frozen.freeze()
    seconds, frozen_result = per_call(lambda: dijkstra(frozen, s, t), rounds)
    metrics["dijkstra_frozen.ms"] = _ms(seconds)
    metrics["dijkstra_frozen.visited"] = _count(frozen_result.visited)
    assert frozen_result.distance == result.distance

    seconds, result = per_call(lambda: a_star(graph, s, t), rounds)
    metrics["astar.ms"] = _ms(seconds)
    metrics["astar.visited"] = _count(result.visited)

    seconds, result = per_call(lambda: bidirectional_dijkstra(graph, s, t), rounds)
    metrics["bidirectional.ms"] = _ms(seconds)
    metrics["bidirectional.visited"] = _count(result.visited)

    queries = env.fresh_workload(804).batch(batch)
    decomposer = CoClusteringDecomposer(graph, eta=0.05)
    seconds, decomposition = per_call(lambda: decomposer.decompose(queries), rounds)
    metrics["cocluster.ms"] = _ms(seconds)
    metrics["cocluster.clusters"] = _count(len(decomposition))

    cache = PathCache(graph)
    cache_batch = env.fresh_workload(803).batch(60, *env.cache_band)
    for query in list(cache_batch)[:30]:
        r = a_star(graph, query.source, query.target)
        if r.found:
            cache.insert(r.path)
    probes = [(query.source, query.target) for query in cache_batch]

    def lookups() -> int:
        found = 0
        for a, b in probes:
            if cache.lookup(a, b) is not None:
                found += 1
        return found

    seconds, hits = per_call(lookups, rounds)
    metrics["cache.lookup_ms"] = _ms(seconds)
    metrics["cache.hits"] = _count(hits, direction="higher")

    seconds, index = per_call(lambda: GridIndex(graph, levels=5), rounds)
    metrics["grid.build_ms"] = _ms(seconds)
    metrics["grid.nonempty_cells"] = _count(index.nonempty_cells,
                                            direction="higher")
    return metrics


def _render(title: str, metrics: Dict[str, Metric]) -> str:
    from ..analysis.tables import render_table

    rows = [
        [key, f"{m.value:.6g}", m.unit or "-", m.kind]
        for key, m in sorted(metrics.items())
    ]
    return render_table(["metric", "value", "unit", "kind"], rows, title=title)


@suite("microbench", "per-primitive costs with their deterministic work counters",
       default_scale="small")
def microbench_suite(ctx: SuiteContext) -> SuiteRun:
    scale = ctx.scale_for(microbench_suite.__suite__)
    metrics = _collect(ctx.env(scale), batch=500, rounds=3)
    return SuiteRun(metrics=metrics,
                    rendered=_render(f"Microbench ({scale})", metrics))


@suite("smoke", "CI-sized primitive metrics on the tiny network",
       default_scale="tiny")
def smoke_suite(ctx: SuiteContext) -> SuiteRun:
    scale = ctx.scale_for(smoke_suite.__suite__)
    metrics = _collect(ctx.env(scale), batch=120, rounds=2)
    return SuiteRun(metrics=metrics,
                    rendered=_render(f"Smoke bench ({scale})", metrics))
