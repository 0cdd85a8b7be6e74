"""Inputs of the four workloads, made from the seed through public APIs.

The program receives only what these functions return: query batches,
stamped arrival streams and a traffic timeline schedule.
"""

from __future__ import annotations

from repro import Hotspot, PoissonArrivals, WorkloadGenerator
from repro.network.timeline import congestion_snapshot, recovery_snapshot

#: The morning-peak commuter mix of ``examples/ride_hailing.py``: two CBD
#: hotspots (sigma 1 % of the span) and three residential belts (2 %),
#: as ``(x, y, sigma)`` shares of the network span plus a weight.
PEAK_HOTSPOTS = (
    (0.0, 0.0, 0.01, 3.0),
    (0.10, 0.05, 0.01, 2.0),
    (-0.3, -0.25, 0.02, 1.5),
    (0.28, -0.3, 0.02, 1.5),
    (-0.25, 0.3, 0.02, 1.5),
)


def query_generator(graph, mix: str, seed: int) -> WorkloadGenerator:
    """``peak``: the commuter mix at hotspot_fraction 0.95; ``scatter``:
    uniform endpoints (hotspot_fraction 0) with no distance band."""
    if mix == "scatter":
        return WorkloadGenerator(graph, hotspot_fraction=0.0, seed=seed)
    if mix != "peak":
        raise ValueError(f"unknown query mix {mix!r}")
    min_x, min_y, max_x, max_y = graph.extent()
    span = max(max_x - min_x, max_y - min_y)
    hotspots = [
        Hotspot(span * x, span * y, sigma=span * sigma, weight=weight)
        for x, y, sigma, weight in PEAK_HOTSPOTS
    ]
    return WorkloadGenerator(graph, hotspots=hotspots, hotspot_fraction=0.95, seed=seed)


def arrivals(graph, mix: str, seed: int, rate: float, seconds: float):
    """Open-loop Poisson arrivals at ``rate`` per second for ``seconds``."""
    return PoissonArrivals(query_generator(graph, mix, seed), rate, seed=seed + 1).duration(seconds)


def epoch_times(horizon: float, period: float):
    """Instants of the weight epochs: one every ``period`` up to ``horizon``,
    the first at half a period so that short streams see epochs too."""
    count = int(horizon / period) + 1
    return [period * (k + 0.5) for k in range(count)]


def schedule_epochs(timeline, horizon: float, period: float, fraction: float, offset: float = 0.0):
    """Alternate ``congestion_snapshot(fraction)`` and ``recovery_snapshot()``
    on ``timeline`` once per ``period``, starting with congestion; every
    instant is shifted by ``offset``."""
    for k, at in enumerate(epoch_times(horizon, period)):
        if k % 2 == 0:
            timeline.schedule(offset + at, congestion_snapshot(fraction), "congestion")
        else:
            timeline.schedule(offset + at, recovery_snapshot(), "recovery")
