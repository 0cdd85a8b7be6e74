"""Host-speed sampling: scales measured compute times to a reference speed.

On a host whose cores are shared with other tenants, a core's speed
switches between a fast and a slow state, up to 2x apart, each lasting
from a fraction of a second to a minute.  A run's wall times then depend
on how much of the run fell in slow stretches, more than on the program.

:class:`SpeedSampler` separates the two.  While a measured region runs, a
``SIGALRM`` timer runs :func:`probe`, a fixed pure-Python loop that belongs
to the benchmark, every ``INTERVAL_S`` seconds; one more probe runs just
before the region and one just after.  :meth:`SpeedSampler.scaled` takes
the probes' own time out of an interval and scales the rest by
``REFERENCE_S`` over the probes' mean time around it.  A change to the
program does not touch the probe, so it moves a scaled time by the same
share as it moves the wall time.
"""

from __future__ import annotations

import signal
import time

#: Iterations of the probe loop, about 2 ms on the reference host.
PROBE_ITERATIONS = 15_000

#: Seconds one probe takes on the reference host (a 2-vCPU VM shared with
#: other tenants, Python 3.11) in its fast state.  Scaled times read as
#: seconds at that speed.
REFERENCE_S = 0.00175

#: Seconds between probes inside a measured region.
INTERVAL_S = 0.1


def probe() -> float:
    """Wall seconds of one fixed dictionary-update loop."""
    start = time.perf_counter()
    counts = {}
    for i in range(PROBE_ITERATIONS):
        key = i % 1000
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - start


class SpeedSampler:
    """Probes the host's speed around and during a measured region.

    ``clock`` stamps each probe; pass the clock the region's own times are
    read from.  A probe that interrupts the region is charged to it, and
    :meth:`scaled` takes it out again.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: ``(stamp, seconds, inside)`` per probe, ``inside`` when it
        #: interrupted the region.
        self.samples = []
        self._previous = None

    def _sample(self, inside: bool) -> None:
        stamp = self.clock()
        self.samples.append((stamp, probe(), inside))

    def _tick(self, signum, frame) -> None:
        self._sample(True)

    def __enter__(self) -> "SpeedSampler":
        self._sample(False)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(False)

    def scaled(self, start: float, end: float) -> float:
        """Seconds from clock time ``start`` to ``end``, less the probes
        run inside, at the reference speed.

        The speed is the mean probe time from one interval before ``start``
        to one after ``end``, or over every probe when none falls there.
        """
        charged = sum(s for at, s, inside in self.samples if inside and start <= at < end)
        near = [s for at, s, _ in self.samples if start - INTERVAL_S <= at <= end + INTERVAL_S]
        near = near or [s for _, s, _ in self.samples]
        return (end - start - charged) * REFERENCE_S * len(near) / sum(near)
