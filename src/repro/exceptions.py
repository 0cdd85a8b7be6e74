"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so that callers can catch
everything raised by this package with a single ``except`` clause while still
being able to discriminate the failure class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """Structural problem with a road network (bad vertex, bad edge...)."""


class NoPathError(GraphError):
    """Raised when no path exists between the requested endpoints."""

    def __init__(self, source: int, target: int) -> None:
        super().__init__(f"no path from vertex {source} to vertex {target}")
        self.source = source
        self.target = target

    def __reduce__(self):
        # Default exception pickling replays args=(message,), which does not
        # match this constructor; a NoPathError raised inside a worker
        # process must survive the trip back through the result pipe.
        return (NoPathError, (self.source, self.target))


class QueryError(ReproError):
    """Malformed query or query set."""


class DecompositionError(ReproError):
    """A decomposition produced an invalid result (not a partition...)."""


class CacheError(ReproError):
    """Cache structure misuse (e.g. retrieving a path after a miss)."""


class IndexConstructionError(ReproError):
    """An auxiliary index (CH, PLL, landmarks) could not be built."""


class StaleIndexError(ReproError):
    """An index was queried after the underlying network mutated.

    Snapshot indexes (:class:`~repro.index.ch.ContractionHierarchy`)
    price their structure at build time; serving a query after ``graph.version``
    moved on would silently return pre-mutation distances.  They raise
    this instead — call ``rebuild()``, or use the customizable index
    (:class:`~repro.index.cch.CustomizableContractionHierarchy`), which
    re-customizes in place.
    """

    def __init__(self, index: str, built_version: int, current_version: int) -> None:
        super().__init__(
            f"{index} was built at graph version {built_version} but the "
            f"network is now at version {current_version}; rebuild() it or "
            f"use CustomizableContractionHierarchy, which re-customizes "
            f"instead of rebuilding"
        )
        self.index = index
        self.built_version = built_version
        self.current_version = current_version

    def __reduce__(self):
        # Like NoPathError: must survive the worker result pipe.
        return (
            StaleIndexError,
            (self.index, self.built_version, self.current_version),
        )


class ConfigurationError(ReproError):
    """Invalid parameter combination passed to a public API."""


class ObservabilityError(ReproError):
    """Metrics registry misuse (bucket mismatch, negative duration...)."""


class WorkerError(ReproError):
    """A worker process failed while answering a work unit."""


class UnitTimeoutError(WorkerError):
    """A work unit exceeded its per-attempt deadline (``unit_timeout``)."""

    def __init__(self, unit: int, attempt: int, timeout_seconds: float) -> None:
        super().__init__(
            f"unit {unit} attempt {attempt} exceeded its "
            f"{timeout_seconds:g}s deadline"
        )
        self.unit = unit
        self.attempt = attempt
        self.timeout_seconds = timeout_seconds

    def __reduce__(self):
        return (UnitTimeoutError, (self.unit, self.attempt, self.timeout_seconds))


class DeadlineExceededError(ReproError):
    """A search or work unit ran past its cooperative deadline.

    Raised from the pop-count deadline checks inside the search kernels
    (and from the engine/service when a budget is already spent before
    dispatch), so an expired query is cut off mid-search instead of
    burning the rest of its window.
    """

    def __init__(self, where: str = "search", overrun_seconds: float = 0.0) -> None:
        detail = f" ({overrun_seconds:.3f}s over)" if overrun_seconds > 0 else ""
        super().__init__(f"deadline exceeded in {where}{detail}")
        self.where = where
        self.overrun_seconds = overrun_seconds

    def __reduce__(self):
        # Like NoPathError: must survive the worker result pipe.
        return (DeadlineExceededError, (self.where, self.overrun_seconds))


class QuarantinedUnitError(ReproError):
    """A work unit exhausted its retry budget and was quarantined."""

    def __init__(self, unit: int, attempts: int, cause: str = "") -> None:
        detail = f" ({cause})" if cause else ""
        super().__init__(
            f"unit {unit} quarantined after {attempts} failed attempts{detail}"
        )
        self.unit = unit
        self.attempts = attempts
        self.cause = cause

    def __reduce__(self):
        return (QuarantinedUnitError, (self.unit, self.attempts, self.cause))


class FaultInjectionError(WorkerError):
    """A deliberate failure raised by the fault-injection harness.

    Never raised in production runs: it only appears when a
    :class:`repro.resilience.FaultPlan` is active, so tests can tell an
    injected fault from an organic bug.
    """
