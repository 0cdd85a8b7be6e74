"""Layer spans for the traced run, recorded from benchmark code.

:func:`layer_spans` wraps public entry points of each layer for the
duration of a ``with`` block and records one span per call in a
:class:`repro.obs.SpanTracer` the benchmark owns.  The program itself is
not edited; the untraced runs never enter this block.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager

from repro import (
    BatchQueryService,
    CustomizableContractionHierarchy,
    GlobalCacheAnswerer,
    LocalCacheAnswerer,
    SearchSpaceDecomposer,
)

#: (class, method, span name) — the layer boundaries the traced run times.
ENTRY_POINTS = (
    (GlobalCacheAnswerer, "build", "baselines.gc_sizing"),
    (SearchSpaceDecomposer, "decompose", "core.decompose"),
    (LocalCacheAnswerer, "answer", "core.answer"),
    (BatchQueryService, "process_window", "service.process_window"),
    (CustomizableContractionHierarchy, "ensure_current", "index.ensure_current"),
    (CustomizableContractionHierarchy, "query", "index.query"),
)


def _wrap(method, name: str, tracer):
    @functools.wraps(method)
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            result = method(*args, **kwargs)
            if isinstance(result, bool):
                span.set(result=result)
            return result

    return traced


@contextmanager
def layer_spans(tracer):
    """Record a span in ``tracer`` around every call to :data:`ENTRY_POINTS`."""
    originals = []
    try:
        for cls, attr, name in ENTRY_POINTS:
            method = cls.__dict__[attr]
            originals.append((cls, attr, method))
            setattr(cls, attr, _wrap(method, name, tracer))
        yield tracer
    finally:
        for cls, attr, method in reversed(originals):
            setattr(cls, attr, method)
