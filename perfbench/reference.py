"""Correctness reference: the benchmark's own Dijkstra, independent of the
program's search kernels.

Every answered query is graded against the shortest distance at the weight
state it was answered in:

* its path must run from source to target over existing arcs, and the
  path's left-to-right weight sum must equal the reference distance
  exactly (``==``), so the program returned a true shortest path;
* its reported distance must equal the reference exactly (*exact*), or
  lie within the rounding error of a cached sub-path answer (*inexact*);
* anything else is *wrong*.

A cached sub-path answer reports ``prefix[t] - prefix[s]``, two left-fold
prefix sums of a longer cached path (``core/cache.py``).  Each of the
``h`` additions between ``s`` and ``t`` rounds by at most half an ULP of
the cached path's length ``L``, the subtraction and the reference's own
``h`` additions by at most half an ULP of the distance, so the two differ
by at most ``(h + 1) * ulp(L)``.  Every cached path is the answer to a
query graded in the same call, so ``L`` is at most the longest finite
reference distance of the rows computed; that bound is the tolerance.

SciPy's compiled Dijkstra computes the reference rows when it is
installed; otherwise a heap Dijkstra written here does.  Both take the
minimum over paths of the same left-to-right float sum.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

EXACT, INEXACT, WRONG = 0, 1, 2
_CHUNK = 128  # reference rows held at once (128 x |V| doubles)


@dataclass
class Answer:
    """One answered query, stored compactly until it is graded."""

    source: int
    target: int
    distance: float
    path: array = field(default_factory=lambda: array("i"))

    @classmethod
    def of(cls, query, result) -> "Answer":
        return cls(query.source, query.target, float(result.distance),
                   array("i", result.path or ()))


def weight_map(graph) -> Dict[Tuple[int, int], float]:
    """Current arc weights; parallel arcs keep their minimum."""
    weights: Dict[Tuple[int, int], float] = {}
    for u, v, w in graph.edges():
        key = (u, v)
        if key not in weights or w < weights[key]:
            weights[key] = w
    return weights


def _rows_scipy(n: int, weights, sources: Sequence[int]) -> Iterator[Tuple[int, Sequence[float], float]]:
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    keys = list(weights)
    rows = np.fromiter((u for u, _ in keys), dtype=np.int64, count=len(keys))
    cols = np.fromiter((v for _, v in keys), dtype=np.int64, count=len(keys))
    vals = np.fromiter((weights[k] for k in keys), dtype=np.float64, count=len(keys))
    matrix = csr_matrix((vals, (rows, cols)), shape=(n, n))
    for i in range(0, len(sources), _CHUNK):
        chunk = list(sources[i:i + _CHUNK])
        dist = dijkstra(matrix, directed=True, indices=chunk)
        longest = np.where(np.isinf(dist), 0.0, dist).max(axis=1)
        for j, s in enumerate(chunk):
            yield s, dist[j], float(longest[j])


def _rows_python(n: int, weights, sources: Sequence[int]) -> Iterator[Tuple[int, Sequence[float], float]]:
    adjacency: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
    for (u, v), w in weights.items():
        adjacency[u].append((v, w))
    for s in sources:
        dist = [math.inf] * n
        dist[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adjacency[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        yield s, dist, max(d for d in dist if d != math.inf)


def reference_rows(n: int, weights, sources: Sequence[int]):
    """``(source, distances, longest finite distance)`` per source."""
    try:
        import scipy.sparse.csgraph  # noqa: F401
    except ImportError:
        return _rows_python(n, weights, sources)
    return _rows_scipy(n, weights, sources)


def rounding_tolerance(answer: Answer, longest: float) -> float:
    """Largest rounding gap of a cached sub-path answer whose cached path
    is at most ``longest`` long (see the module docstring)."""
    return len(answer.path) * math.ulp(longest)


def grade(answer: Answer, reference: float, weights, longest: float) -> int:
    """EXACT, INEXACT or WRONG for one answer against its reference
    distance; ``longest`` bounds the length of any cached path."""
    if not math.isfinite(reference):
        return WRONG
    path = answer.path
    if answer.source != answer.target or len(path):
        if len(path) == 0 or path[0] != answer.source or path[-1] != answer.target:
            return WRONG
        total = 0.0
        for a, b in zip(path, path[1:]):
            w = weights.get((a, b))
            if w is None:
                return WRONG
            total += w
        if total != reference:
            return WRONG
    if answer.distance == reference:
        return EXACT
    if abs(answer.distance - reference) <= rounding_tolerance(answer, longest):
        return INEXACT
    return WRONG


def grade_all(n: int, weights, answers: Iterable[Answer]) -> List[int]:
    """Grades of ``answers`` (in order) at one weight state."""
    answers = list(answers)
    by_source: Dict[int, List[int]] = {}
    for i, a in enumerate(answers):
        by_source.setdefault(a.source, []).append(i)
    references = [math.inf] * len(answers)
    longest = 0.0
    for s, row, row_longest in reference_rows(n, weights, sorted(by_source)):
        longest = max(longest, row_longest)
        for i in by_source[s]:
            references[i] = float(row[answers[i].target])
    return [grade(a, r, weights, longest) for a, r in zip(answers, references)]
