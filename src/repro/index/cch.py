"""Customizable Contraction Hierarchies (CRP/CCH-style order/metric split).

The legacy :class:`~repro.index.ch.ContractionHierarchy` couples two very
different decisions: *which* vertex to contract next (a topology question)
and *what each shortcut weighs* (a metric question).  Every weight epoch
therefore forces a full rebuild — the paper's Figure 8 argument that
index-based methods cannot chase a dynamic network.

This module splits them, following Dibbelt/Strasser/Wagner's Customizable
Contraction Hierarchies and the CRP line of work:

* **Metric-independent order** (:meth:`CustomizableContractionHierarchy.
  _build_order`): a deterministic minimum-degree elimination over the
  undirected skeleton, inserting *all* fill-in edges (no witness searches
  — witnesses depend on the metric, which is exactly what we must not
  look at).  The result is a chordal supergraph whose edges are the
  superset of every shortcut any metric could need, plus the complete
  **lower-triangle list** enumerated once and sorted bottom-up.

* **Fast customization** (:meth:`CustomizableContractionHierarchy.
  customize`): given the current weights, a single pass over the
  precomputed triangles recomputes every shortcut weight in contraction
  order — two ``min`` updates per triangle, no graph search, no ordering
  work.  Re-customizing after a traffic epoch costs a fraction of a
  rebuild (the ``cch_customize`` benchmark enforces >= 5x at
  ``beijing_like("large")``).

Customized state is keyed to ``graph.version`` — the same epoch counter
that invalidates :class:`~repro.core.cache.VersionedPathCache` and frozen
CSR snapshots — so ``set_weight`` / ``scale_weights`` /
:class:`~repro.network.timeline.TrafficTimeline` advances mark the index
stale and :meth:`ensure_current` re-customizes instead of rebuilding.
``add_edge`` only forces an order rebuild when the new arc is not already
covered by a chordal super-edge.

Exactness: the customized upward/downward weights admit a shortest
up-down path for every vertex pair (the standard CCH theorem: the chordal
supergraph contains the full elimination-tree shortcut set, and the
bottom-up triangle pass computes each super-edge's exact restricted
distance).  Queries unpack shortcuts to original arcs and return the
path's own weight sum, so a finite answer is always a real path priced
exactly as Dijkstra would price it — the mutation-interleaving
differential suite in ``tests/correctness/test_differential.py`` pins
this across arbitrary mutation/query schedules.
"""

from __future__ import annotations

import math
import time
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Tuple

from ..exceptions import IndexConstructionError, StaleIndexError
from ..obs import record_customize
from ..search.common import PathResult


class CustomizableContractionHierarchy:
    """A CH whose hierarchy survives weight changes.

    Parameters
    ----------
    graph:
        The (mutable) road network.  Weight mutations leave the
        contraction order valid; :meth:`customize` re-prices the
        shortcuts.  ``add_edge`` beyond the chordal closure triggers a
        full order rebuild on the next customization.
    auto_customize:
        When ``True`` (default) a stale index re-customizes itself on
        the next :meth:`query`/:meth:`distance`; when ``False`` a stale
        query raises :class:`~repro.exceptions.StaleIndexError` instead
        (the legacy index's contract, for callers that must control
        exactly when customization cost is paid).

    Queries share per-index scratch arrays, so one index answers one
    query at a time (like the CSR kernels' per-snapshot scratch).
    """

    def __init__(self, graph, auto_customize: bool = True) -> None:
        if graph.num_vertices == 0:
            raise IndexConstructionError("cannot build a CCH over an empty graph")
        self.graph = graph
        self.auto_customize = auto_customize
        #: Monotonic counters — how often each phase has run on this index.
        self.customizations = 0
        self.order_builds = 0
        self.order_seconds = 0.0
        self.customize_seconds = 0.0
        #: ``graph.version`` the current shortcut weights were priced at.
        self.customized_version = -1
        self._build_order()
        self.customize()

    # ------------------------------------------------------------------
    # Phase 1: metric-independent contraction order (topology only)
    # ------------------------------------------------------------------
    def _build_order(self) -> None:
        """Minimum-degree elimination with full fill-in, plus triangles.

        Deterministic: ties break on vertex id, so the same topology
        always yields the same order, super-edge numbering and triangle
        list (the idempotence property suite relies on this).
        """
        start = time.perf_counter()
        graph = self.graph
        n = graph.num_vertices
        nbr: List[set] = [set() for _ in range(n)]
        for u, v, _w in graph.edges():
            nbr[u].add(v)
            nbr[v].add(u)
        contracted = [False] * n
        rank = [0] * n
        #: Chordal up-neighborhood: the still-uncontracted neighbors at
        #: the moment each vertex is eliminated (all higher-ranked).
        up_nbrs: List[List[int]] = [[] for _ in range(n)]
        heap: List[Tuple[int, int]] = [(len(nbr[v]), v) for v in range(n)]
        heapify(heap)
        order = 0
        while heap:
            deg, v = heappop(heap)
            if contracted[v]:
                continue
            if deg != len(nbr[v]):
                # Lazy key update: fill raised (or contraction lowered)
                # the degree since this entry was pushed.
                heappush(heap, (len(nbr[v]), v))
                continue
            neigh = sorted(nbr[v])
            up_nbrs[v] = neigh
            rank[v] = order
            order += 1
            contracted[v] = True
            for u in neigh:
                nbr[u].discard(v)
            for i, a in enumerate(neigh):
                na = nbr[a]
                for b in neigh[i + 1:]:
                    if b not in na:
                        na.add(b)
                        nbr[b].add(a)
        self.rank = rank

        # Super-edge numbering: edges of the chordal supergraph, id'd in
        # contraction order of their lower-ranked endpoint.  ``up[eid]``
        # prices the arc lo->hi, ``down[eid]`` the arc hi->lo;
        # ``tail[eid]``/``head[eid]`` name lo and hi.
        by_rank = sorted(range(n), key=rank.__getitem__)
        pair_eid: Dict[Tuple[int, int], int] = {}
        adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        tails: List[int] = []
        heads: List[int] = []
        for v in by_rank:
            for u in up_nbrs[v]:
                eid = len(tails)
                pair_eid[(v, u)] = eid
                adj[v].append((u, eid))
                tails.append(v)
                heads.append(u)
        self._pair_eid = pair_eid
        self._adj = adj
        self._tail = tails
        self._head = heads
        self.num_super_edges = len(tails)
        # Query scratch, index-addressed by vertex.  A search leaves every
        # distance back at +inf (reset through its touched lists); parent
        # edge ids are only read along the chain a search just wrote.
        self._dist_f: List[float] = [math.inf] * n
        self._dist_b: List[float] = [math.inf] * n
        self._par_f: List[int] = [-1] * n
        self._par_b: List[int] = [-1] * n

        # Lower triangles (v; a, b) with rank v < rank a < rank b, stored
        # as super-edge ids (ab, va, vb) and sorted by rank of v:
        # processing them in list order guarantees both lower legs (v,a)
        # and (v,b) are final when the triangle relaxes (a,b) — the
        # bottom-up customization invariant.
        triangles: List[Tuple[int, int, int]] = []
        for v in by_rank:
            neigh = sorted(up_nbrs[v], key=rank.__getitem__)
            for i, a in enumerate(neigh):
                va = pair_eid[(v, a)]
                for b in neigh[i + 1:]:
                    triangles.append((pair_eid[(a, b)], va, pair_eid[(v, b)]))
        self._triangles = triangles
        self.num_triangles = len(triangles)
        self.order_builds += 1
        self.order_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------
    # Phase 2: metric customization (weights only)
    # ------------------------------------------------------------------
    def customize(self) -> float:
        """Re-price every shortcut for the graph's *current* weights.

        Returns the seconds spent.  If the graph grew an arc outside the
        chordal closure (a topology change no customization can absorb),
        the order is rebuilt first — counted in ``order_builds`` and in
        the ``index.order_builds`` metric.
        """
        start = time.perf_counter()
        rebuilt = False
        if not self._load_metric():
            # Topology outgrew the chordal supergraph: rebuild the order
            # (the rare path — weight-only epochs never land here).
            self._build_order()
            rebuilt = True
            if not self._load_metric():  # pragma: no cover - invariant
                raise IndexConstructionError(
                    "CCH order rebuild failed to cover the graph's arcs"
                )
        up = self._up
        down = self._down
        up_first = self._up_first
        up_second = self._up_second
        down_first = self._down_first
        down_second = self._down_second
        for ab, va, vb in self._triangles:
            # a->b via v: down-arc a->v (leg va), then up-arc v->b (leg vb).
            c = down[va] + up[vb]
            if c < up[ab]:
                up[ab] = c
                up_first[ab] = va
                up_second[ab] = vb
            # b->a via v: down-arc b->v (leg vb), then up-arc v->a (leg va).
            c = down[vb] + up[va]
            if c < down[ab]:
                down[ab] = c
                down_first[ab] = vb
                down_second[ab] = va
        self.customized_version = self.graph.version
        self.customizations += 1
        self.customize_seconds = time.perf_counter() - start
        record_customize(
            edges=self.num_super_edges,
            triangles=self.num_triangles,
            seconds=self.customize_seconds,
            order_rebuilt=rebuilt,
        )
        return self.customize_seconds

    def _load_metric(self) -> bool:
        """Seed up/down arrays from the graph's arcs; False on a miss.

        A miss means some arc has no covering super-edge — the graph's
        topology changed in a way the recorded order cannot express.
        """
        m = self.num_super_edges
        inf = math.inf
        up = [inf] * m
        down = [inf] * m
        rank = self.rank
        pair_eid = self._pair_eid
        for u, v, w in self.graph.edges():
            if rank[u] < rank[v]:
                eid = pair_eid.get((u, v))
                if eid is None:
                    return False
                if w < up[eid]:
                    up[eid] = w
            else:
                eid = pair_eid.get((v, u))
                if eid is None:
                    return False
                if w < down[eid]:
                    down[eid] = w
        self._up = up
        self._down = down
        #: Leg super-edge ids per direction (-1 = the original arc
        #: survives), recorded on strict improvement for unpacking.  The
        #: first leg is a down-arc, the second an up-arc; see customize().
        self._up_first = [-1] * m
        self._up_second = [-1] * m
        self._down_first = [-1] * m
        self._down_second = [-1] * m
        return True

    # ------------------------------------------------------------------
    # Epoch keying
    # ------------------------------------------------------------------
    @property
    def stale(self) -> bool:
        """Whether the network mutated after the last customization."""
        return self.graph.version != self.customized_version

    def ensure_current(self) -> bool:
        """Re-customize iff the graph moved past ``customized_version``.

        Returns ``True`` when a customization ran — the streaming tier
        counts these to prove it never served a stale epoch.
        """
        if self.stale:
            self.customize()
            return True
        return False

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def _check_current(self) -> None:
        if not self.stale:
            return
        if self.auto_customize:
            self.customize()
        else:
            raise StaleIndexError(
                "CustomizableContractionHierarchy",
                self.customized_version,
                self.graph.version,
            )

    def distance(self, source: int, target: int) -> float:
        """Exact shortest distance (auto-customizes when stale).

        Folds the unpacked arcs' weights without building the path, so
        it returns exactly ``query(source, target).distance``.
        """
        self._check_current()
        meet, _ = self._search(source, target)
        if meet < 0:
            return math.inf
        return self._unpack(self._packed(source, target, meet), None)

    def query(self, source: int, target: int) -> PathResult:
        """Exact :class:`PathResult` with the unpacked original-arc path.

        The returned distance is the unpacked path's own left-to-right
        weight sum — the same accumulation Dijkstra performs along the
        tree branch — so answers match the oracle bit-for-bit whenever
        the shortest path is unique.
        """
        self._check_current()
        meet, visited = self._search(source, target)
        if meet < 0:
            return PathResult(source, target, math.inf, [], visited)
        path = [source]
        distance = self._unpack(self._packed(source, target, meet), path)
        return PathResult(source, target, distance, path, visited)

    def _search(self, source: int, target: int) -> Tuple[int, int]:
        """Bidirectional upward search over the customized supergraph.

        Returns ``(meet, visited)`` with ``meet = -1`` when no up-down
        path exists, and leaves the parent edge ids of both search trees
        in the scratch arrays for :meth:`_packed`.  Pushes happen only on
        strict improvement, so a heap entry whose key exceeds its
        vertex's distance is stale; a direction stops once its minimum
        exceeds the best meeting distance, and no relaxation beyond it
        is recorded (no such entry could settle or improve the answer).
        """
        inf = math.inf
        up = self._up
        down = self._down
        adj = self._adj
        dist_f = self._dist_f
        dist_b = self._dist_b
        par_f = self._par_f
        par_b = self._par_b
        dist_f[source] = 0.0
        dist_b[target] = 0.0
        touched_f = [source]
        touched_b = [target]
        heap_f: List[Tuple[float, int]] = [(0.0, source)]
        heap_b: List[Tuple[float, int]] = [(0.0, target)]
        best = inf
        meet = -1
        visited = 0
        try:
            while True:
                if heap_f and heap_f[0][0] > best:
                    heap_f = []
                if heap_b and heap_b[0][0] > best:
                    heap_b = []
                if heap_f and (not heap_b or heap_f[0][0] <= heap_b[0][0]):
                    d, u = heappop(heap_f)
                    if d > dist_f[u]:
                        continue
                    visited += 1
                    c = d + dist_b[u]
                    if c < best:
                        best = c
                        meet = u
                    for v, eid in adj[u]:
                        nd = d + up[eid]
                        if nd < dist_f[v] and nd <= best:
                            if dist_f[v] == inf:
                                touched_f.append(v)
                            dist_f[v] = nd
                            par_f[v] = eid
                            heappush(heap_f, (nd, v))
                elif heap_b:
                    d, u = heappop(heap_b)
                    if d > dist_b[u]:
                        continue
                    visited += 1
                    c = d + dist_f[u]
                    if c < best:
                        best = c
                        meet = u
                    for v, eid in adj[u]:
                        nd = d + down[eid]
                        if nd < dist_b[v] and nd <= best:
                            if dist_b[v] == inf:
                                touched_b.append(v)
                            dist_b[v] = nd
                            par_b[v] = eid
                            heappush(heap_b, (nd, v))
                else:
                    return meet, visited
        finally:
            for v in touched_f:
                dist_f[v] = inf
            for v in touched_b:
                dist_b[v] = inf

    def _packed(self, source: int, target: int, meet: int) -> List[int]:
        """Super-arcs of the last search's up-down path, source to target.

        An up-arc is its super-edge id ``eid``, a down-arc ``~eid``.
        """
        tail = self._tail
        par_f = self._par_f
        par_b = self._par_b
        packed: List[int] = []
        v = meet
        while v != source:
            eid = par_f[v]
            packed.append(eid)
            v = tail[eid]
        packed.reverse()
        v = meet
        while v != target:
            eid = par_b[v]
            packed.append(~eid)
            v = tail[eid]
        return packed

    def _unpack(self, packed: List[int], out: Optional[List[int]]) -> float:
        """Fold the original-arc weights of ``packed`` left to right.

        Each shortcut expands into its two recorded leg arcs until only
        original arcs (whose customized weight is the arc's own weight)
        remain, so the fold is exactly the weight sum Dijkstra and
        ``path_prefix_weights`` compute along the same path.  When
        ``out`` is a list, each arc's head vertex is appended to it.
        """
        up = self._up
        down = self._down
        up_first = self._up_first
        up_second = self._up_second
        down_first = self._down_first
        down_second = self._down_second
        head = self._head
        tail = self._tail
        total = 0.0
        stack = packed[::-1]
        while stack:
            arc = stack.pop()
            if arc >= 0:
                leg = up_first[arc]
                if leg < 0:
                    total += up[arc]
                    if out is not None:
                        out.append(head[arc])
                else:
                    stack.append(up_second[arc])
                    stack.append(~leg)
            else:
                eid = ~arc
                leg = down_first[eid]
                if leg < 0:
                    total += down[eid]
                    if out is not None:
                        out.append(tail[eid])
                else:
                    stack.append(down_second[eid])
                    stack.append(~leg)
        return total

    # ------------------------------------------------------------------
    def shortcut_weights(self) -> Tuple[List[float], List[float]]:
        """Copies of the customized (up, down) weight arrays.

        Exposed for the idempotence/path-independence property suite:
        identical metric => identical arrays, however it was reached.
        """
        return list(self._up), list(self._down)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CustomizableContractionHierarchy(|V|={self.graph.num_vertices}, "
            f"super_edges={self.num_super_edges}, "
            f"triangles={self.num_triangles}, "
            f"customizations={self.customizations}, stale={self.stale})"
        )
