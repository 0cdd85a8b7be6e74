"""The CCH query path: oracle equality, scratch hygiene, pinned search space."""

import math
import random

import pytest

from repro.index.cch import CustomizableContractionHierarchy
from repro.network.generators import beijing_like
from repro.network.graph import RoadNetwork
from repro.search.dijkstra import dijkstra


def answers(index, pairs):
    return [
        (r.distance, r.path, r.visited)
        for r in (index.query(s, t) for s, t in pairs)
    ]


class TestOracleEquality:
    def test_query_and_distance_equal_dijkstra_across_an_epoch(self):
        graph = beijing_like("small")
        index = CustomizableContractionHierarchy(graph)
        n = graph.num_vertices
        rng = random.Random(41)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(200)]
        arcs = [(u, v) for u, v, _ in graph.edges()]
        for epoch in range(2):
            if epoch:
                graph.scale_weights(1.7, rng.sample(arcs, len(arcs) // 3))
            for s, t in pairs:
                want = dijkstra(graph, s, t).distance
                result = index.query(s, t)
                assert result.distance == want, (epoch, s, t)
                assert index.distance(s, t) == result.distance, (epoch, s, t)
                assert graph.path_prefix_weights(result.path)[-1] == want
        assert index.customizations == 2


class TestScratchHygiene:
    @pytest.fixture()
    def dag(self):
        """The tiny network with only its arcs u -> v for u < v kept."""
        g = beijing_like("tiny")
        return RoadNetwork(g.xs, g.ys, [(u, v, w) for u, v, w in g.edges() if u < v])

    def test_unreachable_then_reachable_match_a_fresh_index(self, dag):
        n = dag.num_vertices
        index = CustomizableContractionHierarchy(dag)
        miss = index.query(n // 2, n // 3)
        assert math.isinf(miss.distance) and miss.path == []
        assert miss.visited > 2  # both directions searched before failing
        assert math.isinf(index.distance(n // 2, n // 3))
        rng = random.Random(7)
        pairs = []
        while len(pairs) < 12:
            s, t = sorted(rng.sample(range(n), 2))
            if math.isfinite(dijkstra(dag, s, t).distance):
                pairs.append((s, t))
        for s, t in pairs:
            # Interleave failing searches so stale scratch would show.
            index.query(t, s)
            fresh = CustomizableContractionHierarchy(dag)
            assert answers(index, [(s, t)]) == answers(fresh, [(s, t)])
            assert index.distance(s, t) == dijkstra(dag, s, t).distance

    def test_order_rebuild_matches_a_fresh_index(self, dag):
        n = dag.num_vertices
        index = CustomizableContractionHierarchy(dag)
        rng = random.Random(9)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(30)]
        answers(index, pairs)
        dag.add_edge(n - 1, 0, 0.5)
        pairs += [(n - 1, t) for t in range(1, n, 17)]
        got = answers(index, pairs)
        assert index.order_builds == 2  # the arc left the chordal closure
        assert got == answers(CustomizableContractionHierarchy(dag), pairs)
        for (s, t), (distance, _, _) in zip(pairs, got):
            assert distance == dijkstra(dag, s, t).distance


class TestSearchSpace:
    # Settled-vertex counts of the bidirectional upward search at the
    # minimum-degree order, recorded from the dict/set search this array
    # search replaced: the settle order, and so ``visited``, is unchanged.
    PAIRS = [
        (3850, 1488), (5965, 4737), (2488, 1640), (5927, 3359), (6203, 5870),
        (6214, 2172), (4367, 2008), (5211, 6656), (6023, 4082), (2901, 3406),
        (4319, 5961), (5043, 1786), (2535, 4455), (5767, 2705), (4254, 611),
        (5991, 6343), (1690, 5646), (6165, 5961), (3838, 5808), (6811, 5345),
    ]
    VISITED = [
        144, 187, 42, 73, 186, 103, 136, 25, 182, 151,
        190, 149, 160, 168, 123, 198, 157, 202, 154, 59,
    ]

    def test_visited_pinned_at_large(self):
        index = CustomizableContractionHierarchy(beijing_like("large"))
        assert [index.query(s, t).visited for s, t in self.PAIRS] == self.VISITED
