"""Opt-in stress tests at larger scales.

Run with ``REPRO_STRESS=1 pytest tests/test_stress.py`` — skipped by
default so the regular suite stays fast.  These push batch sizes and
network scales closer to the paper's regime and re-verify the invariants
that matter most at scale.
"""

import math
import os

import pytest

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_STRESS") != "1",
    reason="set REPRO_STRESS=1 to run stress tests",
)


@pytest.fixture(scope="module")
def large_env():
    from repro.analysis.experiments import build_env

    return build_env("large", seed=7)


class TestStress:
    def test_large_batch_partitions(self, large_env):
        from repro.core import (
            CoClusteringDecomposer,
            SearchSpaceDecomposer,
            ZigzagDecomposer,
        )

        batch = large_env.workload.batch(5000)
        for decomposer in (
            ZigzagDecomposer(large_env.graph),
            SearchSpaceDecomposer(large_env.graph),
            CoClusteringDecomposer(large_env.graph, eta=0.05),
        ):
            d = decomposer.decompose(batch)
            assert d.num_queries == len(batch)

    def test_r2r_bound_at_scale(self, large_env):
        from repro.core import CoClusteringDecomposer, RegionToRegionAnswerer
        from repro.search.dijkstra import dijkstra

        batch = large_env.workload.batch(1000, *large_env.r2r_band)
        cc = CoClusteringDecomposer(large_env.graph, eta=0.05).decompose(batch)
        answer = RegionToRegionAnswerer(
            large_env.graph, eta=0.05, build_paths=False
        ).answer(cc)
        approx = [(q, r) for q, r in answer.answers if not r.exact]
        for q, r in approx[:200]:
            truth = dijkstra(large_env.graph, q.source, q.target).distance
            assert r.distance <= truth * 1.05 + 1e-9

    def test_cache_pipeline_exact_at_scale(self, large_env):
        from repro.core import LocalCacheAnswerer, SearchSpaceDecomposer
        from repro.search.dijkstra import dijkstra

        batch = large_env.workload.batch(2000, *large_env.cache_band)
        d = SearchSpaceDecomposer(large_env.graph).decompose(batch)
        answer = LocalCacheAnswerer(large_env.graph, 10**7).answer(d)
        assert answer.num_queries == len(batch)
        for q, r in answer.answers[::97]:
            truth = dijkstra(large_env.graph, q.source, q.target).distance
            assert math.isclose(r.distance, truth, rel_tol=1e-12)
