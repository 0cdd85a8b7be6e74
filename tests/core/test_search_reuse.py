"""The serial local-cache pipelines search each query at most once.

``BatchProcessor`` sizes the local caches with a Global Cache built on the
batch's first 20 % and hands the answers of those sizing searches to the
local-cache answerer, and it keeps one SSE grid per ``graph.version``.
These tests pin that the reuse changes nothing but the search count: every
answer and every cache figure equals a reference assembled from the public
classes, which searches every miss afresh.
"""

import pytest

import repro.core.batch_runner as batch_runner
from repro.baselines.global_cache import GlobalCacheAnswerer, split_log_and_stream
from repro.core.batch_runner import BatchProcessor
from repro.core.local_cache import LocalCacheAnswerer
from repro.core.results import ComputedPaths
from repro.core.search_space import SearchSpaceDecomposer
from repro.core.zigzag import ZigzagDecomposer
from repro.network.generators import beijing_like
from repro.obs import MetricsRegistry, use_registry
from repro.queries.query import QuerySet
from repro.queries.workload import WorkloadGenerator

PIPELINES = {
    "zlc": (ZigzagDecomposer, "longest"),
    "slc-s": (SearchSpaceDecomposer, "longest"),
    "slc-r": (SearchSpaceDecomposer, "random"),
}
SEED = 4


@pytest.fixture(scope="module")
def small():
    graph = beijing_like("small", seed=2)
    graph.freeze()
    return graph


@pytest.fixture(scope="module")
def batch(small):
    """300 queries whose first 60 repeat, so the sizing log holds duplicates."""
    queries = list(WorkloadGenerator(small, seed=17).batch(240))
    return QuerySet(queries[:60] + queries)


def reference(graph, batch, method):
    """The pipeline rebuilt from public classes, with no search reuse."""
    decomposer_cls, order = PIPELINES[method]
    log, _ = split_log_and_stream(batch, 0.2)
    gc = GlobalCacheAnswerer(graph)
    gc.build(log)
    answerer = LocalCacheAnswerer(
        graph, cache_bytes=max(gc.cache_bytes, 1), order=order, seed=SEED
    )
    return answerer.answer(decomposer_cls(graph, delta=30.0).decompose(batch), method=method)


def fingerprint(answer):
    return (
        [(q, r.distance, r.path, r.visited, r.exact) for q, r in answer.answers],
        answer.cache_hits,
        answer.cache_misses,
        answer.cache_bytes,
        answer.num_clusters,
        answer.visited,
    )


def searches(fn):
    registry = MetricsRegistry()
    with use_registry(registry):
        result = fn()
    return result, registry.snapshot().counters.get("search.runs", 0)


class TestBitIdenticalToReference:
    @pytest.mark.parametrize("method", sorted(PIPELINES))
    def test_process_equals_reference(self, small, batch, method):
        answer = BatchProcessor(small, seed=SEED).process(batch, method)
        assert fingerprint(answer) == fingerprint(reference(small, batch, method))


class TestSearchCount:
    @pytest.mark.parametrize("method", sorted(PIPELINES))
    def test_at_most_one_search_per_query(self, small, batch, method):
        assert len(batch.deduplicated()) < len(batch)
        _, runs = searches(lambda: BatchProcessor(small, seed=SEED).process(batch, method))
        _, reference_runs = searches(lambda: reference(small, batch, method))
        assert runs <= len(batch)
        assert runs < reference_runs


class TestStaleResultsIgnored:
    def test_version_bump_between_sizing_and_answering(self, small, batch, monkeypatch):
        graph = small.copy()
        graph.freeze()
        u, v, w = next(iter(graph.edges()))
        build = GlobalCacheAnswerer.build

        def build_then_mutate(self, log):
            cache = build(self, log)
            # Same weight: every answer stays the same, only the version moves.
            self.graph.set_weight(u, v, w)
            return cache

        expected = reference(small, batch, "slc-s")
        _, sizing_runs = searches(
            lambda: GlobalCacheAnswerer(small).build(split_log_and_stream(batch, 0.2)[0])
        )
        monkeypatch.setattr(GlobalCacheAnswerer, "build", build_then_mutate)
        answer, runs = searches(lambda: BatchProcessor(graph, seed=SEED).process(batch, "slc-s"))
        assert fingerprint(answer) == fingerprint(expected)
        assert runs == sizing_runs + answer.cache_misses

    def test_take_checks_version_and_pops(self, small):
        computed = ComputedPaths(small.version)
        computed.results[(1, 2)] = "answer"
        assert computed.take(small, 1, 3) is None
        assert computed.take(small, 1, 2) == "answer"
        assert computed.take(small, 1, 2) is None
        computed.results[(1, 2)] = "answer"
        computed.version -= 1
        assert computed.take(small, 1, 2) is None


class TestGridPerVersion:
    @pytest.fixture
    def built(self, monkeypatch):
        grids = []
        real = batch_runner.GridIndex

        def counting(*args, **kwargs):
            grids.append(real(*args, **kwargs))
            return grids[-1]

        monkeypatch.setattr(batch_runner, "GridIndex", counting)
        return grids

    def test_one_grid_per_version(self, small, batch, built, monkeypatch):
        graph = small.copy()
        processor = BatchProcessor(graph)
        assert built == []  # built on first use, not at construction
        processor.process(batch, "slc-s")
        processor.process(batch, "slc-s")
        processor.process(batch, "zlc")
        assert len(built) == 1

        seen = []
        answer = LocalCacheAnswerer.answer

        def capture(self, decomposition, *args, **kwargs):
            seen.append(decomposition)
            return answer(self, decomposition, *args, **kwargs)

        monkeypatch.setattr(LocalCacheAnswerer, "answer", capture)
        # Congest one half of the map: cell direction summaries change.
        half = graph.num_vertices // 2
        graph.scale_weights(4.0, [(a, b) for a, b, _ in graph.edges() if a < half])
        processor.process(batch, "slc-s")
        assert len(built) == 2
        fresh = SearchSpaceDecomposer(graph, delta=processor.delta).decompose(batch)
        assert seen[-1].clusters == fresh.clusters

        graph.set_weight(*next(iter(graph.edges())))
        processor.process(batch, "slc-r")
        assert len(built) == 3
