"""Per-query deadlines in the streaming service: storm, degrade, accounting."""

import math
import sys
import threading

import pytest

from repro.exceptions import ConfigurationError
from repro.network.generators import grid_city
from repro.queries.arrivals import PoissonArrivals, TimedQuery
from repro.queries.query import Query
from repro.queries.workload import WorkloadGenerator
from repro.resilience import DeadLetterRecord, REASON_DEADLINE_EXCEEDED, STAGE_DISPATCH
from repro.streaming import StreamingQueryService


@pytest.fixture(scope="module")
def graph():
    return grid_city(6, 6, seed=1)


@pytest.fixture(scope="module")
def stream(graph):
    workload = WorkloadGenerator(graph, seed=2)
    return PoissonArrivals(workload, rate=100.0, seed=3).duration(1.0)


def run_service(graph, arrivals, **kwargs):
    kwargs.setdefault("window_seconds", 0.25)
    kwargs.setdefault("max_batch", 32)
    kwargs.setdefault("workers", 0)
    kwargs.setdefault("clock", "simulated")
    with StreamingQueryService(graph, **kwargs) as service:
        return service.run(arrivals)


class TestDeadlineStorm:
    def test_backlog_expires_queries_deterministically(self, graph, stream):
        # Each query costs 0.1 simulated seconds to serve; the first window
        # alone blows every later arrival's 0.3 s budget before dispatch.
        report = run_service(
            graph,
            stream,
            query_deadline_seconds=0.3,
            service_seconds_per_query=0.1,
        )
        assert report.deadline_expired > 0
        assert report.unaccounted_queries == 0
        assert (
            report.answered_queries + len(report.dead_letters)
            == report.total_arrivals
        )
        for letter in report.dead_letters:
            assert letter.reason == REASON_DEADLINE_EXCEEDED

    def test_storm_is_reproducible(self, graph, stream):
        kwargs = dict(query_deadline_seconds=0.3, service_seconds_per_query=0.1)
        a = run_service(graph, stream, **kwargs)
        b = run_service(graph, stream, **kwargs)
        assert a.deadline_expired == b.deadline_expired
        assert a.answered_queries == b.answered_queries

    def test_storm_is_reproducible_under_host_load(self, graph, stream):
        # Under the simulated clock a deadline must expire on simulated
        # time only: a CPU-burner thread stealing the interpreter from the
        # searches must not change which queries expire.
        kwargs = dict(query_deadline_seconds=0.3, service_seconds_per_query=0.1)

        def outcome():
            report = run_service(graph, stream, **kwargs)
            letters = [(d.source, d.target, d.reason) for d in report.dead_letters]
            return report.deadline_expired, report.answered_queries, letters

        quiet = outcome()
        stop = threading.Event()

        def burn():
            x = 0
            while not stop.is_set():
                for i in range(10_000):
                    x ^= i * i

        # A long switch interval lets the burner hold the interpreter for
        # whole slices, so every search window stretches in real time.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(0.05)
        burner = threading.Thread(target=burn, daemon=True)
        burner.start()
        try:
            loaded = [outcome(), outcome()]
        finally:
            stop.set()
            burner.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not burner.is_alive()
        assert loaded == [quiet, quiet]

    def test_generous_deadline_answers_everything(self, graph, stream):
        report = run_service(graph, stream, query_deadline_seconds=3600.0)
        assert report.answered_queries == len(stream)
        assert report.deadline_expired == 0
        assert len(report.dead_letters) == 0

    def test_no_deadline_report_fields_stay_zero(self, graph, stream):
        report = run_service(graph, stream)
        assert report.deadline_expired == 0
        assert report.deadline_degraded == 0


class TestDegradeLadder:
    def test_deadline_letter_with_budget_left_is_recovered(self, graph):
        service = StreamingQueryService(
            graph,
            window_seconds=0.25,
            workers=0,
            clock="simulated",
            query_deadline_seconds=3600.0,
        )
        tq = TimedQuery(0.0, Query(0, 35))
        letter = DeadLetterRecord(
            source=0,
            target=35,
            reason=REASON_DEADLINE_EXCEEDED,
            stage=STAGE_DISPATCH,
            error="DeadlineExceededError",
        )
        report = service.run([])  # fresh report object shape
        kept, recovered = service._degrade_deadline_letters(
            [letter], [tq], report
        )
        assert kept == []
        assert len(recovered) == 1
        q, result = recovered[0]
        assert (q.source, q.target) == (0, 35)
        assert math.isfinite(result.distance)
        assert report.deadline_degraded == 1

    def test_deadline_letter_with_no_budget_stays_dead(self, graph):
        service = StreamingQueryService(
            graph,
            window_seconds=0.25,
            workers=0,
            clock="simulated",
            query_deadline_seconds=0.001,
        )
        report = service.run([])
        service.clock.sleep(10.0)
        tq = TimedQuery(0.0, Query(0, 35))
        letter = DeadLetterRecord(
            source=0,
            target=35,
            reason=REASON_DEADLINE_EXCEEDED,
            stage=STAGE_DISPATCH,
            error="DeadlineExceededError",
        )
        kept, recovered = service._degrade_deadline_letters(
            [letter], [tq], report
        )
        assert len(kept) == 1
        assert recovered == []

    def test_non_deadline_letters_pass_through_untouched(self, graph):
        service = StreamingQueryService(
            graph,
            window_seconds=0.25,
            workers=0,
            clock="simulated",
            query_deadline_seconds=3600.0,
        )
        report = service.run([])
        letter = DeadLetterRecord(
            source=1,
            target=2,
            reason="invalid-query",
            stage=STAGE_DISPATCH,
            error="ValueError",
        )
        kept, recovered = service._degrade_deadline_letters([letter], [], report)
        assert kept == [letter]
        assert recovered == []


class TestValidation:
    def test_zero_deadline_rejected(self, graph):
        with pytest.raises(ConfigurationError):
            StreamingQueryService(
                graph, workers=0, clock="simulated", query_deadline_seconds=0.0
            )

    def test_negative_deadline_rejected(self, graph):
        with pytest.raises(ConfigurationError):
            StreamingQueryService(
                graph, workers=0, clock="simulated", query_deadline_seconds=-1.0
            )
