"""Admission tracing: request → rung → solve span chains, outcomes, and
solver-statistics harvesting into the metrics registry."""

from __future__ import annotations

import itertools

import pytest

from repro.model.stream import EctStream, Priorities, TctRequirement
from repro.model.units import milliseconds
from repro.obs import Tracer, children_of, summarize_spans
from repro.service import (
    RUNG_FASTPATH,
    RUNG_FULL,
    AdmissionService,
    AdmitEct,
    AdmitTct,
    RungConfig,
    ScheduleStore,
    ServiceConfig,
    StaleVersionError,
    empty_schedule,
)
from repro.service.admission import MAX_REBASE_ATTEMPTS, REASON_CAS_EXHAUSTED


def _tct(name, src="D1", dst="D3", period_ms=8, length=1500, share=False):
    return AdmitTct(TctRequirement(
        name=name, source=src, destination=dst,
        period_ns=milliseconds(period_ms), length_bytes=length,
        priority=Priorities.SH_PL if share else Priorities.NSH_PH,
        share=share,
    ))


def _ect(name, src="D2", dst="D3", period_ms=16, length=512):
    return AdmitEct(EctStream(
        name=name, source=src, destination=dst,
        min_interevent_ns=milliseconds(period_ms),
        length_bytes=length, possibilities=4,
    ))


@pytest.fixture
def tracer():
    ticks = itertools.count(0, 1_000_000)  # 1 ms per clock reading
    return Tracer(clock=lambda: next(ticks))


@pytest.fixture
def service(star_topology, tracer):
    # a solver-only ladder: these tests are about the rung -> solve
    # span chains of the re-solve rungs
    return AdmissionService(
        ScheduleStore(empty_schedule(star_topology)), tracer=tracer,
        config=ServiceConfig(rungs=(RungConfig(RUNG_FULL),)),
    )


def _by_name(spans):
    grouped = {}
    for span in spans:
        grouped.setdefault(span.name, []).append(span)
    return grouped


class TestRequestSpans:
    def test_accept_emits_request_rung_chain(self, service, tracer):
        assert service.submit(_tct("a")).accepted
        spans = _by_name(tracer.spans())
        (batch,) = spans["admission.batch"]
        (request,) = spans["admission.request"]
        assert request.parent_id == batch.span_id
        assert request.attributes["op"] == "admit-tct"
        assert request.attributes["stream"] == "a"
        assert request.attributes["accepted"] is True
        assert request.attributes["rung"] == "full"
        rungs = spans["admission.rung"]
        assert rungs[-1].attributes["outcome"] == "success"
        assert all(r.parent_id == batch.span_id for r in rungs)

    def test_solve_span_is_child_of_its_rung(self, service, tracer):
        service.submit(_tct("a"))
        spans = tracer.spans()
        rungs = [s for s in _by_name(spans)["admission.rung"]]
        solves = _by_name(spans).get("solve", [])
        assert solves
        rung_ids = {r.span_id for r in rungs}
        for solve in solves:
            assert solve.parent_id in rung_ids
        success = next(r for r in rungs
                       if r.attributes["outcome"] == "success")
        assert children_of(spans, success)

    def test_rejection_records_reason(self, service, tracer):
        # a stream too large for the 100 Mb/s star network
        hog = _tct("hog", period_ms=4, length=40 * 1500)
        decision = service.submit(hog)
        assert not decision.accepted
        (request,) = _by_name(tracer.spans())["admission.request"]
        assert request.attributes["accepted"] is False
        assert request.attributes["reason"]
        rungs = _by_name(tracer.spans())["admission.rung"]
        assert all(r.attributes["outcome"] in ("infeasible", "error")
                   for r in rungs)

    def test_every_request_in_a_batch_gets_a_span(self, service, tracer):
        decisions = service.submit_many([_tct("a"), _ect("b")])
        assert len(decisions) == 2
        requests = _by_name(tracer.spans())["admission.request"]
        assert sorted(r.attributes["stream"] for r in requests
                      if "accepted" in r.attributes) >= ["a", "b"]
        finished = [r for r in requests if r.end_ns is not None]
        assert len(finished) == len(requests)

    def test_request_ids_recorded(self, service, tracer):
        d1 = service.submit(_tct("a"))
        d2 = service.submit(_ect("b"))
        requests = _by_name(tracer.spans())["admission.request"]
        ids = {r.attributes.get("request_id") for r in requests}
        assert {d1.request_id, d2.request_id} <= ids

    def test_summary_reports_per_rung_latency(self, service, tracer):
        service.submit(_tct("a"))
        service.submit(_ect("b"))
        summary = summarize_spans(tracer.spans())
        assert "admission.request" in summary["spans"]
        assert summary["rungs"]
        for dist in summary["rungs"].values():
            assert dist["count"] >= 1
            assert dist["p50_ms"] <= dist["p99_ms"] <= dist["max_ms"]

    def test_untraced_service_behaves_identically(self, star_topology):
        traced = AdmissionService(
            ScheduleStore(empty_schedule(star_topology)), tracer=Tracer()
        )
        plain = AdmissionService(
            ScheduleStore(empty_schedule(star_topology))
        )
        for svc in (traced, plain):
            assert svc.submit(_tct("a")).accepted
            assert not svc.submit(_tct("a")).accepted  # duplicate name
        assert plain.tracer.spans() == []


class TestDropVisibility:
    def test_spans_dropped_gauge_tracks_ring_eviction(self, star_topology):
        """A traced batch that overflows the span ring must surface the
        loss through the tracer.spans_dropped gauge — silent truncation
        is the bug this gauge exists to catch."""
        tracer = Tracer(max_spans=2)
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology)), tracer=tracer
        )
        assert service.submit(_tct("a")).accepted
        assert tracer.dropped > 0
        gauge = service.metrics.gauge("tracer.spans_dropped")
        assert gauge.value == tracer.dropped

    def test_no_drop_gauge_without_a_tracer(self, star_topology):
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology))
        )
        assert service.submit(_tct("a")).accepted
        assert "tracer.spans_dropped" not in \
            service.metrics.to_dict()["gauges"]


class LosingStore(ScheduleStore):
    """The first ``losses`` publishes lose the CAS race; later ones go
    through."""

    def __init__(self, schedule, losses):
        super().__init__(schedule)
        self.losses = losses

    def publish(self, schedule, expected_version=None):
        if self.losses:
            self.losses -= 1
            raise StaleVersionError("synthetic contention")
        return super().publish(schedule, expected_version=expected_version)


class TestEventJournal:
    """The span trace is the one journal of admission decisions: every
    fact of a decision is an attribute of a span or a point event."""

    def test_decisions_are_journalled_with_trace_correlation(
        self, star_topology, tracer
    ):
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology)), tracer=tracer,
        )
        accepted = service.submit(_tct("a"))
        rejected = service.submit(_tct("hog", period_ms=4,
                                       length=40 * 1500))
        assert accepted.accepted and not rejected.accepted
        spans = _by_name(tracer.spans())
        batches = spans["admission.batch"]
        requests = spans["admission.request"]
        assert [r.attributes["stream"] for r in requests] == ["a", "hog"]
        for request, batch, decision in zip(
            requests, batches, (accepted, rejected)
        ):
            assert request.trace_id == batch.trace_id
            assert request.parent_id == batch.span_id
            attrs = request.attributes
            assert attrs["op"] == "admit-tct"
            assert attrs["request_id"] == decision.request_id
            assert attrs["accepted"] is decision.accepted
            assert attrs["rung"] == decision.rung
            assert attrs["reason"] == decision.reason
            assert attrs["store_version"] == decision.store_version
        assert requests[0].attributes["store_version"] == 1
        assert requests[1].attributes["reason"]

    def test_conclusive_reject_marks_the_fastpath_rung_span(
        self, star_topology, tracer
    ):
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology)), tracer=tracer,
        )
        decision = service.submit(_tct("hog", period_ms=4,
                                       length=40 * 1500))
        assert not decision.accepted
        (rung,) = _by_name(tracer.spans())["admission.rung"]
        assert rung.attributes["rung"] == RUNG_FASTPATH
        assert rung.attributes["outcome"] == "infeasible"
        assert rung.attributes["conclusive"] is True
        assert decision.reason == decision.attempts[RUNG_FASTPATH]

    def test_lost_cas_race_leaves_a_cas_retry_event(
        self, star_topology, tracer
    ):
        service = AdmissionService(
            LosingStore(empty_schedule(star_topology), losses=1),
            tracer=tracer,
        )
        decision = service.submit(_tct("a"))
        assert decision.accepted
        spans = _by_name(tracer.spans())
        (batch,) = spans["admission.batch"]
        (retry,) = spans["admission.cas_retry"]
        assert retry.parent_id == batch.span_id
        assert retry.duration_ns == 0
        assert retry.attributes == {
            "attempt": 1, "batch_id": decision.batch_id,
        }
        assert "admission.cas_exhausted" not in spans

    def test_exhausted_rebases_leave_a_cas_exhausted_event(
        self, star_topology, tracer
    ):
        service = AdmissionService(
            LosingStore(
                empty_schedule(star_topology), losses=MAX_REBASE_ATTEMPTS
            ),
            tracer=tracer,
        )
        decision = service.submit(_tct("a"))
        assert decision.reason == REASON_CAS_EXHAUSTED
        spans = _by_name(tracer.spans())
        (batch,) = spans["admission.batch"]
        retries = spans["admission.cas_retry"]
        assert [r.attributes["attempt"] for r in retries] == list(
            range(1, MAX_REBASE_ATTEMPTS + 1)
        )
        (exhausted,) = spans["admission.cas_exhausted"]
        assert exhausted.parent_id == batch.span_id
        assert exhausted.attributes["attempts"] == MAX_REBASE_ATTEMPTS


class TestSolverStatsHarvest:
    def test_smt_backend_folds_stats_into_metrics(self, star_topology):
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology)),
            config=ServiceConfig(backend="smt",
                                 rungs=(RungConfig(RUNG_FULL),)),
        )
        assert service.submit(_tct("base", share=True)).accepted
        assert service.submit(_ect("alarm")).accepted
        # the full rung is the SMT backend, whose SolverStats snapshot
        # must land in the solver.* counters
        decision = service.submit(_tct("late", src="D2", share=True))
        assert decision.accepted
        assert decision.rung == "full"
        counters = service.metrics.counters_with_prefix("solver")
        assert counters.get("theory_checks", 0) > 0
        assert "propagations" in counters
        assert "conflicts" in counters
