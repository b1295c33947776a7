"""AdmissionService: ladder climbing, batching, work budgets, and the
500-request storm acceptance criterion."""

import copy
import random

import pytest

from repro.core import schedule_etsn
from repro.core.schedule import InfeasibleError, validate
from repro.experiments import testbed_workload as make_testbed_workload
from repro.service import admission as admission_module
from repro.model.stream import EctStream, Priorities, TctRequirement
from repro.model.units import milliseconds
from repro.service import (
    RUNG_FASTPATH,
    RUNG_FULL,
    RUNG_HEURISTIC,
    RUNG_INCREMENTAL,
    AdmissionService,
    AdmitEct,
    AdmitTct,
    Remove,
    RungConfig,
    ScheduleStore,
    ServiceConfig,
    empty_schedule,
)
from tests.conftest import MTU_WIRE_NS


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
def service(star_topology):
    return AdmissionService(ScheduleStore(empty_schedule(star_topology)))


class TestLadder:
    def test_plain_tct_decided_by_fastpath(self, service):
        decision = service.submit(_tct("a"))
        assert decision.accepted
        assert decision.rung == RUNG_FASTPATH
        assert decision.store_version == 1
        validate(service.store.schedule)

    def test_plain_tct_lands_on_incremental_rung(self, star_topology):
        """The deprecated alias bench/ still configures: a ladder of
        ``RUNG_INCREMENTAL`` alone is the constructive rung alone."""
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology)),
            config=ServiceConfig(rungs=(RungConfig(RUNG_INCREMENTAL),)),
        )
        decision = service.submit(_tct("a"))
        assert decision.accepted
        assert decision.rung == RUNG_FASTPATH
        validate(service.store.schedule)

    @pytest.mark.parametrize("route", ["submit", "batch", "prepare",
                                       "certify"])
    def test_sharing_tct_beside_ect_is_placed_constructively(
        self, star_topology, route
    ):
        """Every way into the ladder places a sharing TCT around live
        ECT without a re-solve, and without moving a granted slot."""
        config = (ServiceConfig(backend="smt", certify=True)
                  if route == "certify" else ServiceConfig())
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology)), config=config)
        assert service.submit(_tct("base", share=True)).accepted
        assert service.submit(_ect("alarm")).accepted
        before = service.store.schedule
        late = _tct("late-share", src="D2", share=True)
        if route == "prepare":
            # a fresh service over a store seeded with the snapshot:
            # solved without publishing to the live store
            service = AdmissionService(ScheduleStore(before), config=config)
            decision = service.submit(late)
            assert decision.accepted
            rung, after = decision.rung, service.store.schedule
        else:
            batch = [late, _tct("mate")] if route == "batch" else [late]
            decisions = service.submit_many(batch)
            assert all(d.accepted for d in decisions)
            rung, after = decisions[0].rung, service.store.schedule
        assert rung == RUNG_FASTPATH
        validate(after)
        assert all(after.slots[key] == slots
                   for key, slots in before.slots.items())
        assert service.metrics.counter("rungs.full.attempts").value == 0

    def test_overload_is_structured_rejection(self, service):
        period = 6 * MTU_WIRE_NS
        for i in range(5):
            assert service.submit(AdmitTct(TctRequirement(
                name=f"s{i}", source="D1" if i % 2 else "D2",
                destination="D3", period_ns=period, length_bytes=1500,
                priority=Priorities.NSH_PL,
            ))).accepted
        before = service.store.snapshot()
        decision = service.submit(AdmitTct(TctRequirement(
            name="overload", source="D2", destination="D3",
            period_ns=period, length_bytes=1500,
            priority=Priorities.NSH_PL,
        )))
        assert not decision.accepted
        assert decision.rung is None
        assert "all ladder rungs failed" in decision.reason
        # every rung that ran reported a reason; the heuristic rung
        # would replay the heuristic backend's full rung, so it did not
        assert set(decision.attempts) == {RUNG_FASTPATH, RUNG_FULL}
        # rejected admission did not publish anything
        assert service.store.snapshot() is before
        validate(service.store.schedule)

    def test_heuristic_rung_catches_full_failure(
        self, star_topology, monkeypatch
    ):
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology)),
            config=ServiceConfig(backend="smt", rungs=(
                RungConfig(RUNG_FULL), RungConfig(RUNG_HEURISTIC),
            )),
        )
        monkeypatch.setattr(
            admission_module, "schedule_etsn",
            lambda *a, **k: (_ for _ in ()).throw(InfeasibleError("stub")),
        )
        decision = service.submit(_tct("a"))
        assert decision.accepted
        assert decision.rung == RUNG_HEURISTIC
        assert decision.attempts[RUNG_FULL] == "stub"

    def test_conclusive_reject_reason_is_the_witness(self, service):
        decision = service.submit(AdmitTct(TctRequirement(
            name="tight", source="D1", destination="D3",
            period_ns=milliseconds(8), e2e_ns=1_000, length_bytes=1500,
            priority=Priorities.NSH_PH,
        )))
        assert not decision.accepted
        assert decision.reason.startswith("e2e-floor: ")
        # nothing climbed: the witness is the one attempt
        assert decision.attempts == {RUNG_FASTPATH: decision.reason}


class TestScreening:
    def test_duplicate_name_rejected_without_solving(self, service):
        service.submit(_tct("a"))
        attempts_before = service.metrics.counter(
            f"rungs.{RUNG_FASTPATH}.attempts").value
        decision = service.submit(_tct("a"))
        assert not decision.accepted
        assert "already in use" in decision.reason
        assert service.metrics.counter(
            f"rungs.{RUNG_FASTPATH}.attempts").value == attempts_before

    def test_ect_under_a_taken_possibility_name_leaves_the_store_alone(
        self, service
    ):
        """ECT ``e1`` is scheduled as ``e1#ps1..``; beside a TCT of that
        name the request once climbed the whole ladder, was rejected —
        and left the possibility's slots in the *published* snapshot."""
        assert service.submit(_tct("e1#ps1", src="D2")).accepted
        published = service.store.snapshot()
        before = copy.deepcopy(published.schedule)
        decision = service.submit(_ect("e1"))
        assert not decision.accepted
        assert decision.reason == "stream name 'e1#ps1' already in use"
        assert decision.attempts == {}
        assert service.store.snapshot() is published
        after = service.store.schedule
        assert list(after.slots.items()) == list(before.slots.items())
        assert after.streams == before.streams
        assert after.ect_streams == before.ect_streams == []
        validate(after)

    def test_possibility_names_are_claimed_within_a_batch(self, service):
        ect_first = service.submit_many([_ect("e1"), _tct("e1#ps2")])
        assert [d.accepted for d in ect_first] == [True, False]
        assert "'e1#ps2' already in use" in ect_first[1].reason
        tct_first = service.submit_many([_tct("e2#ps1"), _ect("e2")])
        assert [d.accepted for d in tct_first] == [True, False]
        assert "'e2#ps1' already in use" in tct_first[1].reason
        validate(service.store.schedule)

    def test_unroutable_request_rejected(self, service):
        decision = service.submit(_tct("ghost-route", src="D1", dst="nowhere"))
        assert not decision.accepted
        assert "unroutable" in decision.reason

    def test_remove_unknown_rejected(self, service):
        decision = service.submit(Remove("ghost"))
        assert not decision.accepted
        assert "no stream named" in decision.reason

    def test_remove_ect_retires_possibilities(self, service):
        service.submit(_tct("base", share=True))
        service.submit(_ect("alarm"))
        decision = service.submit(Remove("alarm"))
        assert decision.accepted
        assert not service.store.schedule.ect_streams
        assert not service.store.schedule.probabilistic_streams()


class TestBatching:
    def test_compatible_requests_share_one_batch(self, service):
        decisions = service.submit_many(
            [_tct("a"), _tct("b", src="D2"), _tct("c")]
        )
        assert all(d.accepted for d in decisions)
        assert len({d.batch_id for d in decisions}) == 1
        assert {d.batch_size for d in decisions} == {3}
        # one publish for the whole batch
        assert service.store.version == 1
        assert service.metrics.counter("batches.total").value == 1

    def test_name_clash_splits_batches(self, service):
        decisions = service.submit_many([_tct("a"), Remove("a")])
        assert decisions[0].accepted
        assert decisions[1].accepted  # the remove sees the admit's result
        assert decisions[0].batch_id != decisions[1].batch_id

    def test_max_batch_respected(self, star_topology):
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology)),
            config=ServiceConfig(max_batch=2),
        )
        decisions = service.submit_many(
            [_tct(f"s{i}", period_ms=32) for i in range(5)]
        )
        assert all(d.accepted for d in decisions)
        assert len({d.batch_id for d in decisions}) == 3

    def test_infeasible_member_does_not_sink_batch(self, service):
        period = 6 * MTU_WIRE_NS
        hog = AdmitTct(TctRequirement(
            name="hog", source="D1", destination="D3",
            period_ns=period, length_bytes=12 * 1500,
            priority=Priorities.NSH_PL,
        ))
        decisions = service.submit_many([_tct("ok1"), hog, _tct("ok2", src="D2")])
        verdicts = {d.stream: d.accepted for d in decisions}
        assert verdicts == {"ok1": True, "hog": False, "ok2": True}
        assert service.metrics.counter("batches.splintered").value == 1
        validate(service.store.schedule)


class TestBudgetsAndErrors:
    def test_exhausted_budget_climbs_ladder(self, monkeypatch):
        # one admit onto the Fig. 10 testbed: the SMT re-solve of the
        # whole network needs conflicts, and the budget allows none
        monkeypatch.setattr(admission_module, "_SMT_MAX_CONFLICTS", 0)
        workload = make_testbed_workload(0.25, 6)
        base = schedule_etsn(workload.topology, workload.tct_streams,
                             workload.ect_streams)
        config = ServiceConfig(backend="smt", rungs=(
            RungConfig(RUNG_FULL), RungConfig(RUNG_HEURISTIC),
        ))
        service = AdmissionService(ScheduleStore(base), config=config)
        decision = service.submit(_tct("a", src="D1", dst="D4"))
        assert decision.accepted
        assert decision.rung == RUNG_HEURISTIC
        assert decision.attempts[RUNG_FULL].endswith(
            "the budget of 0 conflicts ran out"
        )
        assert service.metrics.counter(
            f"rungs.{RUNG_FULL}.failures").value == 1

    def test_backend_error_is_recorded_climb_goes_on(
        self, star_topology, monkeypatch
    ):
        config = ServiceConfig(backend="smt", rungs=(
            RungConfig(RUNG_FULL),
            RungConfig(RUNG_HEURISTIC),
        ))
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology)), config=config)
        calls = []
        real = service._resolve

        def broken_full(batch, rung_name):
            calls.append(rung_name)
            if rung_name == RUNG_FULL:
                raise RuntimeError("backend hiccup")
            return real(batch, rung_name)

        monkeypatch.setattr(service, "_resolve", broken_full)
        decision = service.submit(_tct("a"))
        assert decision.accepted
        assert decision.rung == RUNG_HEURISTIC
        assert decision.attempts[RUNG_FULL] == "RuntimeError: backend hiccup"
        assert calls == [RUNG_FULL, RUNG_HEURISTIC]  # one attempt per rung
        counters = service.metrics.to_dict()["counters"]
        assert counters[f"rungs.{RUNG_FULL}.errors"] == 1
        assert counters[f"rungs.{RUNG_FULL}.attempts"] == 1


class TestDeploymentEmission:
    def test_deployment_per_accepted_batch(self, star_topology):
        deployments = []
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology)),
            config=ServiceConfig(emit_deployments=True),
            on_deploy=deployments.append,
        )
        service.submit_many([_tct("a"), _tct("b", src="D2")])
        service.submit(_tct("dup"))
        service.submit(_tct("dup"))  # rejected: no deployment
        assert len(deployments) == 2
        assert service.metrics.counter("deployments.emitted").value == 2
        latest = service.last_deployment
        assert latest is deployments[-1]
        # the emitted deployment covers the published schedule
        assert {t.stream for t in latest.talkers} == {"a", "b", "dup"}
        assert latest.to_config_dict()["ports"]

    def test_removing_last_stream_skips_emission(self, star_topology):
        deployments = []
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology)),
            config=ServiceConfig(emit_deployments=True),
            on_deploy=deployments.append,
        )
        service.submit(_tct("solo"))
        decision = service.submit(Remove("solo"))
        assert decision.accepted
        # an empty schedule has no GCL to push: one deployment, one skip
        assert len(deployments) == 1
        assert (
            service.metrics.counter("deployments.skipped_empty").value == 1
        )


class TestStorm:
    """The acceptance criterion: a 500-request random admit/remove storm."""

    def test_500_request_storm(self, star_topology):
        rng = random.Random(42)
        # a service tuned for quick decisions: a lean restart budget
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology)),
            config=ServiceConfig(heuristic_min_restarts=8),
        )
        devices = ("D1", "D2", "D3")
        live = set()
        n_requests = 500
        decisions = []
        for i in range(n_requests):
            roll = rng.random()
            # keep the live population bounded so the storm churns
            # instead of only growing
            remove_p = 0.55 if len(live) >= 25 else 0.25
            if roll < remove_p and live:
                request = Remove(rng.choice(sorted(live)))
            elif roll < remove_p + 0.06:
                # deliberately hit ghosts / duplicates sometimes
                request = Remove(f"ghost{i % 7}")
            elif roll < remove_p + 0.12:
                src, dst = rng.sample(devices, 2)
                request = AdmitEct(EctStream(
                    name=f"e{i}", source=src, destination=dst,
                    min_interevent_ns=milliseconds(rng.choice((16, 32))),
                    length_bytes=rng.choice((256, 512)), possibilities=2,
                ))
            else:
                src, dst = rng.sample(devices, 2)
                request = AdmitTct(TctRequirement(
                    name=f"t{i}", source=src, destination=dst,
                    period_ns=milliseconds(rng.choice((8, 16, 32))),
                    length_bytes=rng.choice((400, 800, 1500)),
                    priority=Priorities.NSH_PH,
                ))

            decision = service.submit(request)
            decisions.append(decision)
            if decision.accepted:
                if request.op == "remove":
                    live.discard(request.stream_name)
                else:
                    live.add(request.stream_name)

        # every request got a structured decision; nothing crashed
        assert len(decisions) == n_requests
        assert all(d.accepted or d.reason for d in decisions)

        # the final snapshot passes the independent Eq. 1-7 validator
        final = service.store.schedule
        validate(final)
        names = {s.name for s in final.streams if s.parent is None}
        names.update(e.name for e in final.ect_streams)
        assert names == live

        # per-rung decision counts sum to the request total
        by_rung = service.metrics.counters_with_prefix("decisions")
        assert sum(by_rung.values()) == n_requests
        assert service.metrics.counter("requests.total").value == n_requests
        admitted = service.metrics.counter("requests.admitted").value
        rejected = service.metrics.counter("requests.rejected").value
        assert admitted + rejected == n_requests
        assert admitted > 0 and rejected > 0

        # metrics JSON is well-formed and carries latency percentiles
        import json
        data = json.loads(service.metrics_json())
        assert data["histograms"]["latency.decision_ms"]["count"] == n_requests


class TestWireFormat:
    def test_missing_field_raises_value_error(self):
        from repro.service.requests import request_from_dict

        with pytest.raises(ValueError, match="missing required field"):
            request_from_dict({"op": "admit-tct", "name": "x", "source": "D1"})

    def test_unknown_op_raises_value_error(self):
        from repro.service.requests import request_from_dict

        with pytest.raises(ValueError, match="unknown admission op"):
            request_from_dict({"op": "frobnicate"})


# The service-vs-offline equivalence stress test lives with the other
# incremental-scheduling equivalence checks in
# tests/core/test_incremental.py (TestServiceEquivalence).
