"""Cross-shard publish: all involved shards or none.

The coordinator locks every involved shard in sorted order, solves each
segment against the shard's live schedule and publishes them all.  The
tests drive a real :class:`ClusterCoordinator` on the Fig. 13 network
split in two, and force the two ways a publish can fail: a segment
that does not fit, and a writer that bypasses the coordinator through
``shard_service(...)`` while the cross-shard request is being solved.
The no-half-commit invariant is checked with a GCL audit of the
stitched global schedule.
"""

import pytest

from repro.cluster import (
    REASON_CAS_EXHAUSTED,
    RUNG_TWOPHASE,
    ClusterCoordinator,
    partition_topology,
)
from repro.experiments import simulation_topology
from repro.model.stream import Priorities, TctRequirement
from repro.model.units import milliseconds
from repro.obs import EventLog, filter_events
from repro.service import AdmitTct


def _tct(name, src, dst, period_ms=8, length=1000):
    return AdmitTct(TctRequirement(
        name=name, source=src, destination=dst,
        period_ns=milliseconds(period_ms), length_bytes=length,
        priority=Priorities.NSH_PH,
    ))


@pytest.fixture
def coordinator():
    partition = partition_topology(
        simulation_topology(), 2, seeds=["SW1", "SW4"]
    )
    return ClusterCoordinator(
        partition=partition, events=EventLog(clock=lambda: 0)
    )


def _wrap_solve(monkeypatch, coordinator, shard, before):
    """Call ``before(schedule, requests)`` ahead of every segment solve
    on ``shard``; a non-``None`` return replaces the solve's answer."""
    service = coordinator.shard_service(shard)
    real = service.solve_against

    def solve_against(schedule, requests):
        answer = before(schedule, requests)
        return real(schedule, requests) if answer is None else answer

    monkeypatch.setattr(service, "solve_against", solve_against)


def _bypass(monkeypatch, coordinator, shard, request):
    """Admit ``request`` straight into ``shard``'s service from inside
    its next segment solve — the one writer the shard locks do not
    stop.  Returns the list the bypassing decision lands in."""
    fired = []

    def before(schedule, requests):
        if not fired:
            fired.append(coordinator.shard_service(shard).submit(request))

    _wrap_solve(monkeypatch, coordinator, shard, before)
    return fired


def _events(coordinator, kind):
    return [e.attributes for e in filter_events(
        coordinator.events.events(), kind=kind
    )]


class TestCrossShardPublish:
    def test_clean_commit_publishes_every_shard(self, coordinator):
        decision = coordinator.submit(_tct("x", "D1", "D12"))
        assert decision.accepted and decision.rung == RUNG_TWOPHASE
        assert decision.batch_size == 2
        assert decision.store_version == 1
        for name in ("shard0", "shard1"):
            assert coordinator.shard_store(name).version == 1
        counters = coordinator.metrics.to_dict()["counters"]
        assert counters["cluster.requests_cross"] == 1
        assert counters["cluster.admitted_cross"] == 1
        assert "cluster.twophase.aborts" not in counters

    def test_segment_solves_hold_every_involved_shard_lock(
        self, coordinator, monkeypatch
    ):
        locks = [coordinator._runtimes[name].lock
                 for name in coordinator.shard_names()]
        held = []
        for name in coordinator.shard_names():
            _wrap_solve(
                monkeypatch, coordinator, name,
                lambda schedule, requests: held.append(
                    [lock.locked() for lock in locks]
                ),
            )
        assert coordinator.submit(_tct("x", "D1", "D12")).accepted
        assert held == [[True, True], [True, True]]
        assert not any(lock.locked() for lock in locks)

    def test_prepare_failure_aborts_without_publishing(
        self, coordinator, monkeypatch
    ):
        # shard0's segment solves; shard1's does not fit
        _wrap_solve(
            monkeypatch, coordinator, "shard1",
            lambda schedule, requests: (None, {"fastpath": "no capacity"}),
        )
        decision = coordinator.submit(_tct("x", "D1", "D12"))
        assert not decision.accepted
        assert decision.reason == "shard1: fastpath: no capacity"
        assert decision.attempts["shard0.rung"] == "fastpath"
        assert decision.attempts["shard1.fastpath"] == "no capacity"
        for name in ("shard0", "shard1"):
            assert coordinator.shard_store(name).version == 0
        assert coordinator.metrics.counter(
            "cluster.twophase.aborts"
        ).value == 1
        assert _events(coordinator, "twophase.abort") == [{
            "reason": "fastpath: no capacity", "phase": "prepare",
            "shard": "shard1", "shards": ["shard0", "shard1"],
        }]

    def test_stale_shard_aborts_and_rolls_back_published(
        self, coordinator, monkeypatch
    ):
        before = coordinator.shard_store("shard0").schedule
        # shard1 is published second (sorted order), so shard0 has
        # already published when shard1's CAS finds the bypassing write
        fired = _bypass(monkeypatch, coordinator, "shard1",
                        _tct("conflict", "D7", "D12"))
        decision = coordinator.submit(_tct("x", "D1", "D12"))
        assert fired[0].accepted
        assert not decision.accepted
        assert decision.reason == REASON_CAS_EXHAUSTED
        # shard0 was published then rolled back to its exact schedule
        assert coordinator.shard_store("shard0").schedule is before
        assert coordinator.shard_store("shard0").version == 2
        # shard1 kept the bypassing admit and never saw the crosser
        assert coordinator.shard_store("shard1").version == 1
        assert [s.name for s in
                coordinator.shard_store("shard1").schedule.streams] == [
            "conflict"
        ]
        counters = coordinator.metrics.to_dict()["counters"]
        assert counters["cluster.twophase.commit_conflicts"] == 1
        assert counters["cluster.twophase.rollbacks"] == 1
        assert counters["cluster.twophase.aborts"] == 1
        assert _events(coordinator, "twophase.rollback") == [{
            "shard": "shard0", "rolled_back_version": 1,
            "restored_version": 0,
        }]
        assert _events(coordinator, "twophase.abort") == [{
            "reason": "stale_version", "phase": "commit",
            "shard": "shard1", "shards": ["shard0", "shard1"],
        }]

    def test_stale_commit_is_rejected_without_retry(
        self, coordinator, monkeypatch
    ):
        solves = []
        _bypass(monkeypatch, coordinator, "shard1",
                _tct("conflict", "D7", "D12"))
        _wrap_solve(monkeypatch, coordinator, "shard0",
                    lambda schedule, requests: solves.append(requests))
        decision = coordinator.submit(_tct("x", "D1", "D12"))
        assert decision.reason == REASON_CAS_EXHAUSTED
        assert len(solves) == 1


class TestCoordinatorAbort:
    """The acceptance invariant: an aborted cross-shard publish leaves
    no half-committed schedule, proven by auditing the stitched GCL."""

    def test_abort_leaves_no_half_commit(self, coordinator, monkeypatch):
        # seed both shards so the audit has gates to check either way
        assert coordinator.submit(_tct("loc0", "D1", "D4")).accepted
        assert coordinator.submit(_tct("loc1", "D10", "D12")).accepted
        _bypass(monkeypatch, coordinator, "shard1",
                _tct("conflict", "D7", "D12"))
        assert not coordinator.submit(_tct("crosser", "D1", "D12")).accepted

        # no shard holds any trace of the aborted stream
        for name in coordinator.shard_names():
            schedule = coordinator.shard_store(name).schedule
            assert all(s.name != "crosser" for s in schedule.streams)
        stitched = coordinator.global_schedule()
        assert {s.name for s in stitched.streams} == {
            "loc0", "loc1", "conflict"
        }
        # the stitched GCL still audits clean after the abort
        assert coordinator.audit() is not None

    def test_retry_after_abort_commits_clean(self, coordinator, monkeypatch):
        assert coordinator.submit(_tct("loc0", "D1", "D4")).accepted
        request = _tct("crosser", "D1", "D12")
        _bypass(monkeypatch, coordinator, "shard1",
                _tct("conflict", "D7", "D12"))
        assert not coordinator.submit(request).accepted

        # the caller's resubmission locks, solves and lands it
        decision = coordinator.submit(request)
        assert decision.accepted
        assert decision.rung == RUNG_TWOPHASE
        stitched = coordinator.global_schedule()
        crosser = next(s for s in stitched.streams if s.name == "crosser")
        assert crosser.path[0].src == "D1"
        assert crosser.path[-1].dst == "D12"
        assert coordinator.audit() is not None
