"""ClusterCoordinator: routing, shard admission, stitching."""

import pytest

from repro.cluster import (
    REASON_CROSS_ECT,
    REASON_NAME_IN_USE,
    REASON_REENTRANT,
    REASON_UNKNOWN_STREAM,
    REASON_UNROUTABLE,
    RUNG_TWOPHASE,
    ClusterCoordinator,
    partition_by_assignment,
    partition_topology,
)
from repro.experiments import simulation_topology
from repro.model.stream import EctStream, Priorities, TctRequirement
from repro.model.topology import Topology
from repro.model.units import milliseconds
from repro.service import (
    RUNG_FASTPATH,
    AdmitEct,
    AdmitTct,
    Remove,
)


def _tct(name, src, dst, period_ms=8, length=1000):
    return AdmitTct(TctRequirement(
        name=name, source=src, destination=dst,
        period_ns=milliseconds(period_ms), length_bytes=length,
        priority=Priorities.NSH_PH,
    ))


def _ect(name, src, dst, period_ms=16, length=512):
    return AdmitEct(EctStream(
        name=name, source=src, destination=dst,
        min_interevent_ns=milliseconds(period_ms),
        length_bytes=length, possibilities=4,
    ))


@pytest.fixture
def coordinator():
    topo = simulation_topology()
    partition = partition_topology(topo, 2, seeds=["SW1", "SW4"])
    return ClusterCoordinator(partition=partition)


class TestLocalPath:
    def test_local_admit_touches_only_its_shard(self, coordinator):
        decision = coordinator.submit(_tct("a", "D1", "D4"))
        assert decision.accepted
        assert decision.rung == RUNG_FASTPATH
        assert coordinator.shard_store("shard0").version == 1
        assert coordinator.shard_store("shard1").version == 0
        assert coordinator.metrics.counter(
            "cluster.requests_local"
        ).value == 1

    def test_batch_fans_out_across_shards(self, coordinator):
        decisions = coordinator.submit_many([
            _tct("a0", "D1", "D4"),
            _tct("a1", "D10", "D12"),
            _tct("a2", "D2", "D5"),
        ])
        assert all(d.accepted for d in decisions)
        # decisions come back in submission order
        assert [d.stream for d in decisions] == ["a0", "a1", "a2"]
        assert coordinator.shard_store("shard0").version == 1  # one batch
        assert coordinator.shard_store("shard1").version == 1

    def test_local_ect_admits_normally(self, coordinator):
        decision = coordinator.submit(_ect("alarm", "D2", "D4"))
        assert decision.accepted
        schedule = coordinator.shard_store("shard0").schedule
        assert any(e.name == "alarm" for e in schedule.ect_streams)


class TestCrossShardPath:
    def test_cross_admit_lands_in_every_involved_shard(self, coordinator):
        decision = coordinator.submit(_tct("x", "D1", "D12"))
        assert decision.accepted
        assert decision.rung == RUNG_TWOPHASE
        assert decision.batch_size == 2  # two shards published
        for name in ("shard0", "shard1"):
            schedule = coordinator.shard_store(name).schedule
            assert any(s.name == "x" for s in schedule.streams)
        assert coordinator.metrics.counter(
            "cluster.admitted_cross"
        ).value == 1

    def test_stitched_stream_is_contiguous(self, coordinator):
        assert coordinator.submit(_tct("x", "D1", "D12")).accepted
        stitched = coordinator.global_schedule()
        stream = next(s for s in stitched.streams if s.name == "x")
        assert stream.path[0].src == "D1"
        assert stream.path[-1].dst == "D12"
        for left, right in zip(stream.path, stream.path[1:]):
            assert left.dst == right.src
        versions = stitched.meta["cluster"]["shard_versions"]
        assert versions == {"shard0": 1, "shard1": 1}

    def test_cross_admit_passes_global_audit(self, coordinator):
        assert coordinator.submit(_tct("x", "D1", "D12")).accepted
        assert coordinator.submit(_tct("y", "D2", "D5")).accepted
        assert coordinator.audit() is not None
        assert coordinator.metrics.counter("cluster.audits").value == 1

    def test_cross_remove_retires_every_segment(self, coordinator):
        assert coordinator.submit(_tct("x", "D1", "D12")).accepted
        decision = coordinator.submit(Remove("x"))
        assert decision.accepted
        assert decision.rung == RUNG_TWOPHASE
        for name in ("shard0", "shard1"):
            schedule = coordinator.shard_store(name).schedule
            assert all(s.name != "x" for s in schedule.streams)
        # retirements and admissions are separate counters
        assert coordinator.metrics.counter("cluster.removed_cross").value == 1
        assert coordinator.metrics.counter(
            "cluster.admitted_cross"
        ).value == 1

    def test_cross_admit_splits_e2e_budget(self, coordinator):
        e2e = milliseconds(6)
        decision = coordinator.submit(AdmitTct(TctRequirement(
            name="x", source="D1", destination="D12",
            period_ns=milliseconds(8), length_bytes=1000,
            e2e_ns=e2e, priority=Priorities.NSH_PH,
        )))
        assert decision.accepted
        assert "e2e_split" in decision.attempts
        segments = [
            next(s for s in coordinator.shard_store(name).schedule.streams
                 if s.name == "x")
            for name in ("shard0", "shard1")
        ]
        # each shard validated its segment against a share of the
        # deadline, not the whole of it, and the shares sum exactly
        assert all(s.e2e_ns < e2e for s in segments)
        assert sum(s.e2e_ns for s in segments) == e2e
        stitched = coordinator.global_schedule()
        stream = next(s for s in stitched.streams if s.name == "x")
        assert stream.e2e_ns == e2e

    def test_cross_ect_is_structured_rejection(self, coordinator):
        decision = coordinator.submit(_ect("alarm", "D1", "D12"))
        assert not decision.accepted
        assert decision.reason == REASON_CROSS_ECT
        assert coordinator.metrics.counter(
            "cluster.rejected_cross_ect"
        ).value == 1
        # nothing published anywhere
        assert coordinator.shard_store("shard0").version == 0
        assert coordinator.shard_store("shard1").version == 0


class TestNameUniqueness:
    def test_same_name_on_two_shards_is_rejected(self, coordinator):
        assert coordinator.submit(_tct("dup", "D1", "D4")).accepted
        decision = coordinator.submit(_tct("dup", "D10", "D12"))
        assert not decision.accepted
        assert decision.reason.startswith(REASON_NAME_IN_USE)
        assert "shard0" in decision.reason
        assert coordinator.shard_store("shard1").version == 0
        assert coordinator.metrics.counter(
            "cluster.rejected_name_in_use"
        ).value == 1
        # the stitched view never sees two streams under one name
        stitched = coordinator.global_schedule()
        assert [s.name for s in stitched.streams] == ["dup"]

    def test_duplicate_name_in_one_batch_is_rejected(self, coordinator):
        first, second = coordinator.submit_many([
            _tct("dup", "D1", "D4"),
            _tct("dup", "D10", "D12"),
        ])
        assert first.accepted
        assert not second.accepted
        assert second.reason.startswith(REASON_NAME_IN_USE)

    def test_ect_possibility_name_is_claimed_too(
        self, coordinator
    ):
        """An ECT is scheduled under its possibilities' names, so an
        admit claims those cluster-wide as well as its own."""
        assert coordinator.submit(_tct("e#ps1", "D7", "D8")).accepted
        decision = coordinator.submit(_ect("e", "D1", "D2"))
        assert not decision.accepted
        assert decision.reason.startswith(REASON_NAME_IN_USE)
        assert "'e#ps1'" in decision.reason
        assert coordinator.shard_store("shard0").version == 0
        stitched = coordinator.global_schedule()
        assert [s.name for s in stitched.streams] == ["e#ps1"]
        # the rejected admit released every name it claimed
        assert coordinator.submit(Remove("e#ps1")).accepted
        assert coordinator.submit(_ect("e", "D1", "D2")).accepted

    def test_ect_and_its_possibility_name_in_one_batch(self, coordinator):
        first, second = coordinator.submit_many([
            _ect("e", "D1", "D2"),
            _tct("e#ps1", "D7", "D8"),
        ])
        assert first.accepted
        assert not second.accepted
        assert second.reason.startswith(REASON_NAME_IN_USE)

    def test_remove_frees_the_name_cluster_wide(self, coordinator):
        assert coordinator.submit(_tct("dup", "D1", "D4")).accepted
        assert coordinator.submit(Remove("dup")).accepted
        assert coordinator.submit(_tct("dup", "D10", "D12")).accepted


class TestReentrantRoutes:
    def test_reentrant_route_is_structured_rejection(self):
        # a 3-switch line whose middle switch belongs to another shard:
        # the only DA -> DB route is shard0 -> shard1 -> shard0
        topo = Topology()
        for switch in ("SW1", "SW2", "SW3"):
            topo.add_switch(switch)
        topo.add_device("DA")
        topo.add_device("DB")
        topo.add_link("DA", "SW1")
        topo.add_link("SW1", "SW2")
        topo.add_link("SW2", "SW3")
        topo.add_link("SW3", "DB")
        partition = partition_by_assignment(
            topo, {"SW1": 0, "SW3": 0, "SW2": 1}
        )
        coordinator = ClusterCoordinator(partition=partition)
        decision = coordinator.submit(_tct("re", "DA", "DB"))
        assert not decision.accepted
        assert decision.reason == REASON_REENTRANT
        assert coordinator.metrics.counter(
            "cluster.rejected_reentrant"
        ).value == 1
        for name in coordinator.shard_names():
            assert coordinator.shard_store(name).version == 0


class TestRejections:
    def test_unroutable_request(self, coordinator):
        decision = coordinator.submit(_tct("ghost", "D1", "D99"))
        assert not decision.accepted
        assert decision.reason.startswith(REASON_UNROUTABLE)

    def test_remove_unknown_stream(self, coordinator):
        decision = coordinator.submit(Remove("never-admitted"))
        assert not decision.accepted
        assert decision.reason == REASON_UNKNOWN_STREAM

    def test_empty_cluster_audit_is_none(self, coordinator):
        assert coordinator.audit() is None


class TestStatus:
    def test_status_reports_shards_and_versions(self, coordinator):
        assert coordinator.submit(_tct("a", "D1", "D4")).accepted
        status = coordinator.status()
        assert set(status["shards"]) == {"shard0", "shard1"}
        assert status["shards"]["shard0"]["version"] == 1
        assert status["shards"]["shard0"]["streams"] == 1
        assert status["shards"]["shard1"]["version"] == 0
        assert ["SW2", "SW3"] in status["boundary_links"]
        assert status["metrics"]["counters"]["cluster.requests_total"] == 1

    def test_shard_accessors_validate_names(self, coordinator):
        with pytest.raises(ValueError):
            coordinator.shard_store("nope")
        assert coordinator.shard_names() == ["shard0", "shard1"]

    def test_needs_topology_or_partition(self):
        with pytest.raises(ValueError):
            ClusterCoordinator()
