"""ClusterCoordinator: a partitioned view over one store."""

import pytest

from repro.cluster import ClusterCoordinator, partition_topology
from repro.experiments import simulation_topology
from repro.model.stream import EctStream, Priorities, TctRequirement
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


def _populations(coordinator):
    return {
        name: shard["streams"]
        for name, shard in coordinator.status()["shards"].items()
    }


class TestLocalPath:
    def test_local_admit_touches_only_its_shard(self, coordinator):
        decision = coordinator.submit(_tct("a", "D1", "D4"))
        assert decision.accepted
        assert decision.rung == RUNG_FASTPATH
        assert _populations(coordinator) == {"shard0": 1, "shard1": 0}
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
        assert coordinator.store.version == 1  # one batch, one publish
        assert _populations(coordinator) == {"shard0": 2, "shard1": 1}

    def test_local_ect_admits_normally(self, coordinator):
        decision = coordinator.submit(_ect("alarm", "D2", "D4"))
        assert decision.accepted
        schedule = coordinator.shard_store("shard0").schedule
        assert any(e.name == "alarm" for e in schedule.ect_streams)
        status = coordinator.status()["shards"]
        assert status["shard0"]["ect_streams"] == 1
        assert status["shard1"]["ect_streams"] == 0


class TestCrossShardPath:
    def test_cross_admit_lands_in_every_involved_shard(self, coordinator):
        decision = coordinator.submit(_tct("x", "D1", "D12"))
        assert decision.accepted
        assert decision.rung == RUNG_FASTPATH
        assert _populations(coordinator) == {"shard0": 1, "shard1": 1}
        assert coordinator.metrics.counter(
            "cluster.requests_cross"
        ).value == 1

    def test_stitched_stream_is_contiguous(self, coordinator):
        assert coordinator.submit(_tct("x", "D1", "D12")).accepted
        stream = coordinator.global_schedule().streams_by_name["x"]
        assert stream.path[0].src == "D1"
        assert stream.path[-1].dst == "D12"
        for left, right in zip(stream.path, stream.path[1:]):
            assert left.dst == right.src

    def test_cross_admit_passes_global_audit(self, coordinator):
        assert coordinator.submit(_tct("x", "D1", "D12")).accepted
        assert coordinator.submit(_tct("y", "D2", "D5")).accepted
        assert coordinator.audit() is not None
        assert coordinator.metrics.counter("cluster.audits").value == 1

    def test_cross_remove_retires_every_segment(self, coordinator):
        assert coordinator.submit(_tct("x", "D1", "D12")).accepted
        decision = coordinator.submit(Remove("x"))
        assert decision.accepted
        assert _populations(coordinator) == {"shard0": 0, "shard1": 0}
        # the remove is counted by the live stream's route
        assert coordinator.metrics.counter(
            "cluster.requests_cross"
        ).value == 2


class TestNameUniqueness:
    def test_same_name_on_two_shards_is_rejected(self, coordinator):
        assert coordinator.submit(_tct("dup", "D1", "D4")).accepted
        decision = coordinator.submit(_tct("dup", "D10", "D12"))
        assert not decision.accepted
        assert decision.reason == "stream name 'dup' already in use"
        assert coordinator.store.version == 1
        assert [s.name for s in coordinator.global_schedule().streams] == [
            "dup"
        ]

    def test_duplicate_name_in_one_batch_is_rejected(self, coordinator):
        first, second = coordinator.submit_many([
            _tct("dup", "D1", "D4"),
            _tct("dup", "D10", "D12"),
        ])
        assert first.accepted
        assert not second.accepted
        assert second.reason == "stream name 'dup' already in use"

    def test_ect_possibility_name_is_claimed_too(
        self, coordinator
    ):
        """An ECT is scheduled under its possibilities' names, so an
        admit claims those store-wide as well as its own."""
        assert coordinator.submit(_tct("e#ps1", "D7", "D8")).accepted
        decision = coordinator.submit(_ect("e", "D1", "D2"))
        assert not decision.accepted
        assert decision.reason == "stream name 'e#ps1' already in use"
        assert [s.name for s in coordinator.global_schedule().streams] == [
            "e#ps1"
        ]
        assert coordinator.submit(Remove("e#ps1")).accepted
        assert coordinator.submit(_ect("e", "D1", "D2")).accepted

    def test_ect_and_its_possibility_name_in_one_batch(self, coordinator):
        first, second = coordinator.submit_many([
            _ect("e", "D1", "D2"),
            _tct("e#ps1", "D7", "D8"),
        ])
        assert first.accepted
        assert not second.accepted
        assert second.reason == "stream name 'e#ps1' already in use"

    def test_remove_frees_the_name_cluster_wide(self, coordinator):
        assert coordinator.submit(_tct("dup", "D1", "D4")).accepted
        assert coordinator.submit(Remove("dup")).accepted
        assert coordinator.submit(_tct("dup", "D10", "D12")).accepted


class TestRejections:
    def test_unroutable_request(self, coordinator):
        decision = coordinator.submit(_tct("ghost", "D1", "D99"))
        assert not decision.accepted
        assert decision.reason.startswith("unroutable request")
        assert coordinator.metrics.counter(
            "cluster.requests_local"
        ).value == 1

    def test_remove_unknown_stream(self, coordinator):
        decision = coordinator.submit(Remove("never-admitted"))
        assert not decision.accepted
        assert decision.reason == "no stream named 'never-admitted' to remove"

    def test_empty_cluster_audit_is_none(self, coordinator):
        assert coordinator.audit() is None


class TestStatus:
    def test_status_reports_shards_and_versions(self, coordinator):
        assert coordinator.submit(_tct("a", "D1", "D4")).accepted
        status = coordinator.status()
        assert set(status["shards"]) == {"shard0", "shard1"}
        # every shard reads the one store
        assert status["shards"]["shard0"]["version"] == 1
        assert status["shards"]["shard1"]["version"] == 1
        assert status["shards"]["shard0"]["streams"] == 1
        assert status["shards"]["shard1"]["streams"] == 0
        assert ["SW2", "SW3"] in status["boundary_links"]
        assert status["metrics"]["counters"]["cluster.requests_total"] == 1

    def test_shard_accessors_validate_names(self, coordinator):
        with pytest.raises(ValueError):
            coordinator.shard_store("nope")
        assert coordinator.shard_names() == ["shard0", "shard1"]
        assert coordinator.shard_store("shard1") is coordinator.store

    def test_needs_topology_or_partition(self):
        with pytest.raises(ValueError):
            ClusterCoordinator()
