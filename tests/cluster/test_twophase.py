"""Cross-shard publish: every shard the route crosses, in one commit.

A cross-shard admit is an ordinary admit on the one store, so a clean
commit is a single publish that every shard's view reads, and the
stitched stream covers the links of every shard it crosses.
"""

import pytest

from repro.cluster import ClusterCoordinator, partition_topology
from repro.experiments import simulation_topology
from repro.model.stream import Priorities, TctRequirement
from repro.model.units import milliseconds
from repro.service import RUNG_FASTPATH, AdmitTct


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
    return ClusterCoordinator(partition=partition)


class TestCrossShardPublish:
    def test_clean_commit_publishes_every_shard(self, coordinator):
        decision = coordinator.submit(_tct("x", "D1", "D12"))
        assert decision.accepted and decision.rung == RUNG_FASTPATH
        assert decision.batch_size == 1
        assert decision.store_version == 1
        stream = coordinator.global_schedule().streams_by_name["x"]
        owners = {
            coordinator.partition.owner_of_link(link.key)
            for link in stream.path
        }
        assert owners == {"shard0", "shard1"}
        for name in ("shard0", "shard1"):
            store = coordinator.shard_store(name)
            assert store.version == 1
            assert "x" in store.schedule.streams_by_name
        counters = coordinator.metrics.to_dict()["counters"]
        assert counters["cluster.requests_cross"] == 1
        assert counters["cluster.requests_local"] == 0
