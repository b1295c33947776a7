"""A cross-shard accept keeps its deadline on the shared time axis.

The cluster is a view over one store, so a route across a shard border
is timed end to end like any other.  With six full-MTU streams
D10 -> D12 in the downstream shard, TCT ``x`` D1 -> D12 (2 ms budget)
used to be accepted with its slot on ``<SW3,SW4>`` opening before its
frame had arrived over ``<SW2,SW3>``: each shard timed its segment on
its own axis.  A cross-shard ECT and a route that leaves a shard and
comes back were structured rejections for the same reason; on one time
axis both are ordinary admits.
"""

from itertools import groupby

from repro.cluster import (
    ClusterCoordinator,
    partition_by_assignment,
    partition_topology,
)
from repro.core.schedule import validate
from repro.experiments import simulation_topology
from repro.model.stream import EctStream, Priorities, TctRequirement
from repro.model.topology import Topology
from repro.model.units import milliseconds
from repro.service import AdmitEct, AdmitTct


def _tct(name, src, dst, length, e2e_ns=None):
    return AdmitTct(TctRequirement(
        name=name, source=src, destination=dst,
        period_ns=milliseconds(8), length_bytes=length, e2e_ns=e2e_ns,
        priority=Priorities.NSH_PH,
    ))


def _fig13_coordinator():
    partition = partition_topology(
        simulation_topology(), 2, seeds=["SW1", "SW4"]
    )
    return ClusterCoordinator(partition=partition)


def _crossed(coordinator, name):
    """The owning shard of each run of the stream's route, in order."""
    stream = coordinator.global_schedule().streams_by_name[name]
    owner = coordinator.partition.owner_of_link
    return [shard for shard, _ in groupby(
        owner(link.key) for link in stream.path
    )]


def test_cross_shard_accept_validates_on_the_stitched_schedule():
    coordinator = _fig13_coordinator()
    for i in range(6):
        assert coordinator.submit(_tct(f"bg{i}", "D10", "D12", 1500)).accepted
    decision = coordinator.submit(
        _tct("x", "D1", "D12", 1000, e2e_ns=milliseconds(2))
    )
    assert decision.accepted
    assert _crossed(coordinator, "x") == ["shard0", "shard1"]
    # the stream keeps its whole budget; nothing is split per shard
    assert coordinator.global_schedule().streams_by_name["x"].e2e_ns == (
        milliseconds(2)
    )
    validate(coordinator.global_schedule())
    assert coordinator.audit() is not None


def test_cross_shard_ect_is_an_ordinary_admit():
    coordinator = _fig13_coordinator()
    assert coordinator.submit(_tct("bg", "D10", "D12", 1500)).accepted
    decision = coordinator.submit(AdmitEct(EctStream(
        name="alarm", source="D1", destination="D12",
        min_interevent_ns=milliseconds(16), length_bytes=512,
        possibilities=4,
    )))
    assert decision.accepted
    schedule = coordinator.global_schedule()
    assert [e.name for e in schedule.ect_streams] == ["alarm"]
    assert _crossed(coordinator, "alarm#ps1") == ["shard0", "shard1"]
    validate(schedule)
    assert coordinator.audit() is not None


def test_reentrant_route_is_an_ordinary_admit():
    # a 3-switch line whose middle switch belongs to another shard: the
    # only DA -> DB route is shard0 -> shard1 -> shard0
    topo = Topology()
    for switch in ("SW1", "SW2", "SW3"):
        topo.add_switch(switch)
    topo.add_device("DA")
    topo.add_device("DB")
    topo.add_link("DA", "SW1")
    topo.add_link("SW1", "SW2")
    topo.add_link("SW2", "SW3")
    topo.add_link("SW3", "DB")
    coordinator = ClusterCoordinator(partition=partition_by_assignment(
        topo, {"SW1": 0, "SW3": 0, "SW2": 1}
    ))
    decision = coordinator.submit(_tct("re", "DA", "DB", 1000))
    assert decision.accepted
    assert _crossed(coordinator, "re") == ["shard0", "shard1", "shard0"]
    validate(coordinator.global_schedule())
    assert coordinator.audit() is not None
