"""A cross-shard accept must keep its deadline on the shared time axis.

Known defect, pinned here so the fix flips it: each shard times its
segment of a cross-shard stream on its own axis, and the hand-over at
the border switch is counted nowhere.  With six full-MTU streams
D10 -> D12 in the downstream shard, TCT ``x`` D1 -> D12 (2 ms budget)
is accepted by the two-phase path, but its slot on ``<SW3,SW4>`` opens
before its frame has arrived over ``<SW2,SW3>``, so the stitched global
schedule fails Eq. 7 and every frame waits a whole period downstream.
A chain-timed prepare (each downstream segment released no earlier
than the upstream segment's last-hop receive time) makes this pass.
"""

import pytest

from repro.cluster import RUNG_TWOPHASE, ClusterCoordinator, partition_topology
from repro.core.schedule import ScheduleError, validate
from repro.experiments import simulation_topology
from repro.model.stream import Priorities, TctRequirement
from repro.model.units import milliseconds
from repro.service import AdmitTct


def _tct(name, src, dst, length, e2e_ns=None):
    return AdmitTct(TctRequirement(
        name=name, source=src, destination=dst,
        period_ns=milliseconds(8), length_bytes=length, e2e_ns=e2e_ns,
        priority=Priorities.NSH_PH,
    ))


@pytest.mark.xfail(strict=True, raises=ScheduleError,
                   reason="segments are timed on independent shard axes")
def test_cross_shard_accept_validates_on_the_stitched_schedule():
    partition = partition_topology(
        simulation_topology(), 2, seeds=["SW1", "SW4"]
    )
    coordinator = ClusterCoordinator(partition=partition)
    for i in range(6):
        assert coordinator.submit(_tct(f"bg{i}", "D10", "D12", 1500)).accepted
    decision = coordinator.submit(
        _tct("x", "D1", "D12", 1000, e2e_ns=milliseconds(2))
    )
    assert decision.accepted and decision.rung == RUNG_TWOPHASE
    validate(coordinator.global_schedule())
