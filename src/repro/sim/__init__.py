"""Discrete-event TSN simulator — the evaluation toolkit substitute.

Implements the 802.1Qbv output-port model (paper Fig. 3) with guard
banding and strict-priority transmission selection, Qav credit-based
shaping for the AVB baseline, per-node clocks with simplified 802.1AS
sync, and nanosecond-resolution latency recording.

Runs are exactly reproducible, and host speed is not allowed to buy a
different run: a change made for speed must leave every simulated
statistic identical — the same callbacks at the same instants in the
same order, hence the same latencies, port counters, event count and
losses.  ``tests/sim/test_sim_equivalence.py`` pins one digest per
scenario to enforce it.
"""

from repro.sim.background import BeSource, BeTrafficSpec
from repro.sim.cbs import CreditBasedShaper
from repro.sim.clock import Clock, SyncConfig, SyncDomain
from repro.sim.devices import EctSource, TtTalker
from repro.sim.engine import SimulationError, Simulator
from repro.sim.frames import SimFrame, message_frames
from repro.sim.network import SimConfig, SimReport, TsnSimulation
from repro.sim.port import EgressPort
from repro.sim.recorder import LatencyRecorder, LatencyStats

__all__ = [
    "BeSource",
    "BeTrafficSpec",
    "Clock",
    "CreditBasedShaper",
    "EctSource",
    "EgressPort",
    "LatencyRecorder",
    "LatencyStats",
    "SimConfig",
    "SimReport",
    "SimFrame",
    "SimulationError",
    "Simulator",
    "SyncConfig",
    "SyncDomain",
    "TsnSimulation",
    "TtTalker",
    "message_frames",
]
