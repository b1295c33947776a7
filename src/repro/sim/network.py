"""Assembles a runnable TSN simulation from schedule + GCL.

This is the counterpart of the paper's evaluation toolkit: it wires the
topology's egress ports (paper Fig. 3 model), the per-node clocks with
optional 802.1AS sync, the time-triggered talkers, and the stochastic
ECT sources, then runs the discrete-event loop and hands back the latency
records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import random

from repro.core.gcl import NetworkGcl
from repro.core.schedule import NetworkSchedule
from repro.model.stream import Priorities, StreamType
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.background import BeSource, BeTrafficSpec
from repro.sim.cbs import CreditBasedShaper
from repro.sim.clock import Clock, SyncConfig, SyncDomain
from repro.sim.devices import EctSource, TtTalker
from repro.sim.engine import Simulator
from repro.sim.frames import SimFrame
from repro.sim.port import EgressPort
from repro.sim.recorder import LatencyRecorder


@dataclass
class SimConfig:
    """Run-time knobs of one simulation."""

    duration_ns: int
    seed: int = 0
    #: idle slope of the ECT class as a fraction of link rate; used only
    #: when ``cbs_on_ect`` (the AVB baseline's Qav shaper).
    cbs_on_ect: bool = False
    cbs_idle_slope_fraction: float = 0.75
    #: per-node clock drift in ppb; nodes not listed run perfectly.
    clock_drift_ppb: Dict[str, int] = field(default_factory=dict)
    #: initial per-node clock offsets in ns.
    clock_offset_ns: Dict[str, int] = field(default_factory=dict)
    sync: Optional[SyncConfig] = None
    #: extra uniform spacing added between ECT events, beyond the minimum
    #: inter-event time (defaults to one minimum inter-event time).
    ect_gap_jitter_ns: Optional[int] = None
    #: explicit occurrence times per ECT stream name (overrides the
    #: stochastic process; must respect the minimum inter-event time).
    ect_event_times: Dict[str, List[int]] = field(default_factory=dict)
    #: best-effort background flows (PCP 0; only unallocated gate time).
    be_traffic: List[BeTrafficSpec] = field(default_factory=list)
    #: fault injection: per-directed-link probability of losing a frame
    #: in transit (corruption/CRC drop).
    link_loss: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: per-hop frame tracing: every egress port emits enqueue / transmit
    #: / deliver events (simulated-time stamps) into this tracer, so a
    #: frame's full journey is reconstructable (Fig. 14's per-hop data).
    #: ``None`` keeps the hot path event-free.
    tracer: Optional[Tracer] = None

    def __post_init__(self) -> None:
        for key, probability in self.link_loss.items():
            if not 0.0 <= probability <= 1.0:
                raise ValueError(
                    f"link_loss[{key[0]}->{key[1]}]: loss probability must "
                    f"be within [0, 1], got {probability}"
                )


@dataclass
class SimReport:
    """What a run hands back to the analysis layer."""

    recorder: LatencyRecorder
    port_stats: Dict[Tuple[str, str], object]
    duration_ns: int
    num_events: int
    sync_error_ns: int = 0
    frames_lost: int = 0

    def link_utilization(self, link_key: Tuple[str, str]) -> float:
        stats = self.port_stats[link_key]
        return stats.busy_ns / self.duration_ns


class TsnSimulation:
    """One simulation instance: build, run once, read the report."""

    def __init__(
        self,
        schedule: NetworkSchedule,
        gcl: NetworkGcl,
        config: SimConfig,
    ) -> None:
        self._schedule = schedule
        self._gcl = gcl
        self._config = config
        self._sim = Simulator()
        self._tracer = config.tracer if config.tracer is not None else NULL_TRACER
        self._tracing = self._tracer.enabled
        self._recorder = LatencyRecorder()
        self._clocks: Dict[str, Clock] = {}
        self._ports: Dict[Tuple[str, str], EgressPort] = {}
        self._sources: List[EctSource] = []
        self._build()

    # ------------------------------------------------------------------
    def _clock_for(self, node: str) -> Clock:
        if node not in self._clocks:
            self._clocks[node] = Clock(
                node,
                offset_ns=self._config.clock_offset_ns.get(node, 0),
                drift_ppb=self._config.clock_drift_ppb.get(node, 0),
            )
        return self._clocks[node]

    def _build(self) -> None:
        topology = self._schedule.topology
        for link_key, port_gcl in self._gcl.ports.items():
            link = topology.link(*link_key)
            shapers: Dict[int, CreditBasedShaper] = {}
            if self._config.cbs_on_ect:
                idle = int(link.bandwidth_bps * self._config.cbs_idle_slope_fraction)
                shapers[Priorities.EP] = CreditBasedShaper(idle, link.bandwidth_bps)
            self._ports[link_key] = EgressPort(
                sim=self._sim,
                link=link,
                gcl=port_gcl,
                clock=self._clock_for(link_key[0]),
                deliver=self._deliver,
                shapers=shapers,
                tracer=self._tracer,
            )

        proxies = set(self._schedule.meta.get("ect_proxies", {}) or {})
        for stream in self._schedule.streams:
            if stream.type != StreamType.DET or stream.name in proxies:
                continue
            first_link = stream.path[0]
            talker = TtTalker(
                sim=self._sim,
                clock=self._clock_for(stream.source),
                port=self._ports[first_link.key],
                stream=stream,
                first_link_slots=self._schedule.slots[(stream.name, first_link.key)],
                recorder=self._recorder,
                horizon_ns=self._config.duration_ns,
            )
            talker.start()

        # FRER members of one logical stream fire identical events and
        # stamp frames with the logical name, so the recorder's duplicate
        # elimination merges them (802.1CB listener behavior).
        frer_members: Dict[str, str] = dict(
            self._schedule.meta.get("frer_members", {}) or {}
        )
        logical_events: Dict[str, List[int]] = {}
        logical_index: Dict[str, int] = {}
        self._seen_logicals: set = set()
        for index, ect in enumerate(self._schedule.ect_streams):
            logical = frer_members.get(ect.name, ect.name)
            logical_index.setdefault(logical, len(logical_index))
            events = self._config.ect_event_times.get(logical)
            if events is None and logical in frer_members.values():
                if logical not in logical_events:
                    from repro.traffic.events import uniform_gap_events

                    logical_events[logical] = uniform_gap_events(
                        horizon_ns=self._config.duration_ns,
                        min_interevent_ns=ect.min_interevent_ns,
                        seed=self._config.seed * 1009 + logical_index[logical],
                        gap_jitter_ns=(
                            self._config.ect_gap_jitter_ns
                            if self._config.ect_gap_jitter_ns is not None
                            else ect.min_interevent_ns
                        ),
                    )
                events = logical_events[logical]
            path = ect.route(topology)
            primary = logical not in self._seen_logicals
            self._seen_logicals.add(logical)
            source = EctSource(
                sim=self._sim,
                port=self._ports[path[0].key],
                recorder=self._recorder,
                name=logical,
                path=path,
                length_bytes=ect.length_bytes,
                min_interevent_ns=ect.min_interevent_ns,
                horizon_ns=self._config.duration_ns,
                seed=self._config.seed * 1009 + logical_index[logical],
                gap_jitter_ns=self._config.ect_gap_jitter_ns,
                event_times=events,
                record_injections=primary,
            )
            source.start()
            self._sources.append(source)

        for index, spec in enumerate(self._config.be_traffic):
            path = tuple(topology.shortest_path(spec.source, spec.destination))
            for link in path:
                if link.key not in self._ports:
                    raise ValueError(
                        f"BE flow {spec.name!r}: no port on {link} — the "
                        f"link carries no schedule; add a stream there or "
                        f"pick another route"
                    )
            BeSource(
                sim=self._sim,
                port=self._ports[path[0].key],
                recorder=self._recorder,
                spec=spec,
                path=path,
                horizon_ns=self._config.duration_ns,
                seed=self._config.seed * 7919 + index,
            ).start()

        # One RNG per lossy link (mirroring the per-source RNGs above):
        # a shared RNG would make link A's loss outcomes depend on how
        # many draws link B consumed, i.e. on unrelated traffic.
        self._loss_rngs = {
            key: random.Random(f"{self._config.seed}:loss:{key[0]}->{key[1]}")
            for key in self._config.link_loss
        }
        self.frames_lost = 0

        self._sync = SyncDomain(
            self._sim,
            list(self._clocks.values()),
            config=self._config.sync,
            seed=self._config.seed,
        )
        if self._config.sync is not None:
            self._sync.start()

    # ------------------------------------------------------------------
    def _deliver(self, frame: SimFrame, arrival_ns: int) -> None:
        hop = frame.hop
        path = frame.path
        if self._loss_rngs:
            key = path[hop].key
            loss = self._config.link_loss.get(key, 0.0)
            if loss and self._loss_rngs[key].random() < loss:
                self.frames_lost += 1
                if self._tracing:
                    self._trace_arrival("frame.drop", frame, arrival_ns)
                return
        if self._tracing:
            self._trace_arrival("frame.deliver", frame, arrival_ns)
        hop += 1
        if hop == len(path):
            self._recorder.on_deliver(frame, arrival_ns)
            return
        # the frame travels on: nothing else holds it, so it moves one
        # hop in place instead of being copied (``SimFrame.advanced``)
        frame.hop = hop
        link = path[hop]
        self._ports[link.src, link.dst].enqueue(frame)

    def _trace_arrival(self, event: str, frame: SimFrame, ts_ns: int) -> None:
        link = frame.current_link
        self._tracer.event(
            event,
            ts_ns=ts_ns,
            frame_id=frame.frame_id,
            stream=frame.stream,
            message_id=frame.message_id,
            frame_index=frame.frame_index,
            link=f"{link.src}->{link.dst}",
            hop=frame.hop,
            final=frame.is_last_hop,
        )

    # ------------------------------------------------------------------
    def run(self, drain_margin_ns: Optional[int] = None) -> SimReport:
        """Run to the configured duration plus a drain margin.

        The margin lets messages injected near the end finish; it
        defaults to the largest stream period in the schedule.
        """
        if drain_margin_ns is None:
            drain_margin_ns = max(
                (s.period_ns for s in self._schedule.streams), default=0
            )
        self._sim.run_until(self._config.duration_ns + drain_margin_ns)
        return SimReport(
            recorder=self._recorder,
            port_stats={key: port.stats for key, port in self._ports.items()},
            duration_ns=self._config.duration_ns,
            num_events=self._sim.num_events,
            sync_error_ns=self._sync.max_observed_error_ns,
            frames_lost=self.frames_lost,
        )

    @property
    def recorder(self) -> LatencyRecorder:
        return self._recorder

    @property
    def sources(self) -> List[EctSource]:
        return self._sources
