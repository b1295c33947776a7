"""End-device behaviors: time-triggered talkers and ECT event sources.

A :class:`TtTalker` is what the CUC configures on an end station for a
TCT stream: it injects each frame of the message exactly at the frame's
scheduled first-link slot, in the *device's local clock*.

An :class:`EctSource` fires events stochastically — uniform phase, with
the stream's minimum inter-event spacing enforced (the property the
probabilistic-stream analysis relies on) — and enqueues the message
immediately, whenever that is.  The latency clock starts at the event.
"""

from __future__ import annotations

import random
from functools import partial
from typing import List, Optional, Sequence, Tuple

from repro.model.frame import FrameSlot
from repro.model.stream import Priorities, Stream
from repro.model.topology import Link
from repro.sim.clock import Clock
from repro.sim.engine import Simulator
from repro.sim.frames import SimFrame, message_frames
from repro.sim.port import EgressPort
from repro.sim.recorder import LatencyRecorder


class TtTalker:
    """Injects one TCT stream's frames at their scheduled slot times."""

    def __init__(
        self,
        sim: Simulator,
        clock: Clock,
        port: EgressPort,
        stream: Stream,
        first_link_slots: Sequence[FrameSlot],
        recorder: LatencyRecorder,
        horizon_ns: int,
    ) -> None:
        self._sim = sim
        self._clock = clock
        self._port = port
        self._stream = stream
        self._recorder = recorder
        base = stream.frames_per_period()
        # Only the message's own frames are injected; extra slots from
        # prudent reservation stay empty unless displacement fills them.
        self._slots = list(first_link_slots)[:base]
        self._payloads = stream.frame_payloads()
        self._horizon_ns = horizon_ns

    def start(self) -> None:
        period = self._stream.period_ns
        k = 0
        while k * period + self._slots[0].offset_ns < self._horizon_ns:
            self._schedule_message(k)
            k += 1

    def _schedule_message(self, k: int) -> None:
        stream = self._stream
        start_local = k * stream.period_ns
        created = self._clock.to_global(self._slots[0].offset_ns + start_local)
        count = len(self._payloads)
        for j, payload in enumerate(self._payloads):
            frame = SimFrame(
                stream=stream.name,
                priority=stream.priority,
                message_id=k,
                frame_index=j,
                frames_in_message=count,
                payload_bytes=payload,
                created_ns=created,
                path=stream.path,
            )
            if j == 0:
                self._sim.at(created, partial(self._inject_first, frame))
            else:
                inject_global = self._clock.to_global(
                    self._slots[j].offset_ns + start_local
                )
                self._sim.at(inject_global, partial(self._port.enqueue, frame))

    def _inject_first(self, frame: SimFrame) -> None:
        self._recorder.on_inject(self._stream.name, frame.message_id)
        self._port.enqueue(frame)


class EctSource:
    """Generates the stochastic events of one ECT stream."""

    def __init__(
        self,
        sim: Simulator,
        port: EgressPort,
        recorder: LatencyRecorder,
        name: str,
        path: Tuple[Link, ...],
        length_bytes: int,
        min_interevent_ns: int,
        horizon_ns: int,
        seed: int = 0,
        gap_jitter_ns: Optional[int] = None,
        event_times: Optional[Sequence[int]] = None,
        record_injections: bool = True,
    ) -> None:
        self._sim = sim
        self._port = port
        self._recorder = recorder
        self._name = name
        self._path = path
        self._length_bytes = length_bytes
        self._min_interevent_ns = min_interevent_ns
        self._horizon_ns = horizon_ns
        self._rng = random.Random(seed)
        # Gap = min inter-event + U(0, jitter): respects the minimum
        # spacing while the event phase sweeps uniformly over the cycle.
        self._gap_jitter_ns = (
            gap_jitter_ns if gap_jitter_ns is not None else min_interevent_ns
        )
        self._preset_events = list(event_times) if event_times is not None else None
        self._record_injections = record_injections
        self.event_times: List[int] = []

    def start(self) -> None:
        if self._preset_events is not None:
            from repro.traffic.events import validate_min_spacing

            validate_min_spacing(self._preset_events, self._min_interevent_ns)
            times = [t for t in self._preset_events if t < self._horizon_ns]
        else:
            times = []
            t = self._rng.randint(0, self._min_interevent_ns)
            while t < self._horizon_ns:
                times.append(t)
                t += self._min_interevent_ns + self._rng.randint(0, self._gap_jitter_ns)
        for index, t in enumerate(times):
            self._sim.at(t, lambda when=t, i=index: self._fire(when, i))
            self.event_times.append(t)

    def _fire(self, when: int, message_id: int) -> None:
        if self._record_injections:
            # FRER members share a logical stream: only the primary
            # member counts the message as injected.
            self._recorder.on_inject(self._name, message_id)
        for frame in message_frames(
            stream=self._name,
            priority=Priorities.EP,
            message_id=message_id,
            message_bytes=self._length_bytes,
            created_ns=when,
            path=self._path,
        ):
            self._port.enqueue(frame)
