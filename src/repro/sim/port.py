"""The 802.1Qbv egress port: queues, gates, and transmission selection.

Implements the output-port model of paper Fig. 3: eight priority FIFOs,
each behind a gate driven by the port's GCL, with strict-priority
selection among open gates.  Two refinements complete the model:

* **Guard banding** (Qbv look-ahead): a frame starts only if it finishes
  before its gate's window closes, so a late ECT frame can never clip a
  protected window.
* **Owner windows** (flow isolation): a window owned by stream ``s``
  serves only ``s``'s frames from the queue, so FIFO order inside a
  shared queue cannot leak one stream's reservation to another.  Windows
  with no owner (EP complements, best-effort gaps) serve any frame.

A queue may carry a credit-based shaper (:mod:`repro.sim.cbs`) — that is
how the AVB baseline forwards ECT.

Gate state is evaluated in the *node-local clock*; wake-ups are converted
back to global simulator time, so clock error degrades gating exactly as
it would in hardware.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.gcl import PortGcl
from repro.model.topology import Link
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.cbs import CreditBasedShaper
from repro.sim.clock import Clock
from repro.sim.engine import Simulator
from repro.sim.frames import SimFrame

DeliverFn = Callable[[SimFrame, int], None]

#: strict priority, per bitmask of non-empty queues: the queues in the
#: order they are offered the link, highest PCP first
_BY_PRIORITY = tuple(
    tuple(queue for queue in range(7, -1, -1) if mask >> queue & 1)
    for mask in range(256)
)


class PortStats:
    """Counters for one egress port."""

    def __init__(self) -> None:
        self.frames_sent = 0
        self.bytes_sent = 0
        self.busy_ns = 0
        self.guard_band_blocks = 0
        self.cbs_blocks = 0
        self.max_backlog_frames = 0


class EgressPort:
    """One directed link's transmitter."""

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        gcl: PortGcl,
        clock: Clock,
        deliver: DeliverFn,
        shapers: Optional[Dict[int, CreditBasedShaper]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._sim = sim
        self._link = link
        self._clock = clock
        self._deliver = deliver
        self._shapers = shapers or {}
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._tracing = self._tracer.enabled
        self._link_label = f"{link.src}->{link.dst}"
        self._queues: List[List[SimFrame]] = [[] for _ in range(8)]
        self._nonempty = 0  # bit q set: queue q holds frames
        self._backlog = 0
        #: per queue, the finalized gate program (``None``: never opens)
        self._gates = [gcl.gate(queue) for queue in range(8)]
        self._cycle_ns = gcl.cycle_ns
        #: payload bytes -> (wire bytes, wire time on this link)
        self._wire: Dict[int, Tuple[int, int]] = {}
        #: frames on the wire, oldest first: one link never reorders
        self._in_flight: Deque[SimFrame] = deque()
        self._busy_until = 0
        self._wake_at: Optional[int] = None
        self.stats = PortStats()

    # ------------------------------------------------------------------
    def enqueue(self, frame: SimFrame) -> None:
        """A frame arrived for this port (from a talker or switch fabric)."""
        if self._tracing:
            self._trace_frame("frame.enqueue", frame)
        fifo = self._queues[frame.priority]
        if not fifo:
            self._nonempty |= 1 << frame.priority
        fifo.append(frame)
        self._backlog += 1
        if self._backlog > self.stats.max_backlog_frames:
            self.stats.max_backlog_frames = self._backlog
        shaper = self._shapers.get(frame.priority)
        if shaper is not None and self._sim.now >= self._busy_until:
            shaper.on_wait_start(self._sim.now)
        self._try_transmit()

    def queued_frames(self) -> int:
        return self._backlog

    # ------------------------------------------------------------------
    def _try_transmit(self) -> None:
        now = self._sim.now
        if now < self._busy_until or not self._nonempty:
            return  # _on_tx_done / enqueue will re-invoke
        local = self._clock.local(now)
        cycle = self._cycle_ns
        tau = local % cycle
        base = local - tau
        # earliest local gate change and earliest shaper eligibility
        wake_local: Optional[int] = None
        wake_global: Optional[int] = None
        queues = self._queues
        for queue_id in _BY_PRIORITY[self._nonempty]:
            gate = self._gates[queue_id]
            if gate is None:
                boundary = local + cycle
            else:
                starts, ends, owners = gate
                index = bisect_right(starts, tau) - 1
                if index < 0 or tau >= ends[index]:
                    # closed until the next window opens
                    index += 1
                    boundary = base + (starts[index] if index < len(starts)
                                       else cycle + starts[0])
                else:
                    boundary = base + ends[index]
                    fifo = queues[queue_id]
                    position = self._select(fifo, owners[index])
                    if position >= 0:
                        frame = fifo[position]
                        wire = self._wire.get(frame.payload_bytes)
                        if wire is None:
                            wire = self._wire[frame.payload_bytes] = (
                                frame.wire_bytes,
                                self._link.transmission_ns(frame.wire_bytes),
                            )
                        shaper = self._shapers.get(queue_id)
                        if local + wire[1] > boundary:
                            # Guard band: would overrun the window; a
                            # shorter frame of the same queue cannot jump
                            # it (FIFO per stream), so wait.
                            self.stats.guard_band_blocks += 1
                        elif shaper is not None and not shaper.can_send(now):
                            self.stats.cbs_blocks += 1
                            eligible = shaper.eligible_at(now)
                            if wake_global is None or eligible < wake_global:
                                wake_global = eligible
                            continue
                        else:
                            self._transmit(queue_id, position, frame, wire)
                            return
            if wake_local is None or boundary < wake_local:
                wake_local = boundary
        self._schedule_wake(wake_local, wake_global)

    @staticmethod
    def _select(fifo: List[SimFrame], owner: Optional[str]) -> int:
        """Position of the frame an ``owner``'s window serves: the head
        of the queue for an unowned window, else the owner's oldest
        frame; -1 if there is none."""
        if owner is None:
            return 0
        for position, frame in enumerate(fifo):
            if frame.stream == owner:
                return position
        return -1

    def _transmit(self, queue_id: int, position: int, frame: SimFrame,
                  wire: Tuple[int, int]) -> None:
        now = self._sim.now
        wire_bytes, duration = wire
        fifo = self._queues[queue_id]
        del fifo[position]
        if not fifo:
            self._nonempty &= ~(1 << queue_id)
        self._backlog -= 1
        if self._tracing:
            # The dequeue instant IS the transmission start under strict
            # priority (selection happens at gate evaluation); one event
            # carries both, with the wire time as an attribute.
            self._trace_frame("frame.transmit", frame, queue=queue_id,
                              duration_ns=duration)
        shaper = self._shapers.get(queue_id)
        if shaper is not None:
            shaper.on_transmit(now, duration)
            if not fifo:
                shaper.on_queue_empty(now)
        self._busy_until = now + duration
        stats = self.stats
        stats.frames_sent += 1
        stats.bytes_sent += wire_bytes
        stats.busy_ns += duration
        self._in_flight.append(frame)
        self._sim.at(self._busy_until + self._link.propagation_ns, self._arrive)
        self._sim.at(self._busy_until, self._on_tx_done)

    def _arrive(self) -> None:
        """The oldest frame on the wire reached the far end."""
        self._deliver(self._in_flight.popleft(), self._sim.now)

    def _trace_frame(self, event: str, frame: SimFrame, **extra) -> None:
        """Record one per-hop frame event, stamped with simulated time."""
        self._tracer.event(
            event,
            ts_ns=self._sim.now,
            frame_id=frame.frame_id,
            stream=frame.stream,
            message_id=frame.message_id,
            frame_index=frame.frame_index,
            link=self._link_label,
            hop=frame.hop,
            **extra,
        )

    def _on_tx_done(self) -> None:
        now = self._sim.now
        for queue_id, shaper in self._shapers.items():
            if self._queues[queue_id]:
                shaper.on_wait_start(now)
        self._try_transmit()

    def _schedule_wake(self, wake_local: Optional[int],
                       wake_global: Optional[int]) -> None:
        if wake_local is not None:
            # to_global is monotone: the earliest local boundary is the
            # earliest global one
            wake_local = self._clock.to_global(wake_local)
            if wake_global is None or wake_local < wake_global:
                wake_global = wake_local
        if wake_global is None:
            return
        wake = max(wake_global, self._sim.now + 1)
        if self._wake_at is not None and self._wake_at <= wake and self._wake_at > self._sim.now:
            return  # an earlier (or equal) wake is already pending
        self._wake_at = wake
        self._sim.at(wake, self._on_wake)

    def _on_wake(self) -> None:
        if self._wake_at == self._sim.now:
            self._wake_at = None
        self._try_transmit()
