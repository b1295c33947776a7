"""Discrete-event simulation engine with integer-nanosecond time.

A minimal, deterministic event loop: a binary heap of ``(time, seq,
callback)`` entries.  The sequence number makes same-timestamp events
fire in scheduling order, so runs are exactly reproducible — the property
the paper's FPGA toolkit gets from hardware timestamping, we get from
determinism.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Tuple


class SimulationError(RuntimeError):
    """Raised on misuse of the engine (e.g. scheduling in the past)."""


class Simulator:
    """The event loop.  All times are absolute integer nanoseconds."""

    def __init__(self) -> None:
        #: current simulation time in nanoseconds; only the loop moves it
        self.now = 0
        self._seq = 0
        self._heap: List[Tuple[int, int, Callable[[], None]]] = []
        self._running = False
        self.num_events = 0

    def at(self, time_ns: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute time ``time_ns``."""
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at {time_ns} ns; now is {self.now} ns"
            )
        heapq.heappush(self._heap, (time_ns, self._seq, callback))
        self._seq += 1

    def after(self, delay_ns: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` after a relative delay."""
        if delay_ns < 0:
            raise SimulationError(f"negative delay {delay_ns} ns")
        self.at(self.now + delay_ns, callback)

    def run_until(self, end_ns: int) -> None:
        """Process events with time <= ``end_ns``; leave later ones queued."""
        if self._running:
            raise SimulationError("run_until() re-entered from a callback")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap and heap[0][0] <= end_ns:
                time_ns, _, callback = pop(heap)
                self.now = time_ns
                self.num_events += 1
                callback()
            self.now = max(self.now, end_ns)
        finally:
            self._running = False

    def run(self) -> None:
        """Process every queued event (and those they spawn) until empty.

        Only safe when the event population is finite — sources that
        reschedule themselves forever must be bounded by ``run_until``.
        """
        if self._running:
            raise SimulationError("run() re-entered from a callback")
        self._running = True
        try:
            while self._heap:
                time_ns, _, callback = heapq.heappop(self._heap)
                self.now = time_ns
                self.num_events += 1
                callback()
        finally:
            self._running = False

    def pending(self) -> int:
        """Number of queued events."""
        return len(self._heap)
