"""Structured event journal: the forensic record of runtime decisions.

Counters answer "how many"; the event log answers "which, when, and
why".  An :class:`EventLog` records :class:`Event` objects — a kind, an
integer-ns timestamp, a monotone sequence number, optional trace
correlation, and JSON-able attributes — into a bounded ring, exactly
the :class:`~repro.obs.Tracer` design: injectable clock, oldest-first
eviction with a drop count, a :data:`NULL_EVENT_LOG` no-op for
uninstrumented runs.

Event kinds the runtime emits (the journal schema):

==========================  ============================================
kind                        attributes
==========================  ============================================
``admission.decision``      ``request``, ``op``, ``accepted``, ``rung``,
                            ``reason`` (rejections), ``latency_ms``,
                            ``store_version``
``admission.cas_retry``     ``attempt``, ``expected_version``
``admission.cas_exhausted`` ``attempts``, ``requests``
``solver.abandoned``        ``timeout_s`` — a solver thread outlived
                            its rung budget and was orphaned
==========================  ============================================

Events serialize one-per-line (JSONL) via :func:`save_events` /
:func:`load_events`; ``repro events tail|query`` reads them back.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional

__all__ = [
    "Event",
    "EventLog",
    "NULL_EVENT_LOG",
    "NullEventLog",
    "filter_events",
    "load_events",
    "save_events",
]


@dataclass
class Event:
    """One journal entry.  Attribute values must be JSON-able scalars."""

    seq: int
    kind: str
    ts_ns: int
    trace_id: Optional[int] = None
    span_id: Optional[int] = None
    attributes: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "seq": self.seq, "kind": self.kind, "ts_ns": self.ts_ns,
        }
        if self.trace_id is not None:
            data["trace_id"] = self.trace_id
        if self.span_id is not None:
            data["span_id"] = self.span_id
        if self.attributes:
            data["attributes"] = self.attributes
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Event":
        return cls(
            seq=int(data["seq"]),
            kind=str(data["kind"]),
            ts_ns=int(data["ts_ns"]),
            trace_id=(
                int(data["trace_id"]) if "trace_id" in data else None
            ),
            span_id=int(data["span_id"]) if "span_id" in data else None,
            attributes=dict(data.get("attributes", {})),
        )


class EventLog:
    """Bounded in-process event journal with a monotone sequence.

    ``clock`` must return integer nanoseconds (default
    :func:`time.perf_counter_ns`); once the ring is full the oldest
    event is dropped and counted in :attr:`dropped` — the sequence
    numbers make the gap visible to readers.
    """

    #: Same contract as ``Tracer.enabled``: hot paths may skip argument
    #: packing entirely when the journal is the null singleton.
    enabled = True

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        max_events: int = 65536,
    ) -> None:
        if max_events < 1:
            raise ValueError("event log needs room for at least one event")
        self._clock = clock
        self._ring: Deque[Event] = deque(maxlen=max_events)
        self._max_events = max_events
        self._lock = threading.Lock()
        self._seq = 0
        self.dropped = 0

    def emit(
        self,
        kind: str,
        ts_ns: Optional[int] = None,
        trace_id: Optional[int] = None,
        span_id: Optional[int] = None,
        **attributes: object,
    ) -> Event:
        """Append one event; sequence numbers are assigned under lock."""
        stamp = self._clock() if ts_ns is None else ts_ns
        with self._lock:
            self._seq += 1
            event = Event(
                seq=self._seq, kind=kind, ts_ns=stamp,
                trace_id=trace_id, span_id=span_id,
                attributes=dict(attributes),
            )
            if len(self._ring) == self._max_events:
                self.dropped += 1
            self._ring.append(event)
        return event

    def events(self) -> List[Event]:
        """Recorded events, oldest first (bounded by ``max_events``)."""
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self.dropped = 0

    def __len__(self) -> int:
        return len(self._ring)


class NullEventLog(EventLog):
    """The disabled journal: every operation is a no-op."""

    enabled = False
    dropped = 0

    def __init__(self) -> None:  # no ring, no clock, no locks
        pass

    def emit(self, kind, ts_ns=None, trace_id=None, span_id=None,
             **attributes):
        return None

    def events(self) -> List[Event]:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


#: Process-wide disabled journal; safe to share (it holds no state).
NULL_EVENT_LOG = NullEventLog()


def filter_events(
    events: Iterable[Event],
    kind: Optional[str] = None,
    trace_id: Optional[int] = None,
    since_seq: int = 0,
    **attr_equals: object,
) -> List[Event]:
    """Events matching every given criterion, in journal order.

    ``kind`` may be an exact kind or a ``prefix.`` (trailing dot) to
    select a family, e.g. ``"admission."``; ``attr_equals`` matches
    attribute values exactly.
    """
    selected = []
    for event in events:
        if event.seq <= since_seq:
            continue
        if kind is not None:
            if kind.endswith("."):
                if not event.kind.startswith(kind):
                    continue
            elif event.kind != kind:
                continue
        if trace_id is not None and event.trace_id != trace_id:
            continue
        if any(
            event.attributes.get(key) != value
            for key, value in attr_equals.items()
        ):
            continue
        selected.append(event)
    return selected


def save_events(path: str, events: Iterable[Event]) -> int:
    """Write events as JSONL; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
            count += 1
    return count


def load_events(path: str) -> List[Event]:
    """Read a JSONL journal back into :class:`Event` objects."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(Event.from_dict(json.loads(line)))
    return events
