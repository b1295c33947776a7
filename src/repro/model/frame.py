"""Per-link frame instances — the unit the scheduler places in time.

Paper Sec. IV-A: the frames of stream ``s_i`` on link ``<v_a, v_b>`` form
the ordered list ``F_{s_i,<v_a,v_b>}``, *including* the extra frames added
by prudent reservation (Alg. 1).  Each frame carries ``(φ, T, L)`` — the
scheduled slot start, the repetition period, and the wire time.

Before solving, ``φ`` is unknown: :class:`FrameVar` names the variable.
After solving, :class:`FrameSlot` records the concrete offset.
"""

from __future__ import annotations

from collections import namedtuple
from typing import List, Optional, Sequence, Tuple

from repro.model.stream import Stream, StreamType
from repro.model.topology import Link


_new_record = tuple.__new__


class FrameVar(namedtuple(
    "FrameVar", "stream link index period_ns duration_ns extra"
)):
    """An unscheduled frame: identity plus the constants ``T`` and ``L``.

    stream, link
        The stream's name and the link's ``<v_a, v_b>`` key.
    index
        ``j`` — position in ``F_{s,<a,b>}`` (0-based).
    period_ns
        ``T`` — the stream period / minimum inter-event time.
    duration_ns
        ``L`` — wire time of this frame on this link, already rounded up
        to the link's time unit.
    extra
        True for frames added by prudent reservation: they repeat with the
        stream's period but carry payload only when ECT displaced an
        earlier slot.

    An immutable, hashable record — a validated tuple, built per frame
    per placement, so it costs a tuple rather than a dataclass.  Every
    way in (the constructor, ``_make``, ``_replace``, unpickling)
    re-checks it.
    """

    __slots__ = ()

    def __new__(
        cls, stream: str, link: Tuple[str, str], index: int,
        period_ns: int, duration_ns: int, extra: bool = False,
    ) -> "FrameVar":
        record = (stream, link, index, period_ns, duration_ns, extra)
        if index < 0 or duration_ns <= 0 or period_ns < duration_ns:
            name = _new_record(cls, record).var_name
            if index < 0:
                raise ValueError(f"{name}: negative frame index")
            if duration_ns <= 0:
                raise ValueError(f"{name}: duration must be positive")
            raise ValueError(
                f"{name}: frame of {duration_ns} ns cannot fit "
                f"in period {period_ns} ns"
            )
        return _new_record(cls, record)

    @classmethod
    def _make(cls, iterable) -> "FrameVar":
        return cls(*iterable)

    @property
    def var_name(self) -> str:
        """Unique solver-variable name for this frame's ``φ``."""
        a, b = self.link
        return f"phi[{self.stream}][{a}->{b}][{self.index}]"

    def scheduled(self, offset_ns: int) -> "FrameSlot":
        """Bind a concrete offset, producing a :class:`FrameSlot`."""
        if offset_ns < 0:
            # the rest was checked when this frame was built
            raise ValueError(f"{self.stream}[{self.index}]: negative offset")
        stream, link, index, period_ns, duration_ns, extra = self
        return _new_record(FrameSlot, (
            stream, link, index, offset_ns, period_ns, duration_ns, extra
        ))


class FrameSlot(namedtuple(
    "FrameSlot", "stream link index offset_ns period_ns duration_ns extra"
)):
    """A scheduled frame: ``(φ, T, L)`` with ``φ`` concrete.

    The slot occupies ``[offset, offset + duration)`` and repeats every
    ``period`` for the lifetime of the schedule.  An immutable, hashable
    record like :class:`FrameVar`, checked on every way in.
    """

    __slots__ = ()

    def __new__(
        cls, stream: str, link: Tuple[str, str], index: int,
        offset_ns: int, period_ns: int, duration_ns: int,
        extra: bool = False,
    ) -> "FrameSlot":
        if offset_ns < 0:
            raise ValueError(f"{stream}[{index}]: negative offset")
        if duration_ns <= 0:
            raise ValueError(f"{stream}[{index}]: duration must be positive")
        return _new_record(cls, (
            stream, link, index, offset_ns, period_ns, duration_ns, extra
        ))

    @classmethod
    def _make(cls, iterable) -> "FrameSlot":
        return cls(*iterable)

    @property
    def end_ns(self) -> int:
        """End of the slot's first occurrence."""
        return self.offset_ns + self.duration_ns

    def occurrence(self, k: int) -> Tuple[int, int]:
        """Interval ``[start, end)`` of the k-th periodic repetition."""
        start = self.offset_ns + k * self.period_ns
        return (start, start + self.duration_ns)

    def occurrences_until(self, horizon_ns: int) -> List[Tuple[int, int]]:
        """All repetitions whose start lies in ``[0, horizon)``."""
        result = []
        k = 0
        while True:
            start, end = self.occurrence(k)
            if start >= horizon_ns:
                return result
            result.append((start, end))
            k += 1

    def overlaps(self, other: "FrameSlot", hyperperiod_ns: int) -> bool:
        """Do any periodic repetitions of the two slots intersect in time?

        Checked over one hyperperiod, which is sufficient because both
        patterns repeat with periods dividing it.
        """
        for a_start, a_end in self.occurrences_until(hyperperiod_ns):
            for b_start, b_end in other.occurrences_until(hyperperiod_ns):
                if a_start < b_end and b_start < a_end:
                    return True
        return False


def build_frame_vars(
    stream: Stream,
    link: Link,
    count: int,
    guard_margin_ns: int = 0,
    extra_durations_ns: Optional[Sequence[int]] = None,
) -> List[FrameVar]:
    """The frame list ``F_{s,<a,b>}`` for a stream on one of its links.

    ``count`` is the total number of frames including prudent-reservation
    extras; the first ``stream.frames_per_period()`` carry the message,
    the rest are extras.  Each frame's ``L`` is one MTU-or-less payload's
    wire time, plus the guard margin, rounded up to the link time unit.

    ``guard_margin_ns`` inflates every slot beyond the wire time so the
    synthesized gate windows tolerate clock error between the talker and
    the port — the slack real CNCs budget for 802.1AS residual error.

    ``extra_durations_ns`` explicitly sizes the extra slots (the robust
    reservation mode's event-sized windows); when absent, extras inherit
    the largest message-frame size (the paper's Alg. 1 sizing).
    """
    payload_wire = stream.wire_bytes_per_frame()
    base = len(payload_wire)
    if count < base:
        raise ValueError(
            f"{stream.name} on {link}: count {count} below the "
            f"{base} frames the message needs"
        )
    if guard_margin_ns < 0:
        raise ValueError(f"negative guard margin {guard_margin_ns}")
    if extra_durations_ns is not None and len(extra_durations_ns) != count - base:
        raise ValueError(
            f"{stream.name} on {link}: {len(extra_durations_ns)} extra "
            f"durations for {count - base} extra frames"
        )
    # Probabilistic slots carry a non-preemption blocking pad: when the
    # reserved slot overlaps a shared TCT slot (superposition), a TCT
    # frame may already be on the wire when the event's frame arrives,
    # consuming up to one maximal frame time of the window.  Sizing the
    # slot as L + MTU keeps the possibility's slot *chain* intact across
    # hops; without it, one blocked hop can cascade into missing the next
    # hop's reserved window entirely (a full quantization step of delay).
    blocking_pad = 0
    if stream.type == StreamType.PROB:
        from repro.model.units import ETHERNET_MTU_BYTES, wire_bytes

        blocking_pad = link.transmission_ns(wire_bytes(ETHERNET_MTU_BYTES))
    name, key, period_ns = stream.name, link.key, stream.period_ns
    frames = []
    for j in range(count):
        if j < base:
            duration = link.transmission_ns(payload_wire[j])
        elif extra_durations_ns is not None:
            duration = extra_durations_ns[j - base]
        else:
            duration = link.transmission_ns(max(payload_wire))
        duration += guard_margin_ns + blocking_pad
        remainder = duration % link.time_unit_ns
        if remainder:
            duration += link.time_unit_ns - remainder
        frames.append(FrameVar(name, key, j, period_ns, duration, j >= base))
    return frames
