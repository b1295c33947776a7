"""Schedule result model and the independent constraint validator.

Every scheduler backend in this library — the SMT scheduler, the
incremental-backtracking heuristic, and the PERIOD/AVB baselines —
produces a :class:`NetworkSchedule`.  :func:`validate` re-checks the
semantics of paper Eqs. 1-7 directly on the slot table, so a bug in any
backend is caught before a schedule reaches GCL synthesis or simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.probabilistic import possibility_names
from repro.model.frame import FrameSlot
from repro.model.stream import EctStream, Stream, StreamType, may_overlap
from repro.model.topology import Topology
from repro.model.units import format_ns, hyperperiod


class ScheduleError(ValueError):
    """Raised when a schedule violates the E-TSN constraint semantics."""


class InfeasibleError(RuntimeError):
    """Raised when a scheduler backend cannot satisfy the requirements.

    An earliest-fit edit (:func:`repro.core.incremental.repair`) says
    where it failed: ``stream`` names the stream that did not fit and
    ``link`` the key of the link it failed on, ``None`` when no one
    link is at fault (a possibility's Eq. 4 budget) or when the raiser
    does not know; ``gap`` names streams looser than the failing one
    whose release lets it in — the failing frame's *gap cut* (the
    streams overlapping one offset of its window there) or, when it has
    none, the failing stream's *stream cut* (the looser streams on its
    route that its placement overlaps once all of them are released) —
    and is empty when releasing looser streams does not help.
    """

    def __init__(
        self, *args, stream: Optional[str] = None,
        link: Optional[Tuple[str, str]] = None,
        gap: Tuple[str, ...] = (),
    ) -> None:
        super().__init__(*args)
        self.stream, self.link, self.gap = stream, link, gap


class CertifiedInfeasibleError(InfeasibleError):
    """Infeasibility whose UNSAT proof passed independent checking.

    Raised instead of the plain :class:`InfeasibleError` when the SMT
    backend ran with proof logging: the attached certificate was
    replayed by :mod:`repro.check.proof` before this exception left the
    scheduler, so the rejection is machine-checked, not just asserted.
    """

    def __init__(self, message: str, certificate=None, proof_steps: int = 0):
        super().__init__(message)
        self.certificate = certificate
        self.proof_steps = proof_steps


@dataclass
class NetworkSchedule:
    """A complete joint schedule for one TSN network.

    slots
        ``(stream name, link key) -> ordered frame slots`` with concrete
        offsets; extras from prudent reservation included.
    streams
        All scheduled streams (TCT and probabilistic possibilities).
    ect_streams
        The original ECT specifications, kept for the simulator's event
        sources and for GCL synthesis.

    A schedule is a value: nothing mutates ``streams``, ``slots`` or a
    slot list once the object is constructed — an edit derives a new
    schedule (:mod:`repro.core.incremental`).  That is what lets the two
    derived indexes below be built once, on first use, and lets a
    derived schedule share every list its edit did not touch with the
    schedule it came from.
    """

    topology: Topology
    streams: List[Stream]
    slots: Dict[Tuple[str, Tuple[str, str]], List[FrameSlot]]
    ect_streams: List[EctStream] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)
    #: the derived indexes behind the two properties below; ``None``
    #: until first read, unless :meth:`derive` handed them in.
    _by_link: Optional[Dict[Tuple[str, str], List[FrameSlot]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _by_name: Optional[Dict[str, Stream]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    def derive(
        self,
        streams: List[Stream],
        slots: Dict[Tuple[str, Tuple[str, str]], List[FrameSlot]],
        ect_streams: List[EctStream],
        by_link: Dict[Tuple[str, str], List[FrameSlot]],
        by_name: Dict[str, Stream],
    ) -> "NetworkSchedule":
        """The schedule an edit of this one produced, with its indexes
        handed in instead of rebuilt.

        For :mod:`repro.core.incremental` only.  The caller vouches that
        ``by_link`` / ``by_name`` are exactly what the lazy build would
        make of ``slots`` / ``streams``; :func:`validate` never reads
        them, so a wrong index cannot hide from it.
        """
        result = NetworkSchedule(
            topology=self.topology, streams=streams, slots=slots,
            ect_streams=ect_streams, meta=dict(self.meta),
        )
        result._by_link = by_link
        result._by_name = by_name
        return result

    @property
    def slots_by_link(self) -> Dict[Tuple[str, str], List[FrameSlot]]:
        """``link key -> every slot on that link``, in slot-table order
        (the order ``slots`` yields them).  Read-only, like ``slots``."""
        index = self._by_link
        if index is None:
            index = {}
            for (_, link_key), frames in self.slots.items():
                if frames:
                    index.setdefault(link_key, []).extend(frames)
            self._by_link = index
        return index

    @property
    def streams_by_name(self) -> Dict[str, Stream]:
        """``stream name -> stream``, in ``streams`` order.  Read-only."""
        index = self._by_name
        if index is None:
            index = self._by_name = {s.name: s for s in self.streams}
        return index

    def stream(self, name: str) -> Stream:
        try:
            return self.streams_by_name[name]
        except KeyError:
            raise KeyError(
                f"no stream named {name!r} in this schedule"
            ) from None

    def stream_slots(self, stream_name: str, link_key: Tuple[str, str]) -> List[FrameSlot]:
        return self.slots[(stream_name, link_key)]

    def link_slots(self, link_key: Tuple[str, str]) -> List[FrameSlot]:
        """All slots on one directed link, sorted by offset."""
        return sorted(
            self.slots_by_link.get(link_key, ()),
            key=lambda f: (f.offset_ns, f.stream, f.index),
        )

    def possibilities_of(self, ect_name: str) -> List[Stream]:
        """The scheduled probabilistic streams of one ECT stream, by
        name lookup — no scan over ``streams``."""
        ect = next((e for e in self.ect_streams if e.name == ect_name), None)
        if ect is None:
            return []
        by_name = self.streams_by_name
        return [
            by_name[name] for name in possibility_names(ect)
            if name in by_name and by_name[name].parent == ect_name
        ]

    @property
    def hyperperiod_ns(self) -> int:
        """LCM of all scheduled periods (the GCL cycle).

        A schedule with no time-triggered slots at all (e.g. the AVB
        baseline with only event traffic) falls back to the ECT streams'
        minimum inter-event times so GCL synthesis still has a cycle.
        """
        if self.streams:
            return hyperperiod(s.period_ns for s in self.streams)
        if self.ect_streams:
            return hyperperiod(e.min_interevent_ns for e in self.ect_streams)
        raise ValueError("schedule is empty: no streams and no ECT")

    def tct_streams(self) -> List[Stream]:
        return [s for s in self.streams if s.type == StreamType.DET]

    def probabilistic_streams(self) -> List[Stream]:
        return [s for s in self.streams if s.type == StreamType.PROB]

    def scheduled_latency_ns(self, stream_name: str) -> int:
        """Worst-case end-to-end latency implied by the slot table.

        For TCT: last-frame reception minus first-frame sending.  For a
        probabilistic stream: last-frame reception minus the occurrence
        time (paper Eq. 4's two branches).
        """
        return _slot_table_latency_ns(self.slots, self.stream(stream_name))

    def ect_guarantee_ns(self, ect_name: str) -> int:
        """Formal worst-case delivery bound for one ECT stream's events.

        Two terms:

        1. quantization delay — an event at time ``t`` is carried by the
           next possibility, at most ``T/N`` later (paper Sec. III-B);
        2. the worst possibility's scheduled slot chain (Eqs. 2/4/7).

        Non-preemption blocking — a term the paper's formalization
        omits — is absorbed at scheduling time: every probabilistic slot
        is padded by one MTU wire time (see
        :func:`repro.model.frame.build_frame_vars`), because a reserved
        EP slot may *overlap* a shared TCT slot (the superposition
        design) whose frame is already mid-transmission when the event's
        frame arrives.  Without the pad, one blocked hop cascades into
        missing the next hop's reserved window — up to a full
        quantization step of extra delay.

        The bound holds for any occurrence time and is realized by the
        ``etsn-strict`` GCL (best-effort frames are also covered: they
        are at most one MTU).  The default ``etsn`` GCL is empirically
        far faster at run time.
        """
        possibilities = [
            s for s in self.streams
            if s.type == StreamType.PROB and s.parent == ect_name
        ]
        if not possibilities:
            raise KeyError(f"no probabilistic streams for ECT {ect_name!r}")
        step_ns = possibilities[0].period_ns // len(possibilities)
        worst = max(
            self.scheduled_latency_ns(ps.name) for ps in possibilities
        )
        return step_ns + worst

    def describe(self) -> str:
        """Per-link text table of the schedule (paper Fig. 4/6 style)."""
        lines = [
            f"NetworkSchedule: {len(self.streams)} streams, "
            f"hyperperiod {format_ns(self.hyperperiod_ns)}"
        ]
        by_link: Dict[Tuple[str, str], List[FrameSlot]] = {}
        for (_, key), frames in self.slots.items():
            by_link.setdefault(key, []).extend(frames)
        for key in sorted(by_link):
            lines.append(f"  link <{key[0]},{key[1]}>")
            for slot in sorted(by_link[key], key=lambda f: (f.offset_ns, f.stream)):
                tag = " extra" if slot.extra else ""
                lines.append(
                    f"    [{format_ns(slot.offset_ns):>10} +{format_ns(slot.duration_ns)}] "
                    f"{slot.stream}[{slot.index}] /T={format_ns(slot.period_ns)}{tag}"
                )
        return "\n".join(lines)


def _slot_table_latency_ns(slots, stream: Stream) -> int:
    last_link = stream.path[-1]
    last = slots[(stream.name, last_link.key)][-1]
    finish = last.end_ns + last_link.propagation_ns
    if stream.type == StreamType.PROB:
        return finish - stream.occurrence_ns
    return finish - slots[(stream.name, stream.path[0].key)][0].offset_ns


# ----------------------------------------------------------------------
# periodic-interval arithmetic
# ----------------------------------------------------------------------
def periodic_overlap(
    offset_a: int, len_a: int, period_a: int,
    offset_b: int, len_b: int, period_b: int,
) -> bool:
    """Do ``[offset_a + x*period_a, +len_a)`` and the b-pattern intersect?

    Classic CRT argument: the achievable differences ``offset_b - offset_a
    + y*period_b - x*period_a`` form the residue class of
    ``offset_b - offset_a`` modulo ``g = gcd(period_a, period_b)``; the
    patterns overlap iff some member of that class lies in
    ``(-len_b, len_a)``.
    """
    g = math.gcd(period_a, period_b)
    r = (offset_b - offset_a) % g
    return r < len_a or r > g - len_b


def never_clear_message(len_a: int, len_b: int, g: int) -> str:
    return (
        f"patterns of lengths {len_a}+{len_b} can never avoid each other "
        f"under gcd period {g}"
    )


def earliest_gap_shift(
    offset_a: int, len_a: int, period_a: int,
    offset_b: int, len_b: int, period_b: int,
) -> int:
    """Smallest ``delta >= 0`` so that shifting pattern *a* later by
    ``delta`` removes the overlap with pattern *b*.

    Returns 0 when there is no overlap.  Raises :class:`ScheduleError`
    when no shift can ever separate them (``len_a + len_b > gcd``).
    """
    g = math.gcd(period_a, period_b)
    if len_a + len_b > g:
        raise ScheduleError(never_clear_message(len_a, len_b, g))
    r = (offset_b - offset_a) % g
    if len_a <= r <= g - len_b:
        return 0
    # Shifting a later by delta turns r into (r - delta) mod g; aim for
    # the start of the free band, r' = g - len_b.
    return (r + len_b) % g


# ----------------------------------------------------------------------
# validation of Eqs. 1-7
# ----------------------------------------------------------------------
def validate(schedule: NetworkSchedule) -> None:
    """Re-check every constraint class on a finished schedule.

    Raises :class:`ScheduleError` with a precise message on the first
    violation.  This validator is intentionally independent of all solver
    code paths: it recomputes the semantics from ``streams`` and the slot
    table alone, and never reads the schedule's derived indexes — so it
    also re-checks whoever built or carried those.
    """
    _validate_completeness(schedule)
    _validate_time_constraints(schedule)
    _validate_sequencing(schedule)
    _validate_e2e(schedule)
    _validate_overlap(schedule)
    _validate_adjacent_links(schedule)
    _validate_alignment(schedule)


def validate_delta(schedule: NetworkSchedule, changed_names) -> None:
    """Validate only the constraints that involve the changed streams.

    Sound shortcut for incremental edits: when ``schedule`` was derived
    from a fully validated schedule by adding/re-placing exactly the
    streams in ``changed_names`` (all other slots untouched), every
    constraint class is either per-stream (windows, sequencing, e2e,
    adjacency, alignment, completeness — unaffected streams still hold
    by assumption) or pairwise on a link (overlap — pairs of unchanged
    streams still hold by assumption).  Checking the changed streams
    per-stream plus changed-vs-all overlap therefore decides exactly
    what :func:`validate` would, at a cost proportional to the edit
    instead of the whole schedule.

    "Untouched" is about slots, not about what the edit released: a
    stream re-placed onto exactly the slots it had (same stream, equal
    slot lists) satisfies every constraint it satisfied before, so a
    caller may leave it out of ``changed_names``.

    Unlike :func:`validate` this trusts the schedule's derived indexes
    (to find the changed streams and their link neighbours).
    """
    by_name = schedule.streams_by_name
    names = sorted(set(changed_names))
    missing = [name for name in names if name not in by_name]
    if missing:
        raise ScheduleError(
            f"validate_delta: changed streams {missing} are not "
            f"in the schedule"
        )
    streams = [by_name[name] for name in names]
    _validate_completeness(schedule, streams)
    _validate_time_constraints(schedule, streams)
    _validate_sequencing(schedule, streams)
    _validate_e2e(schedule, streams)
    _validate_overlap_delta(schedule, streams)
    _validate_adjacent_links(schedule, streams)
    _validate_alignment(schedule, streams)


def moved_streams(
    before: NetworkSchedule, after: NetworkSchedule, streams
) -> List[str]:
    """The names of ``streams`` (streams of ``after``) that ``after``
    does not hold exactly as ``before`` did: new to ``before``, another
    stream under the name, or another slot list on some link.  The rest
    are untouched in the sense of :func:`validate_delta`."""
    old = before.streams_by_name
    return [
        stream.name for stream in streams
        if old.get(stream.name) is not stream or any(
            after.slots.get((stream.name, link.key))
            != before.slots.get((stream.name, link.key))
            for link in stream.path
        )
    ]


def _validate_overlap_delta(schedule: NetworkSchedule, changed) -> None:
    """Eq. 5 restricted to pairs with at least one changed stream, each
    pair once: per link, every changed stream's slots against the
    link's unchanged slots and against the slots of the changed streams
    before it.  A violation names its two slots in slot-table order, as
    :func:`validate` does."""
    by_name = schedule.streams_by_name
    slots = schedule.slots
    movers: Dict[Tuple[str, str], List[Stream]] = {}
    for stream in changed:
        for link in stream.path:
            movers.setdefault(link.key, []).append(stream)
    for key, streams in movers.items():
        frames = schedule.slots_by_link.get(key, ())
        if len(streams) == 1:
            # no copy: _overlapping_pair() exempts the stream's own
            # slots as it exempts any pair of one stream
            fixed = frames
        else:
            names = {s.name for s in streams}
            fixed = [f for f in frames if f.stream not in names]
        earlier: List[FrameSlot] = []
        for stream in streams:
            own = slots[(stream.name, key)]
            pair = _overlapping_pair(stream, own, fixed, by_name) or (
                _overlapping_pair(stream, own, earlier, by_name)
            )
            if pair is not None:
                a, b = sorted(pair, key=frames.index)
                raise ScheduleError(
                    f"link <{key[0]},{key[1]}>: {a.stream}[{a.index}] and "
                    f"{b.stream}[{b.index}] overlap but are not allowed to"
                )
            earlier.extend(own)


def _overlapping_pair(stream: Stream, own, others, by_name):
    """The first (own slot, other slot) pair that overlaps but may not,
    or ``None``; pairs of ``stream`` with itself are exempt (sequencing
    and the window checks cover them)."""
    gcd = math.gcd
    for slot in own:
        offset, period = slot.offset_ns, slot.period_ns
        duration = slot.duration_ns
        for other in others:
            # periodic_overlap(), inline; who may overlap whom is only
            # asked of the few pairs that do
            g = gcd(period, other.period_ns)
            r = (other.offset_ns - offset) % g
            if (r < duration or r > g - other.duration_ns) and not (
                other.stream == stream.name
                or may_overlap(stream, by_name[other.stream])
            ):
                return slot, other
    return None


def _validate_completeness(schedule: NetworkSchedule, streams=None) -> None:
    for stream in schedule.streams if streams is None else streams:
        for link in stream.path:
            key = (stream.name, link.key)
            if key not in schedule.slots or not schedule.slots[key]:
                raise ScheduleError(f"{stream.name}: no slots on link {link}")
            base = stream.frames_per_period()
            if len(schedule.slots[key]) < base:
                raise ScheduleError(
                    f"{stream.name} on {link}: {len(schedule.slots[key])} slots "
                    f"but the message needs {base} frames"
                )


def _validate_time_constraints(schedule: NetworkSchedule, streams=None) -> None:
    """Paper Eq. 1 (window) and Eq. 2 (occurrence time)."""
    for stream in schedule.streams if streams is None else streams:
        # A probabilistic possibility with a late occurrence time may
        # spill into the next cycle (paper Fig. 6); its window widens to
        # ot + T.  The slot still repeats every T, modulo the cycle.
        slack = stream.occurrence_ns if stream.type == StreamType.PROB else 0
        for link in stream.path:
            for slot in schedule.slots[(stream.name, link.key)]:
                if slot.offset_ns < 0:
                    raise ScheduleError(f"{slot.stream}[{slot.index}]: negative offset")
                if slot.end_ns > slot.period_ns + slack:
                    raise ScheduleError(
                        f"{slot.stream}[{slot.index}] on {link}: slot "
                        f"[{slot.offset_ns},{slot.end_ns}) leaves window "
                        f"{slot.period_ns + slack}"
                    )
        if stream.type == StreamType.PROB:
            first = schedule.slots[(stream.name, stream.path[0].key)][0]
            if first.offset_ns < stream.occurrence_ns:
                raise ScheduleError(
                    f"{stream.name}: first slot at {first.offset_ns} precedes "
                    f"occurrence time {stream.occurrence_ns} (Eq. 2)"
                )


def _validate_sequencing(schedule: NetworkSchedule, streams=None) -> None:
    """Paper Eq. 3: frames of one stream leave a link in order."""
    for stream in schedule.streams if streams is None else streams:
        for link in stream.path:
            frames = schedule.slots[(stream.name, link.key)]
            for a, b in zip(frames, frames[1:]):
                if a.end_ns > b.offset_ns:
                    raise ScheduleError(
                        f"{stream.name} on {link}: frame {a.index} ends at "
                        f"{a.end_ns} after frame {b.index} starts at {b.offset_ns}"
                    )


def _validate_e2e(schedule: NetworkSchedule, streams=None) -> None:
    """Paper Eq. 4, tightened to count the last frame's wire time and
    propagation (reception-based latency, matching Sec. VI-A3)."""
    for stream in schedule.streams if streams is None else streams:
        latency = _slot_table_latency_ns(schedule.slots, stream)
        if latency > stream.e2e_ns:
            raise ScheduleError(
                f"{stream.name}: scheduled worst-case latency "
                f"{format_ns(latency)} exceeds budget {format_ns(stream.e2e_ns)}"
            )


def _validate_overlap(schedule: NetworkSchedule) -> None:
    """Paper Eq. 5 with the two E-TSN overlap exemptions."""
    streams = {s.name: s for s in schedule.streams}
    by_link: Dict[Tuple[str, str], List[FrameSlot]] = {}
    for (_, key), frames in schedule.slots.items():
        by_link.setdefault(key, []).extend(frames)
    gcd = math.gcd
    for key, frames in by_link.items():
        rows = [
            (f.offset_ns, f.duration_ns, f.period_ns, f, streams[f.stream])
            for f in frames
        ]
        for i, (offset_a, len_a, period_a, a, sa) in enumerate(rows, 1):
            for offset_b, len_b, period_b, b, sb in rows[i:]:
                # periodic_overlap(), inline; who may overlap whom is
                # only asked of the few pairs that do
                g = gcd(period_a, period_b)
                r = (offset_b - offset_a) % g
                if (r < len_a or r > g - len_b) and not (
                    sa.name == sb.name  # sequencing + window checks
                    or may_overlap(sa, sb)
                ):
                    raise ScheduleError(
                        f"link <{key[0]},{key[1]}>: {a.stream}[{a.index}] and "
                        f"{b.stream}[{b.index}] overlap but are not allowed to"
                    )


def _validate_adjacent_links(schedule: NetworkSchedule, streams=None) -> None:
    """Paper Eq. 7 with the prudent-reservation offset ``o``."""
    for stream in schedule.streams if streams is None else streams:
        for up, down in zip(stream.path, stream.path[1:]):
            up_frames = schedule.slots[(stream.name, up.key)]
            down_frames = schedule.slots[(stream.name, down.key)]
            o = max(len(up_frames) - len(down_frames), 0)
            for j, down_frame in enumerate(down_frames):
                # Surplus downstream slots (downstream-only sharing) pair
                # with the last upstream frame.
                partner = min(j + o, len(up_frames) - 1)
                up_frame = up_frames[partner]
                earliest = up_frame.end_ns + up.propagation_ns
                if down_frame.offset_ns < earliest:
                    raise ScheduleError(
                        f"{stream.name}: frame {j} on {down} starts at "
                        f"{down_frame.offset_ns} before upstream frame "
                        f"{partner} is fully received at {earliest} (Eq. 7)"
                    )


def _validate_alignment(schedule: NetworkSchedule, streams=None) -> None:
    """Every slot boundary must be drivable by its link's gate."""
    for stream in schedule.streams if streams is None else streams:
        for link in stream.path:
            for slot in schedule.slots[(stream.name, link.key)]:
                if slot.offset_ns % link.time_unit_ns != 0:
                    raise ScheduleError(
                        f"{slot.stream}[{slot.index}] on {link}: offset "
                        f"{slot.offset_ns} not aligned to tu {link.time_unit_ns}"
                    )
