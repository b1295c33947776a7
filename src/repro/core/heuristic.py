"""Incremental earliest-fit scheduler with restart-based backtracking.

The SMT backend is the faithful formalization, but its Eq. 5 clause count
grows with (streams x frames x hyperperiod repetitions)^2, which is heavy
for the 40-stream simulation topology.  The paper notes (Sec. VII-C) that
incremental backtracking in the style of Steiner [18] applies directly to
its formulation; this module is that scheduler.

The semantics are identical to the SMT formulation — both backends feed
the same independent validator — only the search differs:

* streams are placed one at a time, tightest first;
* each frame takes the earliest offset that respects the window (Eq. 1),
  occurrence time (Eq. 2), same-link ordering (Eq. 3), adjacency (Eq. 7),
  and non-overlap against everything already placed (Eq. 5, with the
  E-TSN exemptions);
* an end-to-end violation (Eq. 4) pushes the stream's release later and
  retries; a placement failure promotes the stream to the front of the
  order and restarts.

One loop places an order (:func:`_place_in_order`): once per restart
here, once per online edit in :func:`repro.core.incremental.repair`,
which alone asks a failure for its cut (:func:`_stream_cut`).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.constraints import build_frames, window_max_ns
from repro.core.probabilistic import expand_ect
from repro.core.reservation import prudent_reservation
from repro.core.schedule import (
    InfeasibleError,
    NetworkSchedule,
    never_clear_message,
    periodic_overlap,
    validate,
)
from repro.model.frame import FrameSlot, FrameVar
from repro.model.stream import (
    EctStream,
    Priorities,
    Stream,
    StreamType,
    may_overlap,
)
from repro.model.topology import Topology
from repro.model.units import ceil_to_multiple

_PROB = StreamType.PROB


class _PlacementFailure(Exception):
    """A stream cannot be placed against the current occupancy; ``link``
    is the key of the link the frame failed on, ``None`` for an Eq. 4
    miss no later release can cure; ``gap`` names the streams of the
    frame's gap cut there (:func:`_gap_cut`), empty when the fit was
    not defeated by its rows (a lower bound already past the window)
    or no offset qualifies — :func:`repro.core.incremental.repair`
    then asks :func:`_stream_cut`."""

    def __init__(
        self, stream: str, detail: str,
        link: Optional[Tuple[str, str]] = None,
        gap: Tuple[str, ...] = (),
    ) -> None:
        super().__init__(f"{stream}: {detail}")
        self.stream = stream
        self.link = link
        self.gap = gap


class _Occupancy:
    """Placed slots per link, for conflict queries during the search.

    Starts empty (the offline search) or :meth:`over` a finished
    schedule (an online edit).  Over a schedule only the two outer maps
    are copied; a link's slot list is copied the first time this
    occupancy writes to that link, so the schedule's own lists are never
    touched and every untouched link stays shared with it.

    :meth:`earliest_fit` reads a link through flat *rows* ``(offset,
    duration, gcd with the candidate's period)``, one per slot the
    candidate may not overlap.  Rows depend on the candidate only
    through its *class* (:func:`_row_class`: what ``may_overlap`` and
    the gcd read of it), so every candidate of one class shares them.
    A link's rows of one class cover its slots up to a high-water mark;
    :meth:`add` only appends slots, and the next read extends the rows
    from the mark.  :meth:`release` rebuilds a link's slot list and
    drops every class's rows on it.
    """

    def __init__(
        self,
        streams_by_name: Dict[str, Stream],
        by_link: Optional[Dict[Tuple[str, str], List[FrameSlot]]] = None,
    ) -> None:
        self.streams = streams_by_name
        self.by_link = {} if by_link is None else by_link
        #: links whose list this occupancy made, and so may append to
        self._own: Set[Tuple[str, str]] = set()
        #: link -> candidate class -> (its rows, slots of the link they cover)
        self._rows: Dict[Tuple[str, str], Dict[tuple, list]] = {}

    @classmethod
    def over(cls, schedule: NetworkSchedule) -> "_Occupancy":
        return cls(
            schedule.streams_by_name.copy(), schedule.slots_by_link.copy()
        )

    def add(self, slot: FrameSlot) -> None:
        link = slot.link
        if link not in self._own:
            self.by_link[link] = list(self.by_link.get(link, ()))
            self._own.add(link)
        self.by_link[link].append(slot)

    def release(self, streams: Sequence[Stream]) -> None:
        """Drop every slot of ``streams`` from the links they cross."""
        names = {s.name for s in streams}
        for link in {link.key for s in streams for link in s.path}:
            kept = [
                slot for slot in self.by_link.get(link, ())
                if slot.stream not in names
            ]
            if kept:
                self.by_link[link] = kept
                self._own.add(link)
            else:
                self.by_link.pop(link, None)
                self._own.discard(link)
            self._rows.pop(link, None)

    def _rows_against(
        self, stream: Stream, frame: FrameVar
    ) -> List[Tuple[int, int, int]]:
        """The rows of ``frame.link`` for ``stream``'s class, in slot
        order, first extended over the slots added since the last read,
        the gcd taken once per slot — not once per probe.

        The Eq. 5 exemption is the class's closed form of
        :func:`may_overlap`, which stays the specification: a
        non-sharing TCT candidate is exempt from no slot, a sharing TCT
        candidate from the slots of probabilistic streams, a possibility
        of parent P from the slots of P's possibilities and of sharing
        TCT streams."""
        slots = self.by_link.get(frame.link, ())
        by_class = self._rows.get(frame.link)
        if by_class is None:
            by_class = self._rows[frame.link] = {}
        key = _row_class(stream, frame.period_ns)
        entry = by_class.get(key)
        if entry is None:
            entry = by_class[key] = [[], 0]
        rows, covered = entry
        if covered < len(slots):
            period, gcd, streams = frame.period_ns, math.gcd, self.streams
            fresh = slots[covered:]
            if stream.is_probabilistic:
                parent = stream.parent
                rows.extend([
                    (offset, duration, gcd(period, slot_period))
                    for name, _, _, offset, slot_period, duration, _ in fresh
                    if not (
                        streams[name].share
                        or (streams[name].parent == parent
                            and streams[name].type == _PROB)
                    )
                ])
            elif stream.share:
                rows.extend([
                    (offset, duration, gcd(period, slot_period))
                    for name, _, _, offset, slot_period, duration, _ in fresh
                    if streams[name].type != _PROB
                ])
            else:
                rows.extend([
                    (offset, duration, gcd(period, slot_period))
                    for _, _, _, offset, slot_period, duration, _ in fresh
                ])
            entry[1] = len(slots)
        return rows

    def earliest_fit(
        self, stream: Stream, frame: FrameVar, lower_bound_ns: int, tu_ns: int
    ) -> int:
        """Earliest conflict-free offset >= lower bound, or raise.

        Each row's "shift until clear of me" (what
        :func:`earliest_gap_shift` computes) is monotone and never moves
        an offset earlier, so the rows have one least common fixpoint at
        or above the lower bound and visiting them in any fair order
        reaches exactly it: lap over them until a lap shifts nothing.
        A row no shift can clear ends the scan the moment the rows
        before it are clear, so only those take part.
        """
        window_max = window_max_ns(stream, frame)
        phi = ceil_to_multiple(max(lower_bound_ns, 0), tu_ns)
        if phi > window_max:
            raise _PlacementFailure(
                stream.name,
                f"frame {frame.index} lower bound {lower_bound_ns} beyond "
                f"window max {window_max} on {frame.link}",
                frame.link,
            )
        rows = self._rows_against(stream, frame)
        duration = frame.duration_ns
        unclearable = None
        shifted = True
        while shifted:
            shifted = False
            for offset, length, g in rows:
                r = (offset - phi) % g
                if r < duration or r > g - length:
                    shifted = True
                    if duration + length > g:
                        # an equal row earlier would have stopped the
                        # lap first, so index() finds this very row
                        unclearable = (length, g)
                        rows = rows[:rows.index((offset, length, g))]
                        break
                    phi += (r + length) % g
                    if phi > window_max:
                        raise self._failure(
                            stream, frame, lower_bound_ns, tu_ns,
                            f"frame {frame.index} pushed past window max "
                            f"{window_max} on {frame.link}",
                        )
        if unclearable is not None:
            raise self._failure(
                stream, frame, lower_bound_ns, tu_ns,
                never_clear_message(duration, *unclearable),
            )
        return phi

    def _failure(
        self, stream: Stream, frame: FrameVar, lower_bound_ns: int,
        tu_ns: int, detail: str,
    ) -> _PlacementFailure:
        """The failure of a fit its rows defeat (``detail`` says how),
        naming the frame's gap cut (:func:`_gap_cut`).

        Only a failing fit asks, so the rows are rebuilt here carrying
        their stream's name, taken straight from :func:`may_overlap` in
        slot order — the order of the rows — and the successful fit
        pays nothing for the names."""
        streams, period = self.streams, frame.period_ns
        rows = [
            (slot.offset_ns, slot.duration_ns,
             math.gcd(period, slot.period_ns), slot.stream)
            for slot in self.by_link.get(frame.link, ())
            if not may_overlap(stream, streams[slot.stream])
        ]
        lower = ceil_to_multiple(max(lower_bound_ns, 0), tu_ns)
        window_max = window_max_ns(stream, frame)
        bound = _tightness(stream)
        return _PlacementFailure(
            stream.name, detail, frame.link,
            _gap_cut(
                rows, lower, window_max, frame.duration_ns, tu_ns,
                lambda name: streams[name].type == StreamType.DET
                and _tightness(streams[name]) > bound,
            ),
        )


_Row = Tuple[int, int, int, str]


def _gap_cut(
    rows: Sequence[_Row], lower: int, window_max: int, duration: int,
    tu_ns: int, looser: Callable[[str], bool],
) -> Tuple[str, ...]:
    """The *gap cut* of a frame of ``duration`` that fits nowhere in
    ``[lower, window_max]``: the streams of the rows it overlaps at the
    tu-aligned offset there that overlaps the fewest streams, among the
    offsets where ``looser`` accepts every stream it overlaps — the
    earliest such offset on a tie, the names in row order, ``()`` when
    no offset qualifies.  Releasing the cut frees that offset.

    A row ``(offset, length, gcd, name)`` overlaps the frame at ``phi``
    iff ``phi`` lies in ``[offset - duration + 1, offset + length - 1]``
    modulo the gcd — outside :func:`earliest_gap_shift`'s free band —
    or everywhere when that interval covers the gcd, so one sweep over
    those intervals, clipped to the window, finds every run of offsets
    overlapping one set of streams."""
    end = window_max + 1
    events: List[Tuple[int, int, str]] = []
    for offset, length, g, name in rows:
        span = duration + length - 1
        if span >= g:
            events.append((lower, 1, name))
            continue
        start = offset - duration + 1
        for at in range(lower - (lower - start) % g, end, g):
            if at + span > lower:
                events.append((max(at, lower), 1, name))
                if at + span < end:
                    events.append((at + span, -1, name))
    events.sort(key=lambda event: event[0])
    accepted = {name: looser(name) for _, _, name in events}
    # name -> how many of its intervals cover the current run
    active: Dict[str, int] = {}
    best: Optional[Tuple[int, int]] = None
    at, index = lower, 0
    while at < end:
        while index < len(events) and events[index][0] == at:
            _, step, name = events[index]
            index += 1
            count = active.get(name, 0) + step
            if count:
                active[name] = count
            else:
                del active[name]
        following = events[index][0] if index < len(events) else end
        phi = ceil_to_multiple(at, tu_ns)
        if phi < following and (
            best is None or len(active) < best[0]
        ) and all(accepted[name] for name in active):
            best = (len(active), phi)
        at = following
    if best is None:
        return ()
    phi = best[1]
    return tuple(dict.fromkeys(
        name for offset, length, g, name in rows
        if not duration <= (offset - phi) % g <= g - length
    ))


def _row_class(stream: Stream, period_ns: int) -> tuple:
    """Everything :func:`may_overlap` and the row gcd read of a
    candidate frame: two candidates of one class have the same rows."""
    if stream.is_probabilistic:
        return (period_ns, True, stream.parent)
    return (period_ns, False, stream.share)


def _try_place(
    stream: Stream,
    frames: Dict[Tuple[str, Tuple[str, str]], List[FrameVar]],
    occupancy: _Occupancy,
    release_ns: int,
) -> List[FrameSlot]:
    """Place all frames of one stream, earliest-fit, first frame >= release."""
    placed: List[FrameSlot] = []
    prev_slots: Optional[List[FrameSlot]] = None
    prev_link = None
    for link in stream.path:
        frame_vars = frames[(stream.name, link.key)]
        link_slots: List[FrameSlot] = []
        sequencing_lb = 0
        for j, fv in enumerate(frame_vars):
            lb = sequencing_lb
            if prev_slots is None:
                if j == 0:
                    lb = max(lb, release_ns)
            else:
                o = max(len(prev_slots) - len(frame_vars), 0)
                partner = prev_slots[min(j + o, len(prev_slots) - 1)]
                lb = max(lb, partner.end_ns + prev_link.propagation_ns)
            phi = occupancy.earliest_fit(stream, fv, lb, link.time_unit_ns)
            slot = fv.scheduled(phi)
            link_slots.append(slot)
            sequencing_lb = slot.end_ns
        placed.extend(link_slots)
        prev_slots = link_slots
        prev_link = link
    return placed


def _place_stream(
    stream: Stream,
    frames: Dict[Tuple[str, Tuple[str, str]], List[FrameVar]],
    occupancy: _Occupancy,
) -> List[FrameSlot]:
    """Place one stream, iterating the release time until Eq. 4 holds."""
    last_link = stream.path[-1]
    if stream.type == StreamType.PROB:
        release = stream.occurrence_ns
    else:
        release = 0
    tu = stream.path[0].time_unit_ns
    while True:
        slots = _try_place(stream, frames, occupancy, release)
        last = [s for s in slots if s.link == last_link.key][-1]
        finish = last.end_ns + last_link.propagation_ns
        start_ref = (
            stream.occurrence_ns
            if stream.type == StreamType.PROB
            else [s for s in slots if s.link == stream.path[0].key][0].offset_ns
        )
        if finish - start_ref <= stream.e2e_ns:
            return slots
        if stream.type == StreamType.PROB:
            raise _PlacementFailure(
                stream.name,
                f"latency {finish - start_ref} exceeds budget {stream.e2e_ns} "
                f"and the occurrence time is fixed",
            )
        # Delaying the release shrinks (finish - first.φ); iterate.
        release = max(finish - stream.e2e_ns, release + tu)


def _stream_cut(
    stream: Stream,
    frames: Dict[Tuple[str, Tuple[str, str]], List[FrameVar]],
    occupancy: _Occupancy,
) -> Tuple[str, ...]:
    """The *stream cut* of a deterministic ``stream`` that failed to
    place against ``occupancy``: release every deterministic stream
    looser than it (:func:`_tightness`) with a slot on its route, place
    it, and name the released streams whose slots overlap that
    placement — in route and slot order, the periodic-overlap test of
    :func:`_gap_cut`'s final filter.  ``()`` when the stream still does
    not place.  Releasing the cut alone places the stream on the same
    slots: the streams that stay are clear of them, and earliest-fit
    takes the least clear offset.  ``occupancy`` is spent."""
    if stream.type != StreamType.DET:
        return ()
    bound, streams = _tightness(stream), occupancy.streams
    released = [
        slot for link in stream.path
        for slot in occupancy.by_link.get(link.key, ())
        if streams[slot.stream].type == StreamType.DET
        and _tightness(streams[slot.stream]) > bound
    ]
    if not released:
        return ()
    occupancy.release([
        streams[name] for name in dict.fromkeys(s.stream for s in released)
    ])
    try:
        placed = _place_stream(stream, frames, occupancy)
    except _PlacementFailure:
        return ()
    return tuple(dict.fromkeys(
        old.stream for old in released for new in placed
        if new.link == old.link and periodic_overlap(
            new.offset_ns, new.duration_ns, new.period_ns,
            old.offset_ns, old.duration_ns, old.period_ns,
        )
    ))


def _place_in_order(
    order: Sequence[Stream],
    frames: Dict[Tuple[str, Tuple[str, str]], List[FrameVar]],
    occupancy: _Occupancy,
    slots: Dict[Tuple[str, Tuple[str, str]], List[FrameSlot]],
) -> None:
    """Place each stream of ``order`` earliest-fit, add its slots to
    ``occupancy`` and file them into ``slots`` per (stream, link), in
    frame order, as new lists at the end of the table.  Raises the
    :class:`_PlacementFailure` of the first stream that does not fit;
    ``occupancy`` and ``slots`` then hold the streams before it."""
    for stream in order:
        for slot in _place_stream(stream, frames, occupancy):
            occupancy.add(slot)
            slots.setdefault((slot.stream, slot.link), []).append(slot)


def _tightness(stream: Stream) -> Tuple[int, int, str]:
    """The sort key of a deterministic stream in :func:`_placement_order`."""
    return (stream.period_ns, stream.e2e_ns, stream.name)


def _placement_order(streams: Sequence[Stream]) -> List[Stream]:
    """Tightest-first: short periods, then small latency budgets.

    Probabilistic possibilities go last — the overlap exemptions make
    them cheap to fit around an existing TCT schedule — ordered by parent
    and occurrence time so superposition slots coalesce naturally.
    """
    tct = [s for s in streams if s.type == StreamType.DET]
    prob = [s for s in streams if s.type == StreamType.PROB]
    tct.sort(key=_tightness)
    prob.sort(key=lambda s: (s.parent or "", s.occurrence_ns, s.name))
    return tct + prob


def schedule_heuristic(
    topology: Topology,
    tct_streams: Sequence[Stream],
    ect_streams: Sequence[EctStream] = (),
    validate_result: bool = True,
    max_restarts: Optional[int] = None,
    guard_margin_ns: int = 0,
    reservation_mode: str = "paper",
) -> NetworkSchedule:
    """Compute a joint E-TSN schedule with the incremental backend.

    Raises :class:`InfeasibleError` once the restart budget is spent or
    a stream fails at the head of the order, where no restart can help;
    the message says which, and how many restarts ran.
    """
    streams: List[Stream] = list(tct_streams)
    ects = list(ect_streams)
    for ect in ects:
        streams.extend(expand_ect(ect, topology))
    for stream in streams:
        Priorities.check(stream)

    plan = prudent_reservation(streams, mode=reservation_mode)
    frames = build_frames(streams, plan, guard_margin_ns)
    streams_by_name = {s.name: s for s in streams}
    order = _placement_order(streams)
    if max_restarts is None:
        max_restarts = 2 * len(streams) + 4

    last_failure = ""
    stopped = f"the budget of {max_restarts} restarts ran out"
    for restarts in range(max_restarts + 1):
        slots: Dict[Tuple[str, Tuple[str, str]], List[FrameSlot]] = {}
        try:
            _place_in_order(order, frames, _Occupancy(streams_by_name), slots)
        except _PlacementFailure as exc:
            failed, last_failure = exc.stream, str(exc)
        else:
            schedule = NetworkSchedule(
                topology=topology,
                streams=streams,
                slots=slots,
                ect_streams=ects,
                meta={
                    "backend": "heuristic",
                    "extra_slots": sum(plan.extras.values()),
                },
            )
            if validate_result:
                validate(schedule)
            return schedule
        # Promote the failed stream to the front and retry, unless it
        # already led the order (then more restarts cannot help).
        if order[0].name == failed:
            stopped = (
                f"stopped after {restarts} of {max_restarts} restarts: "
                f"{failed} failed at the head of the order"
            )
            break
        order.sort(key=lambda s: s.name != failed)
    raise InfeasibleError(
        f"heuristic scheduler: could not place all {len(streams)} streams; "
        f"{stopped} (last failure: {last_failure})"
    )
