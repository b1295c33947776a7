"""Online (incremental) scheduling — the paper's future-work direction.

Sec. VII-C motivates *online* scheduling: links fail, applications come
and go, and recomputing the whole network schedule on every change is too
slow.  This module edits an existing :class:`NetworkSchedule` and moves
only the slots an edit has to move.  One primitive does every edit:

* :func:`repair` — release a set of streams, drop the ones that leave,
  plan prudent reservation for the released and new ones against the
  ECT streams live afterwards, and place them earliest-fit, in the
  given order, around every slot that stays (the incremental step of
  Steiner's backtracking approach [18]) with the offline scheduler's
  own placement loop (:func:`repro.core.heuristic._place_in_order`).

The rest are calls to it:

* :func:`add_tct_stream` / :func:`add_shared_tct_stream` — admit one
  new TCT stream; nothing is released, the new stream (with its own
  prudent-reservation extras when it shares slots with ECT) is placed
  around the frozen schedule.
* :func:`add_ect_stream` — admit one new ECT stream.  TCT streams that
  share their slots with the new ECT need fresh prudent-reservation
  extras, and appending extras on one link shifts the adjacent-link
  pairing (paper Fig. 8) — so exactly those streams are released and
  re-placed, then the possibilities; every other slot is frozen.
* :func:`remove_stream` — drop a stream and release nothing else.  The
  extras an ECT stream induced on sharing TCT streams stay in place
  (still valid, just more generous than needed) until something
  re-places the sharer.
* the admission service places a batch with one call per *ring*:
  ring 0 drops the removals, releases the sharers new ECT streams
  cross (:func:`affected_sharing_streams`) and places the newcomers
  tightest first.  Its failure names a cut: the gap cut — the looser
  streams overlapping the failing frame at the one offset of its
  window that overlaps the fewest — or, when the frame has none, the
  stream cut — the looser streams on the failing stream's route that
  its placement overlaps once all of them are released.  The ``full``
  rung releases that cut, for TCT and ECT admits alike, and while a
  ring fails on a stream whose failure names new streams, those join
  (an ejection chain), before it re-solves the network.

Every operation *derives* a **new** schedule from its input — the outer
``slots`` dict, the ``streams`` list and the two index maps are shallow
copies, only the per-link slot lists the edit touches are rebuilt, every
other list is shared with the input, and the input itself is never
written to — so an edit costs what it touches plus C-level copies of
the outer tables, not a walk over the network.  The tables are copied
with ``.copy()``, which clones a table whole as long as at most a third
of it is holes; ``dict(d)`` re-inserts every entry of a table an edit
has deleted from.  With 1200 live streams (a 3769-entry slot table, on
a 2-vCPU Xeon) that is 28 µs against 109 µs for the slot table and
8 µs against 50 µs for the name index.  Prudent reservation is part of
"what it touches": Alg. 1 is planned for the streams the edit places,
against one possibility per live ECT stream, never for the population.
What is still O(network) per edit is exactly those shallow copies
and, when an edit releases streams, the one scan that puts them in
``streams`` order (:func:`deterministic_crossing`).  The result is
re-validated unless the caller defers that (``validate_result=False``
— the admission service places each ring of a batch with one
:func:`repair` and delta-validates what moved); admission failure raises
:class:`InfeasibleError` (admission control semantics).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence

from repro.core.constraints import build_frames
from repro.core.heuristic import (
    _Occupancy,
    _place_in_order,
    _PlacementFailure,
    _stream_cut,
)
from repro.core.probabilistic import expand_ect
from repro.core.reservation import prudent_reservation
from repro.core.schedule import InfeasibleError, NetworkSchedule, validate
from repro.model.stream import EctStream, Priorities, Stream, StreamType
from repro.model.topology import Link

def deterministic_crossing(
    schedule: NetworkSchedule,
    links: Iterable[Link],
    keep: Callable[[Stream], bool],
) -> List[Stream]:
    """The deterministic streams with a slot on any of ``links`` that
    ``keep`` accepts, in ``streams`` order."""
    by_name = schedule.streams_by_name
    by_link = schedule.slots_by_link
    crossing = {
        slot.stream for link in links for slot in by_link.get(link.key, ())
    }
    chosen = {
        name for name in crossing
        if by_name[name].type == StreamType.DET and keep(by_name[name])
    }
    if not chosen:
        return []
    return [s for s in schedule.streams if s.name in chosen]


def affected_sharing_streams(
    schedule: NetworkSchedule, ects: Sequence[EctStream]
) -> List[Stream]:
    """The sharing TCT streams whose reservations new ECTs reshape.

    Exactly the deterministic ``share=True`` streams crossing any link
    of an ECT's route: prudent reservation (Alg. 1) adds extras per
    (sharing TCT x ECT) pair per shared link, so these — and only
    these — need re-placement when ``ects`` are admitted.  In
    ``streams`` order, the order they are re-placed in.
    """
    return deterministic_crossing(
        schedule,
        [link for ect in ects for link in ect.route(schedule.topology)],
        lambda s: s.share,
    )


def repair(
    schedule: NetworkSchedule,
    place: Sequence[Stream],
    drop: Iterable[str] = (),
    ects: Sequence[EctStream] = (),
    guard_margin_ns: int = 0,
    reservation_mode: str = "paper",
    validate_result: bool = True,
    additions: int = 0,
) -> NetworkSchedule:
    """Release ``place``, re-plan it and re-place it around the rest.

    Every stream of ``place`` that ``schedule`` already holds loses its
    slots; the streams named in ``drop`` leave (an ECT stream with all
    its possibilities); the specs in ``ects`` join, their possibilities
    being among ``place``.  Alg. 1 is planned for ``place`` alone,
    against one possibility per ECT stream live afterwards, and the
    streams are placed earliest-fit in the given order around every
    slot that stays — those keep their slot-list objects.  Raises
    :class:`InfeasibleError` naming the first stream that does not fit
    (its ``stream``, ``link`` and ``gap`` say which, on which link, and
    whose release would let it in: the gap cut of the failing frame
    when it has one, else the stream cut of :func:`_stream_cut`),
    ``KeyError`` for a name in ``drop`` the schedule does not hold, or
    ``ValueError`` for an ECT stream of ``ects`` or a possibility of it
    whose name is already scheduled.
    """
    by_name = schedule.streams_by_name
    ect_streams = schedule.ect_streams
    for ect in ects:
        if any(e.name == ect.name for e in ect_streams):
            raise ValueError(f"ECT stream {ect.name!r} already scheduled")
    joining = {ect.name for ect in ects}
    for stream in place:
        if stream.parent in joining and stream.name in by_name:
            raise ValueError(f"stream {stream.name!r} already scheduled")
    victims: List[Stream] = []
    for name in drop:
        if any(e.name == name for e in ect_streams):
            victims.extend(schedule.possibilities_of(name))
            ect_streams = [e for e in ect_streams if e.name != name]
        elif name in by_name:
            victims.append(by_name[name])
        else:
            raise KeyError(f"no stream named {name!r}")
    released = [s for s in place if s.name in by_name] + victims
    occupancy = _Occupancy.over(schedule)
    occupancy.release(released)
    slots = schedule.slots.copy()
    for stream in released:
        for link in stream.path:
            slots.pop((stream.name, link.key), None)
    for stream in victims:
        del occupancy.streams[stream.name]
    for stream in place:
        occupancy.streams.setdefault(stream.name, stream)
    against: List[Stream] = []
    if any(s.share for s in place):
        # the live ECT, in the order the whole-population plan meets
        # them; only sharing rows read them
        against = [
            possibility
            for ect in ect_streams
            for possibility in schedule.possibilities_of(ect.name)[:1]
        ] + [next(s for s in place if s.parent == ect.name) for ect in ects]
    plan = prudent_reservation(place, reservation_mode, against=against)
    frames = build_frames(place, plan, guard_margin_ns)
    try:
        _place_in_order(place, frames, occupancy, slots)
    except _PlacementFailure as exc:
        failed = next(s for s in place if s.name == exc.stream)
        raise InfeasibleError(
            str(exc), stream=exc.stream, link=exc.link,
            gap=exc.gap or _stream_cut(failed, frames, occupancy),
        ) from exc
    # the name index is in ``streams`` order, and deletion keeps it
    result = schedule.derive(
        list(occupancy.streams.values()), slots, ect_streams + list(ects),
        occupancy.by_link, occupancy.streams,
    )
    if additions:
        result.meta["incremental_additions"] = (
            schedule.meta.get("incremental_additions", 0) + additions
        )
    if validate_result:
        validate(result)
    return result


def add_tct_stream(
    schedule: NetworkSchedule,
    stream: Stream,
    guard_margin_ns: int = 0,
    validate_result: bool = True,
) -> NetworkSchedule:
    """:func:`add_shared_tct_stream` under paper-mode reservation."""
    return add_shared_tct_stream(
        schedule, stream, guard_margin_ns, "paper", validate_result
    )


def add_shared_tct_stream(
    schedule: NetworkSchedule,
    stream: Stream,
    guard_margin_ns: int = 0,
    reservation_mode: str = "paper",
    validate_result: bool = True,
) -> NetworkSchedule:
    """Admit one TCT stream, sharing or not, into a frozen schedule.

    Prudent reservation (Alg. 1) computes a stream's extras from that
    stream's own ``share`` flag and the ECT possibilities on its links —
    never from the other TCT streams.  A new sharing stream therefore
    adds only *its own* extra slots; every existing stream's slot list
    (extras included) is unchanged.  That makes online admission sound:
    freeze everything, compute the candidate's reservation against the
    live ECT streams, and place its base+extra frames earliest-fit.
    """
    if stream.type != StreamType.DET:
        raise ValueError("online TCT admission takes a deterministic stream")
    Priorities.check(stream)
    if stream.name in schedule.streams_by_name:
        raise ValueError(f"stream {stream.name!r} already scheduled")

    try:
        return repair(
            schedule, [stream], guard_margin_ns=guard_margin_ns,
            reservation_mode=reservation_mode,
            validate_result=validate_result, additions=1,
        )
    except InfeasibleError as exc:
        raise InfeasibleError(f"cannot admit {stream.name}: {exc}") from exc


def add_ect_stream(
    schedule: NetworkSchedule,
    ect: EctStream,
    guard_margin_ns: int = 0,
    reservation_mode: str = "paper",
    validate_result: bool = True,
) -> NetworkSchedule:
    """Admit one ECT stream into a mostly-frozen schedule.

    Slots of streams unrelated to the new ECT never move.  Sharing TCT
    streams crossed by the new ECT need more reservation, and extras on
    one link shift the Eq. 7 pairing, so those streams are re-placed
    from scratch around everything else.
    """
    possibilities = expand_ect(ect, schedule.topology)
    affected = affected_sharing_streams(schedule, [ect])
    try:
        # re-place the sharing streams first (tighter), then the
        # possibilities (they may overlap the sharing streams anyway)
        return repair(
            schedule, affected + possibilities, ects=[ect],
            guard_margin_ns=guard_margin_ns,
            reservation_mode=reservation_mode,
            validate_result=validate_result, additions=1,
        )
    except InfeasibleError as exc:
        raise InfeasibleError(f"cannot admit {ect.name}: {exc}") from exc


def remove_stream(
    schedule: NetworkSchedule, name: str, validate_result: bool = True
) -> NetworkSchedule:
    """Retire a TCT stream or an ECT stream (with all its possibilities).

    Removing an ECT stream leaves the other streams' extra reservations
    in place (they are still valid, just more generous than needed);
    they stay until something re-places the stream: a later ECT admit
    that crosses it, a ``full`` rung whose ring releases it (its extras
    are then planned against the ECT streams still live), or a whole
    re-solve.
    """
    return repair(schedule, [], drop=[name], validate_result=validate_result)
