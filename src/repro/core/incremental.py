"""Online (incremental) scheduling — the paper's future-work direction.

Sec. VII-C motivates *online* scheduling: links fail, applications come
and go, and recomputing the whole network schedule on every change is too
slow.  This module adds streams to an existing :class:`NetworkSchedule`
without moving any already-granted slot:

* :func:`add_tct_stream` / :func:`add_shared_tct_stream` — admit one
  new TCT stream; existing slots are frozen, the new stream (with its
  own prudent-reservation extras when it shares slots with ECT) is
  placed earliest-fit around them (the incremental step of Steiner's
  backtracking approach [18]).
* :func:`add_ect_stream` — admit one new ECT stream.  Its probabilistic
  possibilities are placed around the frozen schedule.  TCT streams that
  share their slots with the new ECT need fresh prudent-reservation
  extras, and appending extras on one link shifts the adjacent-link
  pairing (paper Fig. 8) — so exactly those streams are *re-placed*;
  every other stream's slots are frozen.
* :func:`remove_stream` — retire a stream and release its slots.  The
  extras an ECT stream induced on sharing TCT streams stay in place
  (still valid, just more generous than needed) until a re-solve.

Every operation *derives* a **new** schedule from its input — the outer
``slots`` dict, the ``streams`` list and the two index maps are shallow
copies, only the per-link slot lists the edit touches are rebuilt, every
other list is shared with the input, and the input itself is never
written to — so an edit costs what it touches plus three C-level
copies, not a walk over the network.  Prudent reservation is part of
"what it touches": Alg. 1 is planned for the streams the edit places,
against one possibility per live ECT stream (:func:`_live_ect`), never
for the population.  What is still O(network) per edit is exactly those
three shallow copies and, when a new ECT crosses sharing streams, the
one scan that puts them in ``streams`` order
(:func:`affected_sharing_streams`).  The result is re-validated unless
the caller defers that (``validate_result=False`` — the admission
service's constructive rung, the one loop over these primitives, applies
a whole batch and delta-validates once); admission failure raises
:class:`InfeasibleError` (admission control semantics).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.constraints import build_frames
from repro.core.heuristic import _Occupancy, _place_stream, _PlacementFailure
from repro.core.probabilistic import expand_ect
from repro.core.reservation import prudent_reservation
from repro.core.schedule import InfeasibleError, NetworkSchedule, validate
from repro.model.frame import FrameSlot
from repro.model.stream import EctStream, Priorities, Stream, StreamType

_SlotTable = Dict[Tuple[str, Tuple[str, str]], List[FrameSlot]]


def _place(
    stream: Stream, frames, occupancy: _Occupancy, slots: _SlotTable
) -> None:
    """Place ``stream`` earliest-fit and enter its slots, per link in
    frame order, at the end of ``slots`` and of the occupancy.  The
    per-link lists are new ones: ``slots`` is a shallow copy whose
    lists the input schedule still owns."""
    placed: _SlotTable = {}
    for slot in _place_stream(stream, frames, occupancy):
        occupancy.add(slot)
        placed.setdefault((slot.stream, slot.link), []).append(slot)
    for link_slots in placed.values():
        link_slots.sort(key=lambda s: s.index)
    slots.update(placed)


def _derived(
    schedule: NetworkSchedule,
    streams: List[Stream],
    slots: _SlotTable,
    ect_streams: List[EctStream],
    occupancy: _Occupancy,
    validate_result: bool,
    additions: int = 0,
) -> NetworkSchedule:
    result = schedule.derive(
        streams, slots, ect_streams, occupancy.by_link, occupancy.streams
    )
    if additions:
        result.meta["incremental_additions"] = (
            schedule.meta.get("incremental_additions", 0) + additions
        )
    if validate_result:
        validate(result)
    return result


def _live_ect(schedule: NetworkSchedule) -> List[Stream]:
    """One scheduled possibility per live ECT stream, in ``ect_streams``
    order: everything Alg. 1 reads of an ECT (route, period, length),
    in the order the whole-population plan meets the parents."""
    return [
        possibility
        for ect in schedule.ect_streams
        for possibility in schedule.possibilities_of(ect.name)[:1]
    ]


def affected_sharing_streams(
    schedule: NetworkSchedule, ect: EctStream
) -> List[Stream]:
    """The sharing TCT streams whose reservations a new ECT reshapes.

    Exactly the deterministic ``share=True`` streams crossing any link
    of the ECT's route: prudent reservation (Alg. 1) adds extras per
    (sharing TCT x ECT) pair per shared link, so these — and only
    these — need re-placement when ``ect`` is admitted.  In ``streams``
    order, the order they are re-placed in.
    """
    by_name = schedule.streams_by_name
    by_link = schedule.slots_by_link
    crossing = {
        slot.stream
        for link in ect.route(schedule.topology)
        for slot in by_link.get(link.key, ())
    }
    affected = {
        name for name in crossing
        if by_name[name].type == StreamType.DET and by_name[name].share
    }
    if not affected:
        return []
    return [s for s in schedule.streams if s.name in affected]


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

    # the candidate's rows only; a non-sharing one takes no extras
    plan = prudent_reservation(
        [stream], reservation_mode,
        against=_live_ect(schedule) if stream.share else (),
    )
    frames = build_frames([stream], plan, guard_margin_ns)
    occupancy = _Occupancy.over(schedule)
    occupancy.streams[stream.name] = stream
    slots = dict(schedule.slots)
    try:
        _place(stream, frames, occupancy, slots)
    except _PlacementFailure as exc:
        raise InfeasibleError(f"cannot admit {stream.name}: {exc}") from exc
    return _derived(
        schedule, schedule.streams + [stream], slots, schedule.ect_streams,
        occupancy, validate_result, additions=1,
    )


def add_ect_stream(
    schedule: NetworkSchedule,
    ect: EctStream,
    guard_margin_ns: int = 0,
    reservation_mode: str = "paper",
    validate_result: bool = True,
    affected: Optional[List[Stream]] = None,
) -> NetworkSchedule:
    """Admit one ECT stream into a mostly-frozen schedule.

    Slots of streams unrelated to the new ECT never move.  Sharing TCT
    streams crossed by the new ECT need more reservation, and extras on
    one link shift the Eq. 7 pairing, so those streams are re-placed
    from scratch around everything else.  A caller that already holds
    ``affected_sharing_streams(schedule, ect)`` hands it in as
    ``affected``.
    """
    if any(e.name == ect.name for e in schedule.ect_streams):
        raise ValueError(f"ECT stream {ect.name!r} already scheduled")
    possibilities = expand_ect(ect, schedule.topology)
    for possibility in possibilities:
        if possibility.name in schedule.streams_by_name:
            raise ValueError(f"stream {possibility.name!r} already scheduled")
    if affected is None:
        affected = affected_sharing_streams(schedule, ect)
    # the rows to place, against every ECT live afterwards
    plan_after = prudent_reservation(
        affected + possibilities, reservation_mode,
        against=_live_ect(schedule) + possibilities[:1],
    )

    occupancy = _Occupancy.over(schedule)
    for possibility in possibilities:
        occupancy.streams[possibility.name] = possibility
    # drop the affected streams' slots; they are re-placed below
    occupancy.release(affected)
    slots = dict(schedule.slots)
    for stream in affected:
        for link in stream.path:
            del slots[(stream.name, link.key)]
    try:
        frames = build_frames(
            affected + possibilities, plan_after, guard_margin_ns
        )
        # re-place the sharing streams first (tighter), then the
        # possibilities (they may overlap the sharing streams anyway)
        for stream in affected + possibilities:
            _place(stream, frames, occupancy, slots)
    except _PlacementFailure as exc:
        raise InfeasibleError(f"cannot admit {ect.name}: {exc}") from exc
    return _derived(
        schedule, schedule.streams + possibilities, slots,
        schedule.ect_streams + [ect], occupancy, validate_result,
        additions=1,
    )


def remove_stream(
    schedule: NetworkSchedule, name: str, validate_result: bool = True
) -> NetworkSchedule:
    """Retire a TCT stream or an ECT stream (with all its possibilities).

    Removing an ECT stream leaves the other streams' extra reservations
    in place (they are still valid, just more generous than needed);
    they stay until a later ECT admit or ``full`` re-solve touches the
    stream.
    """
    ect_streams = schedule.ect_streams
    if any(e.name == name for e in ect_streams):
        victims = schedule.possibilities_of(name)
        ect_streams = [e for e in ect_streams if e.name != name]
    elif name in schedule.streams_by_name:
        victims = [schedule.streams_by_name[name]]
    else:
        raise KeyError(f"no stream named {name!r}")
    occupancy = _Occupancy.over(schedule)
    occupancy.release(victims)
    slots = dict(schedule.slots)
    for stream in victims:
        del occupancy.streams[stream.name]
        for link in stream.path:
            slots.pop((stream.name, link.key), None)
    # the name index is in ``streams`` order and deletion keeps it
    return _derived(
        schedule, list(occupancy.streams.values()), slots, ect_streams,
        occupancy, validate_result,
    )
