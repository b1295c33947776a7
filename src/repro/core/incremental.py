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
* :func:`remove_stream` — retire a stream and release its slots (and,
  for an ECT stream, the extras it induced, recomputed for the remaining
  set).

Every operation returns a **new** schedule object and re-validates it
unless the caller defers that (``validate_result=False`` — the admission
service's constructive rung, the one loop over these primitives, applies
a whole batch and delta-validates once); admission failure raises
:class:`InfeasibleError` and leaves the input schedule untouched
(admission control semantics).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.constraints import build_frames
from repro.core.heuristic import _Occupancy, _place_stream, _PlacementFailure
from repro.core.probabilistic import expand_ect
from repro.core.reservation import prudent_reservation
from repro.core.schedule import InfeasibleError, NetworkSchedule, validate
from repro.model.frame import FrameSlot
from repro.model.stream import EctStream, Priorities, Stream, StreamType


def _occupancy_of(schedule: NetworkSchedule) -> _Occupancy:
    streams_by_name = {s.name: s for s in schedule.streams}
    occupancy = _Occupancy(streams_by_name)
    for slots in schedule.slots.values():
        for slot in slots:
            occupancy.add(slot)
    return occupancy


def _clone(schedule: NetworkSchedule) -> NetworkSchedule:
    return NetworkSchedule(
        topology=schedule.topology,
        streams=list(schedule.streams),
        slots={key: list(slots) for key, slots in schedule.slots.items()},
        ect_streams=list(schedule.ect_streams),
        meta=dict(schedule.meta),
    )


def _register(occupancy: _Occupancy, new_streams: Sequence[Stream]) -> None:
    for stream in new_streams:
        occupancy._streams[stream.name] = stream  # noqa: SLF001 - same package


def affected_sharing_streams(
    schedule: NetworkSchedule, ect: EctStream
) -> List[Stream]:
    """The sharing TCT streams whose reservations a new ECT reshapes.

    Exactly the deterministic ``share=True`` streams crossing any link
    of the ECT's route: prudent reservation (Alg. 1) adds extras per
    (sharing TCT x ECT) pair per shared link, so these — and only
    these — need re-placement when ``ect`` is admitted.
    """
    ect_links = {link.key for link in ect.route(schedule.topology)}
    return [
        s for s in schedule.streams
        if s.type == StreamType.DET and s.share
        and any(link.key in ect_links for link in s.path)
    ]


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
    full population, and place its base+extra frames earliest-fit.
    """
    if stream.type != StreamType.DET:
        raise ValueError("online TCT admission takes a deterministic stream")
    Priorities.check(stream)
    if any(s.name == stream.name for s in schedule.streams):
        raise ValueError(f"stream {stream.name!r} already scheduled")

    # only a sharing candidate's extras depend on the ECT possibilities
    # on its links; then the plan must see the whole population, though
    # only the candidate's rows of it are used
    population = [stream]
    if stream.share and schedule.ect_streams:
        population = list(schedule.streams) + population
    plan = prudent_reservation(population, mode=reservation_mode)
    frames = build_frames([stream], plan, guard_margin_ns)
    occupancy = _occupancy_of(schedule)
    _register(occupancy, [stream])
    try:
        placed = _place_stream(stream, frames, occupancy)
    except _PlacementFailure as exc:
        raise InfeasibleError(f"cannot admit {stream.name}: {exc}") from exc

    result = _clone(schedule)
    result.streams.append(stream)
    for slot in placed:
        result.slots.setdefault((slot.stream, slot.link), []).append(slot)
    for key in [(stream.name, link.key) for link in stream.path]:
        result.slots[key].sort(key=lambda s: s.index)
    result.meta["incremental_additions"] = (
        schedule.meta.get("incremental_additions", 0) + 1
    )
    if validate_result:
        validate(result)
    return result


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
    if any(e.name == ect.name for e in schedule.ect_streams):
        raise ValueError(f"ECT stream {ect.name!r} already scheduled")
    possibilities = expand_ect(ect, schedule.topology)

    old_streams = list(schedule.streams)
    new_streams = old_streams + possibilities
    plan_after = prudent_reservation(new_streams, mode=reservation_mode)

    affected = affected_sharing_streams(schedule, ect)
    affected_names = {s.name for s in affected}

    result = _clone(schedule)
    result.streams.extend(possibilities)
    result.ect_streams.append(ect)
    # drop the affected streams' slots; they are re-placed below
    result.slots = {
        key: slots for key, slots in result.slots.items()
        if key[0] not in affected_names
    }
    occupancy = _occupancy_of(result)
    _register(occupancy, possibilities)

    try:
        frames = build_frames(
            affected + possibilities, plan_after, guard_margin_ns
        )
        # re-place the sharing streams first (tighter), then the
        # possibilities (they may overlap the sharing streams anyway)
        for stream in affected + possibilities:
            placed = _place_stream(stream, frames, occupancy)
            for slot in placed:
                occupancy.add(slot)
                result.slots.setdefault((slot.stream, slot.link), []).append(slot)
            for link in stream.path:
                result.slots[(stream.name, link.key)].sort(key=lambda s: s.index)
    except _PlacementFailure as exc:
        raise InfeasibleError(f"cannot admit {ect.name}: {exc}") from exc

    result.meta["incremental_additions"] = (
        schedule.meta.get("incremental_additions", 0) + 1
    )
    if validate_result:
        validate(result)
    return result


def remove_stream(
    schedule: NetworkSchedule, name: str, validate_result: bool = True
) -> NetworkSchedule:
    """Retire a TCT stream or an ECT stream (with all its possibilities).

    Removing an ECT stream leaves the other streams' extra reservations
    in place (they are still valid, just more generous than needed); a
    periodic offline re-run reclaims them.
    """
    result = _clone(schedule)
    ect = next((e for e in result.ect_streams if e.name == name), None)
    if ect is not None:
        result.ect_streams = [e for e in result.ect_streams if e.name != name]
        victims = {s.name for s in result.streams
                   if s.type == StreamType.PROB and s.parent == name}
    else:
        if not any(s.name == name for s in result.streams):
            raise KeyError(f"no stream named {name!r}")
        victims = {name}
    result.streams = [s for s in result.streams if s.name not in victims]
    result.slots = {
        key: slots for key, slots in result.slots.items() if key[0] not in victims
    }
    if validate_result:
        validate(result)
    return result
