"""Where earliest-fit fails is data, not only text.

A frame fails to fit in one of three ways: its lower bound is already
past its window, the rows push it past its window, or a row no shift
can clear.  Each raises ``_PlacementFailure`` with the key of the link
the frame failed on and the *blockers*: the streams whose slots the
failing scan met the frame on, each of which shifted it or, for the
last kind, could not be cleared by any shift.  A lower bound past the
window meets no slot and names none.  :func:`repair` re-raises the
failure as an ``InfeasibleError`` whose ``stream``, ``link`` and
``blockers`` say the same.  The texts are pinned byte for byte:
rejection reasons quote them.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.constraints import window_max_ns
from repro.core.heuristic import _Occupancy, _PlacementFailure
from repro.core.incremental import repair
from repro.core.schedule import (
    InfeasibleError,
    ScheduleError,
    earliest_gap_shift,
    periodic_overlap,
)
from repro.model.frame import FrameSlot, FrameVar
from repro.model.stream import Priorities, TctRequirement, may_overlap
from repro.service import empty_schedule
from tests.conftest import MTU_WIRE_NS
from tests.core.test_earliest_fit_property import (
    KINDS,
    LINK,
    _occupancy,
    _stream,
    _topo,
    occupancy_case,
)


def _met_by_lap(streams, slots, newcomer, frame, lower):
    """The blockers by their definition, written with ``may_overlap``,
    ``periodic_overlap`` and ``earliest_gap_shift``: lap over the slots
    the newcomer may not overlap, in order, shifting past each one it
    overlaps, until a lap shifts nothing or the window is passed; a
    slot no shift clears ends the laps at the slots before it.  Every
    slot overlapped on the way names its stream, once, in the order
    met."""
    window_max = window_max_ns(newcomer, frame)
    phi = max(lower, 0)
    blocking = [
        s for s in slots if not may_overlap(newcomer, streams[s.stream])
    ]
    met = []
    moved = True
    while moved and phi <= window_max:
        moved = False
        for position, slot in enumerate(blocking):
            pattern = (slot.offset_ns, slot.duration_ns, slot.period_ns)
            if not periodic_overlap(
                phi, frame.duration_ns, frame.period_ns, *pattern
            ):
                continue
            moved = True
            if slot.stream not in met:
                met.append(slot.stream)
            try:
                phi += earliest_gap_shift(
                    phi, frame.duration_ns, frame.period_ns, *pattern
                )
            except ScheduleError:
                blocking = blocking[:position]
                break
            if phi > window_max:
                break
    return tuple(met)


@pytest.mark.parametrize("placed, lower_bound, text", [
    # window max is 60 - 10 = 50
    ((), 55, "new: frame 0 lower bound 55 beyond window max 50 on "
             "('A', 'SW')"),
    # clear of [5, 55) only at 55, past the window
    ((5, 50), 0, "new: frame 0 pushed past window max 50 on ('A', 'SW')"),
    # 10 + 55 > 60: no offset clears the slot
    ((0, 55), 0, "new: patterns of lengths 10+55 can never avoid each "
                 "other under gcd period 60"),
])
def test_each_failure_kind_names_its_link(placed, lower_bound, text):
    topo = _topo()
    newcomer = _stream(topo, "new", 60)
    occupancy = _Occupancy({"old": _stream(topo, "old", 60),
                            "new": newcomer})
    if placed:
        offset, duration = placed
        occupancy.add(FrameSlot("old", LINK, 0, offset, 60, duration))
    with pytest.raises(_PlacementFailure) as failure:
        occupancy.earliest_fit(
            newcomer, FrameVar("new", LINK, 0, 60, 10), lower_bound, 1
        )
    assert str(failure.value) == text
    assert failure.value.stream == "new"
    assert failure.value.link == LINK
    # the one slot, when the scan met it at all
    assert failure.value.blockers == (("old",) if placed else ())


@pytest.mark.parametrize("slots, blockers", [
    # a shifts the frame to 20 and b to 45, where c pushes it to 55,
    # past the window; d, at 30, is clear of the frame wherever it is
    ((("a", 0, 20), ("d", 30, 2), ("b", 20, 25), ("c", 50, 5)),
     ("a", "b", "c")),
    # a shifts the frame to 20, where the unclearable u stops the laps:
    # b at 40 is never reached
    ((("a", 0, 20), ("u", 25, 55), ("b", 40, 5)), ("a", "u")),
])
def test_blockers_are_the_streams_that_shifted_the_frame(slots, blockers):
    topo = _topo()
    streams = {name: _stream(topo, name, 60)
               for name in ("new",) + tuple(name for name, _, _ in slots)}
    placed = [FrameSlot(name, LINK, 0, offset, 60, duration)
              for name, offset, duration in slots]
    frame = FrameVar("new", LINK, 0, 60, 10)
    with pytest.raises(_PlacementFailure) as failure:
        _occupancy(streams, placed).earliest_fit(streams["new"], frame, 0, 1)
    assert failure.value.blockers == blockers
    assert _met_by_lap(streams, placed, streams["new"], frame, 0) == blockers


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(occupancy_case(kinds=KINDS, max_duration=40))
def test_blockers_match_their_definition(case):
    """Over every class ``may_overlap`` tells apart, and rows no shift
    can clear: a failing fit names exactly the streams its scan met."""
    streams, slots, frame, lower = case
    newcomer = streams["new"]
    occupancy = _occupancy(streams, slots)
    try:
        occupancy.earliest_fit(newcomer, frame, lower, 1)
    except _PlacementFailure as failure:
        if lower > window_max_ns(newcomer, frame):
            assert failure.blockers == ()
        else:
            assert failure.blockers == _met_by_lap(
                streams, slots, newcomer, frame, lower
            )


def test_repair_reraises_where_it_failed(star_topology):
    """Three MTU frames fill three of four slots of SW1->D3; the probe's
    earliest fit there busts its deadline, and its release is pushed
    until the frame is past its window: the failing scan meets all
    three slots, so all three streams blocked it."""
    period = 4 * MTU_WIRE_NS
    schedule = empty_schedule(star_topology)
    for i in range(3):
        stream = TctRequirement(
            name=f"s{i}", source="D1", destination="D3",
            period_ns=period, length_bytes=1500,
        ).resolve(star_topology)
        schedule = repair(schedule, [stream])
    probe = TctRequirement(
        name="probe", source="D2", destination="D3", period_ns=period,
        e2e_ns=3 * MTU_WIRE_NS, length_bytes=1500,
        priority=Priorities.NSH_PH,
    ).resolve(star_topology)
    with pytest.raises(InfeasibleError) as failure:
        repair(schedule, [probe])
    assert failure.value.stream == "probe"
    assert failure.value.link == ("SW1", "D3")
    assert failure.value.blockers == ("s0", "s1", "s2")
    assert str(failure.value) == (
        "probe: frame 0 pushed past window max 369120 on ('SW1', 'D3')"
    )
