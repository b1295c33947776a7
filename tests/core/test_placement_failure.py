"""Where earliest-fit fails is data, not only text.

A frame fails to fit in one of three ways: its lower bound is already
past its window, the rows push it past its window, or a row no shift
can clear.  Each raises ``_PlacementFailure`` with the key of the link
the frame failed on; the last two name the frame's gap cut there, and
a lower bound past the window meets no slot and names none.  For a
deterministic stream whose failure names no gap cut, :func:`repair`
names its *stream cut* instead: release every deterministic stream
looser than it with a slot on its route, place it, and take the
released streams its slots overlap.  :func:`repair` re-raises the
failure as an ``InfeasibleError`` whose ``stream``, ``link`` and
``gap`` say the same.  The texts are pinned byte for byte: rejection
reasons quote them.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.heuristic import (
    _Occupancy,
    _place_stream,
    _PlacementFailure,
    _stream_cut,
    _tightness,
)
from repro.core.incremental import repair
from repro.core.schedule import InfeasibleError, periodic_overlap
from repro.model.frame import FrameSlot, FrameVar
from repro.model.stream import Priorities, StreamType, TctRequirement
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
    # "old" sorts after "new": the one slot, when the scan met it at all
    assert failure.value.gap == (("old",) if placed else ())


def _placed(streams, slots, frame, released):
    """The newcomer's slots, its one ``frame`` placed around ``slots``
    with the streams of ``released`` gone, or ``None`` when it does not
    place."""
    kept = [slot for slot in slots if slot.stream not in released]
    try:
        return _place_stream(
            streams["new"], {("new", LINK): [frame]},
            _occupancy(streams, kept),
        )
    except _PlacementFailure:
        return None


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(occupancy_case(kinds=KINDS, max_duration=40))
def test_the_stream_cut_matches_its_definition(case):
    """Over every class ``may_overlap`` tells apart, and rows no shift
    can clear: when the newcomer fails to place, its stream cut names
    only deterministic streams looser than it, exactly those of them
    whose slots its placement overlaps once every looser stream is
    released; releasing the cut alone places it on the same slots, and
    the cut is empty only when that release does not place it."""
    streams, slots, frame, _ = case
    newcomer = streams["new"]
    if _placed(streams, slots, frame, ()) is not None:
        return
    cut = _stream_cut(
        newcomer, {("new", LINK): [frame]}, _occupancy(streams, slots)
    )
    if newcomer.type != StreamType.DET:
        assert cut == ()
        return
    looser = {
        slot.stream for slot in slots
        if streams[slot.stream].type == StreamType.DET
        and _tightness(streams[slot.stream]) > _tightness(newcomer)
    }
    everything = _placed(streams, slots, frame, looser)
    if everything is None:
        assert cut == ()
        return
    assert cut and set(cut) <= looser
    assert set(cut) == {
        slot.stream for slot in slots if slot.stream in looser
        and any(periodic_overlap(
            new.offset_ns, new.duration_ns, new.period_ns,
            slot.offset_ns, slot.duration_ns, slot.period_ns,
        ) for new in everything)
    }
    assert _placed(streams, slots, frame, cut) == everything


def test_repair_reraises_where_it_failed(star_topology):
    """Three MTU frames fill three of four slots of SW1->D3; the probe's
    earliest fit there busts its deadline, and its release is pushed
    until the frame is past its window.  All three streams are looser
    than the probe (a greater e2e budget); no offset of its window is
    free, and the earliest that overlaps one slot alone overlaps
    ``s0``'s: the gap cut is ``s0``."""
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
    assert failure.value.gap == ("s0",)
    assert str(failure.value) == (
        "probe: frame 0 pushed past window max 369120 on ('SW1', 'D3')"
    )
