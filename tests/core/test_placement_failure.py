"""Where earliest-fit fails is data, not only text.

A frame fails to fit in one of three ways: its lower bound is already
past its window, the rows push it past its window, or a row no shift
can clear.  Each raises ``_PlacementFailure`` with the key of the link
the frame failed on, and :func:`repair` re-raises it as an
``InfeasibleError`` whose ``stream`` and ``link`` say the same.  The
texts are pinned byte for byte: rejection reasons quote them.
"""

import pytest

from repro.core.heuristic import _Occupancy, _PlacementFailure
from repro.core.incremental import repair
from repro.core.schedule import InfeasibleError
from repro.model.frame import FrameSlot, FrameVar
from repro.model.stream import Priorities, TctRequirement
from repro.service import empty_schedule
from tests.conftest import MTU_WIRE_NS
from tests.core.test_earliest_fit_property import LINK, _stream, _topo


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


def test_repair_reraises_where_it_failed(star_topology):
    """Three MTU frames fill three of four slots of SW1->D3; the probe's
    earliest fit there busts its deadline, and its release is pushed
    until the frame is past its window."""
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
    assert str(failure.value) == (
        "probe: frame 0 pushed past window max 369120 on ('SW1', 'D3')"
    )
