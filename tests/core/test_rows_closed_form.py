"""Earliest-fit decides the Eq. 5 exemption per candidate class in
closed form, not with one ``may_overlap`` call per placed stream.

``may_overlap`` stays the specification: the restart scan of
``test_earliest_fit_property`` is written with it, and the property
tests there pin the rows and offsets to it for every class.  Here a
counting patch shows the kernel itself never calls it.
"""

import pytest

from repro.core import heuristic
from repro.core.heuristic import _Occupancy
from repro.model.frame import FrameSlot, FrameVar
from repro.model.stream import may_overlap
from tests.core.test_earliest_fit_property import (
    LINK,
    _restart_scan,
    _stream,
    _topo,
)

#: one link holding a plain TCT slot, a sharing TCT slot and a slot of
#: each of two ECT parents' possibilities, back to back on 60 ns
PLACED = [("plain", 0), ("sharing", 10), ("prob-e1", 20), ("prob-e2", 30)]


@pytest.mark.parametrize("kind, expected", [
    ("plain", 40),    # clear of every slot
    ("sharing", 20),  # may overlap both parents' possibilities
    ("prob-e1", 10),  # may overlap the sharing slot and e1's possibility
    ("prob-e2", 10),
])
def test_earliest_fit_makes_no_may_overlap_call(kind, expected, monkeypatch):
    topo = _topo()
    streams = {
        f"s{i}": _stream(topo, f"s{i}", 60, placed_kind)
        for i, (placed_kind, _) in enumerate(PLACED)
    }
    slots = [
        FrameSlot(f"s{i}", LINK, 0, offset, 60, 10)
        for i, (_, offset) in enumerate(PLACED)
    ]
    streams["new"] = newcomer = _stream(topo, "new", 60, kind)
    frame = FrameVar("new", LINK, 0, 60, 10)
    occupancy = _Occupancy(streams)
    for slot in slots:
        occupancy.add(slot)
    calls = []

    def counting(a, b):
        calls.append((a.name, b.name))
        return may_overlap(a, b)

    monkeypatch.setattr(heuristic, "may_overlap", counting, raising=False)
    got = occupancy.earliest_fit(newcomer, frame, 0, tu_ns=1)
    assert calls == []
    assert got == expected
    assert got == _restart_scan(streams, slots, newcomer, frame, 0)
