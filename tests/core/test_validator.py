"""Validator tests: each constraint class must catch tampered schedules."""

import dataclasses

import pytest

from repro.core.heuristic import schedule_heuristic
from repro.core.schedule import (
    ScheduleError,
    earliest_gap_shift,
    periodic_overlap,
    validate,
)
from repro.model.stream import EctStream, Priorities, Stream
from repro.model.units import milliseconds
from tests.conftest import MTU_WIRE_NS


def _schedule(paper_example):
    topo, s1, s2 = paper_example
    return schedule_heuristic(topo, [s1], [s2])


def _shift_slot(schedule, stream_name, link_key, index, new_offset):
    slots = schedule.slots[(stream_name, link_key)]
    slots[index] = slots[index]._replace(offset_ns=new_offset)


class TestTamperDetection:
    def test_clean_schedule_validates(self, paper_example):
        validate(_schedule(paper_example))

    def test_window_violation(self, paper_example):
        schedule = _schedule(paper_example)
        # push a TCT frame past its period
        _shift_slot(schedule, "s1", ("D1", "SW1"), 2,
                    schedule.stream("s1").period_ns - 10)
        with pytest.raises(ScheduleError):
            validate(schedule)

    def test_sequencing_violation(self, paper_example):
        schedule = _schedule(paper_example)
        slots = schedule.slots[("s1", ("D1", "SW1"))]
        # swap frames 0 and 1 in time
        a, b = slots[0], slots[1]
        slots[0] = a._replace(offset_ns=b.offset_ns)
        slots[1] = b._replace(offset_ns=a.offset_ns)
        with pytest.raises(ScheduleError):
            validate(schedule)

    def test_occurrence_violation(self, paper_example):
        schedule = _schedule(paper_example)
        late = [s for s in schedule.probabilistic_streams()
                if s.occurrence_ns > 0][0]
        _shift_slot(schedule, late.name, late.path[0].key, 0, 0)
        with pytest.raises(ScheduleError):
            validate(schedule)

    def test_overlap_violation(self, paper_example):
        schedule = _schedule(paper_example)
        # force a possibility onto the same instant as another parent's
        # stream: fabricate by overlapping prob slot with ... the TCT is
        # shared, so overlap it with itself shifted: move prob slot of
        # ps1 onto ps-of-other-parent is impossible here; instead remove
        # the share flag from s1 and keep its overlapping slots.
        streams = [
            s.with_share(False) if s.name == "s1" else s
            for s in schedule.streams
        ]
        streams = [
            dataclasses.replace(s, priority=Priorities.NSH_PL)
            if s.name == "s1" else s
            for s in streams
        ]
        tampered = dataclasses.replace  # silence lint; direct mutation below
        schedule.streams = streams
        with pytest.raises(ScheduleError):
            validate(schedule)

    def test_missing_slots(self, paper_example):
        schedule = _schedule(paper_example)
        del schedule.slots[("s1", ("SW1", "D3"))]
        with pytest.raises(ScheduleError):
            validate(schedule)

    def test_adjacency_violation(self, paper_example):
        schedule = _schedule(paper_example)
        # make a downstream frame start before its upstream copy finished
        first_up = schedule.slots[("s1", ("D1", "SW1"))][0]
        _shift_slot(schedule, "s1", ("SW1", "D3"), 0, first_up.offset_ns)
        with pytest.raises(ScheduleError):
            validate(schedule)

    def test_e2e_violation(self, two_switch_topology):
        s = Stream(
            name="t", path=tuple(two_switch_topology.shortest_path("D1", "D4")),
            e2e_ns=milliseconds(4), priority=Priorities.NSH_PL,
            length_bytes=1500, period_ns=milliseconds(4),
        )
        schedule = schedule_heuristic(two_switch_topology, [s])
        # tighten the stream's budget below the achieved latency
        achieved = schedule.scheduled_latency_ns("t")
        schedule.streams = [
            dataclasses.replace(s, e2e_ns=achieved - 1)
        ]
        with pytest.raises(ScheduleError):
            validate(schedule)

    def test_alignment_violation(self):
        from repro.model.topology import Topology

        topo = Topology()
        topo.add_switch("SW1")
        topo.add_device("D1")
        topo.add_device("D3")
        topo.add_link("D1", "SW1", time_unit_ns=1000)
        topo.add_link("SW1", "D3", time_unit_ns=1000)
        s = Stream(
            name="t", path=tuple(topo.shortest_path("D1", "D3")),
            e2e_ns=milliseconds(4), priority=Priorities.NSH_PL,
            length_bytes=1500, period_ns=milliseconds(4),
        )
        schedule = schedule_heuristic(topo, [s])
        _shift_slot(schedule, "t", ("D1", "SW1"), 0, 500)  # not a tu multiple
        with pytest.raises(ScheduleError):
            validate(schedule)


class TestGapShift:
    def test_zero_when_disjoint(self):
        assert earliest_gap_shift(0, 5, 100, 50, 5, 100) == 0

    def test_shift_clears_overlap(self):
        shift = earliest_gap_shift(48, 5, 100, 50, 5, 100)
        assert shift > 0
        assert not periodic_overlap(48 + shift, 5, 100, 50, 5, 100)

    def test_shift_is_minimal(self):
        shift = earliest_gap_shift(48, 5, 100, 50, 5, 100)
        for smaller in range(shift):
            assert periodic_overlap(48 + smaller, 5, 100, 50, 5, 100) or smaller == 0

    def test_impossible_separation_raises(self):
        # two 60-long patterns under gcd 100 can never be disjoint
        with pytest.raises(ScheduleError):
            earliest_gap_shift(0, 60, 100, 10, 60, 100)

    def test_cross_period_patterns(self):
        shift = earliest_gap_shift(10, 20, 100, 15, 20, 300)
        assert shift >= 0
        assert not periodic_overlap(10 + shift, 20, 100, 15, 20, 300)
