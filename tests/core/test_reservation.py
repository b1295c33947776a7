"""Prudent reservation tests (paper Alg. 1)."""

from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import incremental
from repro.core.heuristic import schedule_heuristic
from repro.core.probabilistic import expand_ect
from repro.core.reservation import (
    RESERVATION_MODES,
    prudent_reservation,
    total_extra_slots,
)
from repro.core.schedule import InfeasibleError
from repro.model.stream import EctStream, Priorities, Stream, StreamType
from repro.model.units import milliseconds
from tests.conftest import MTU_WIRE_NS


def _tct(topo, name, src, dst, share, length=1500, period=None):
    period = period or milliseconds(16)
    priority = Priorities.SH_PL if share else Priorities.NSH_PL
    return Stream(
        name=name, path=tuple(topo.shortest_path(src, dst)),
        e2e_ns=period, priority=priority, length_bytes=length,
        period_ns=period, share=share,
    )


def _ect(src="D2", dst="D3", length=1500, possibilities=4):
    return EctStream(
        name="e1", source=src, destination=dst,
        min_interevent_ns=milliseconds(16), length_bytes=length,
        possibilities=possibilities,
    )


class TestAlgorithmOne:
    def test_no_ect_no_extras(self, star_topology):
        s = _tct(star_topology, "t1", "D1", "D3", share=True)
        plan = prudent_reservation([s])
        assert total_extra_slots(plan) == 0
        for link in s.path:
            assert plan.frames_on(s, link.key) == 1

    def test_nonshared_gets_no_extras(self, star_topology):
        s = _tct(star_topology, "t1", "D1", "D3", share=False)
        probs = expand_ect(_ect(), star_topology)
        plan = prudent_reservation([s] + probs)
        assert total_extra_slots(plan) == 0

    def test_extras_only_on_overlapping_links(self, star_topology):
        """Paper Sec. III-D: s1 (D1->D3) and ECT (D2->D3) only overlap on
        SW1->D3; the D1->SW1 link must not get extras."""
        s = _tct(star_topology, "t1", "D1", "D3", share=True)
        probs = expand_ect(_ect(), star_topology)
        plan = prudent_reservation([s] + probs)
        assert plan.extra_on(s, ("D1", "SW1")) == 0
        assert plan.extra_on(s, ("SW1", "D3")) >= 1

    def test_extra_count_formula(self, star_topology):
        """Paper mode: n = ect_frames * ceil(tct_wire_time / min_interevent)."""
        s = _tct(star_topology, "t1", "D1", "D3", share=True, length=3 * 1500)
        probs = expand_ect(_ect(length=1500), star_topology)
        plan = prudent_reservation([s] + probs, mode="paper")
        tct_wire = 3 * MTU_WIRE_NS
        expected = 1 * -(-tct_wire // milliseconds(16))  # = 1
        assert plan.extra_on(s, ("SW1", "D3")) == expected

    def test_multi_frame_ect_multiplies_extras(self, star_topology):
        s = _tct(star_topology, "t1", "D1", "D3", share=True)
        probs = expand_ect(_ect(length=3 * 1500), star_topology)
        plan = prudent_reservation([s] + probs, mode="paper")
        assert plan.extra_on(s, ("SW1", "D3")) == 3

    def test_extras_counted_once_per_parent_not_per_possibility(self, star_topology):
        s = _tct(star_topology, "t1", "D1", "D3", share=True)
        few = prudent_reservation([s] + expand_ect(_ect(possibilities=2), star_topology))
        many = prudent_reservation([s] + expand_ect(_ect(possibilities=8), star_topology))
        assert (few.extra_on(s, ("SW1", "D3"))
                == many.extra_on(s, ("SW1", "D3")))

    def test_two_ect_streams_sum(self, two_switch_topology):
        s = _tct(two_switch_topology, "t1", "D1", "D4", share=True)
        e1 = EctStream("e1", "D2", "D4", min_interevent_ns=milliseconds(16),
                       length_bytes=1500, possibilities=4)
        e2 = EctStream("e2", "D2", "D3", min_interevent_ns=milliseconds(16),
                       length_bytes=1500, possibilities=4)
        probs = (expand_ect(e1, two_switch_topology)
                 + expand_ect(e2, two_switch_topology))
        plan = prudent_reservation([s] + probs, mode="paper")
        # both ECT streams cross SW1->SW2; only e1 reaches SW2->D4
        assert plan.extra_on(s, ("SW1", "SW2")) == 2
        assert plan.extra_on(s, ("SW2", "D4")) == 1
        assert plan.extra_on(s, ("D1", "SW1")) == 0

    def test_probabilistic_streams_get_base_counts(self, star_topology):
        probs = expand_ect(_ect(), star_topology)
        plan = prudent_reservation(probs)
        for p in probs:
            for link in p.path:
                assert plan.frames_on(p, link.key) == 1
                assert plan.extra_on(p, link.key) == 0

    def test_slow_ect_can_displace_more(self, star_topology):
        """A long TCT message spanning several minimum inter-event times
        must reserve one displacement slot per possible event."""
        s = _tct(star_topology, "t1", "D1", "D3", share=True,
                 length=10 * 1500, period=milliseconds(16))
        fast_ect = EctStream("e1", "D2", "D3",
                             min_interevent_ns=milliseconds(1),
                             length_bytes=1500, possibilities=4)
        probs = expand_ect(fast_ect, star_topology)
        plan = prudent_reservation([s] + probs, mode="paper")
        tct_wire = 10 * MTU_WIRE_NS  # ~1.23 ms > 1 ms min inter-event
        assert plan.extra_on(s, ("SW1", "D3")) == -(-tct_wire // milliseconds(1))


class TestAdjacentOffset:
    def test_offset_matches_count_difference(self, two_switch_topology):
        s = _tct(two_switch_topology, "t1", "D1", "D4", share=True)
        probs = expand_ect(
            EctStream("e1", "D2", "D4", min_interevent_ns=milliseconds(16),
                      length_bytes=1500, possibilities=4),
            two_switch_topology,
        )
        plan = prudent_reservation([s] + probs)
        # D1->SW1 has no extras; SW1->SW2 has one -> downstream has MORE
        assert plan.adjacent_offset(s, ("D1", "SW1"), ("SW1", "SW2")) == 0
        # SW1->SW2 (2 frames) feeds SW2->D4 (2 frames): offset 0
        assert plan.adjacent_offset(s, ("SW1", "SW2"), ("SW2", "D4")) == 0

    def test_offset_positive_when_upstream_longer(self, star_topology):
        s = _tct(star_topology, "t1", "D2", "D3", share=True)
        probs = expand_ect(_ect(src="D2", dst="D3"), star_topology)
        plan = prudent_reservation([s] + probs)
        # both links shared: equal counts, offset 0 both ways
        assert plan.adjacent_offset(s, ("D2", "SW1"), ("SW1", "D3")) == 0


class TestRobustMode:
    """The sound generalization: event-sized extra windows."""

    def test_event_count(self, star_topology):
        # period 16 ms, min inter-event 16 ms: floor(16/16) + 1 = 2 events
        s = _tct(star_topology, "t1", "D1", "D3", share=True)
        probs = expand_ect(_ect(), star_topology)
        plan = prudent_reservation([s] + probs, mode="robust")
        assert plan.extra_on(s, ("SW1", "D3")) == 2

    def test_extra_window_sized_for_event_block(self, star_topology):
        """Each extra window covers the whole event transmission plus two
        TCT-frame pads — sound even when TCT frames are much shorter than
        the ECT message."""
        s = _tct(star_topology, "t1", "D1", "D3", share=True, length=400)
        probs = expand_ect(_ect(length=1500), star_topology)
        plan = prudent_reservation([s] + probs, mode="robust")
        link = next(l for l in s.path if l.key == ("SW1", "D3"))
        sizes = plan.extra_durations_on(s, ("SW1", "D3"))
        assert sizes
        ect_block = probs[0].transmission_ns(link)
        tct_frame = s.transmission_ns(link)
        assert all(size == ect_block + 2 * tct_frame for size in sizes)

    def test_robust_reserves_more_time_than_paper_for_short_frames(self, star_topology):
        from repro.core.reservation import total_extra_time_ns

        s = _tct(star_topology, "t1", "D1", "D3", share=True, length=400)
        probs = expand_ect(_ect(length=1500), star_topology)
        streams = [s] + probs
        paper = prudent_reservation(streams, mode="paper")
        robust = prudent_reservation(streams, mode="robust")
        assert (total_extra_time_ns(robust, streams)
                > total_extra_time_ns(paper, streams))

    def test_unknown_mode_rejected(self, star_topology):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            prudent_reservation([], mode="magic")

    def test_extra_windows_follow_the_ect_parents_first_appearance(
        self, two_switch_topology
    ):
        """The order of a row's extra windows is part of the plan (frame
        ``base + k`` takes ``extra_durations[k]``): per link, one run of
        windows per ECT parent, the parents in the order their first
        possibility appears among the streams."""
        topo = two_switch_topology
        s = _tct(topo, "t1", "D1", "D4", share=True, length=400,
                 period=milliseconds(8))
        short = EctStream("short", "D2", "D4", milliseconds(16), 200,
                          possibilities=2)
        long = EctStream("long", "D2", "D3", milliseconds(4), 3000,
                         possibilities=2)
        (shared,) = [l for l in s.path if l.key == ("SW1", "SW2")]
        pad = 2 * s.transmission_ns(shared)
        windows = {}
        for ect, events in ((short, 1), (long, 3)):
            block = expand_ect(ect, topo)[0].transmission_ns(shared)
            windows[ect.name] = [block + pad] * events
        assert windows["short"] != windows["long"]
        for first, second in ((short, long), (long, short)):
            probs = expand_ect(first, topo) + expand_ect(second, topo)
            plan = prudent_reservation([s] + probs, mode="robust")
            assert plan.extra_durations_on(s, shared.key) == (
                windows[first.name] + windows[second.name]
            )
            # interleaving the possibilities does not reorder the parents
            mixed = prudent_reservation(
                [probs[0], probs[2], s, probs[3], probs[1]], mode="robust"
            )
            assert (mixed.extra_durations_on(s, shared.key)
                    == plan.extra_durations_on(s, shared.key))


# ----------------------------------------------------------------------
# the online primitives plan locally; the rows are the whole plan's
# ----------------------------------------------------------------------
DEVICES = ["D1", "D2", "D3", "D4"]

_STEP = st.tuples(
    st.sampled_from(["ect", "share", "tct", "remove-ect", "resolve"]),
    st.permutations(DEVICES).map(lambda devices: tuple(devices[:2])),
    st.sampled_from([200, 1500, 3000]),
    st.sampled_from([4, 8, 16]),
)


def _planned(edit, schedule, *args, **kwargs):
    """Run one online edit; its result (``None`` when nothing fits) and
    the one reservation plan it computed on the way."""
    plans = []

    def recording(*a, **k):
        plans.append(prudent_reservation(*a, **k))
        return plans[-1]

    with mock.patch.object(incremental, "prudent_reservation", recording):
        try:
            result = edit(schedule, *args, validate_result=False, **kwargs)
        except InfeasibleError:
            result = None
    (plan,) = plans
    return result, plan


def _assert_rows_of_the_whole_plan(local, population):
    whole = prudent_reservation(population, mode=local.mode)
    assert local.counts
    for key in local.counts:
        assert local.counts[key] == whole.counts[key]
        assert local.extras[key] == whole.extras[key]
        # list equality: the windows and their order
        assert (local.extra_durations.get(key, [])
                == whole.extra_durations.get(key, []))
    assert set(local.extras) == set(local.counts)
    assert set(local.extra_durations) <= set(local.counts)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(mode=st.sampled_from(RESERVATION_MODES),
       steps=st.lists(_STEP, max_size=6))
@example(mode="robust", steps=[
    ("ect", ("D1", "D3"), 3000, 4), ("share", ("D2", "D4"), 200, 8),
    ("remove-ect", ("D1", "D2"), 200, 4), ("share", ("D1", "D4"), 200, 16),
    ("resolve", ("D1", "D2"), 200, 4), ("share", ("D2", "D3"), 1500, 4),
    ("ect", ("D2", "D4"), 200, 16),
])
def test_online_plans_are_rows_of_the_whole_population_plan(
    two_switch_topology, mode, steps
):
    """Beside two live ECT of different lengths and periods — and after
    an ECT removal, and after a full re-solve has re-ordered the slot
    table — what ``add_ect_stream`` / ``add_shared_tct_stream`` plan for
    the streams they place is, row for row and window for window, what
    Alg. 1 over the whole population says about those streams."""
    topo = two_switch_topology  # only read
    schedule = schedule_heuristic(
        topo,
        [_tct(topo, "seed-sh", "D1", "D4", share=True, length=800,
              period=milliseconds(8)),
         _tct(topo, "seed", "D2", "D3", share=False, length=400,
              period=milliseconds(4))],
        [EctStream("ea", "D2", "D4", milliseconds(16), 1500, possibilities=4),
         EctStream("eb", "D1", "D3", milliseconds(8), 300, possibilities=2)],
        reservation_mode=mode,
    )
    for i, (kind, (src, dst), length, period_ms) in enumerate(steps):
        result = None
        if kind == "ect":
            ect = EctStream(f"e{i}", src, dst, milliseconds(period_ms),
                            length, possibilities=2)
            result, plan = _planned(
                incremental.add_ect_stream, schedule, ect,
                reservation_mode=mode,
            )
            _assert_rows_of_the_whole_plan(
                plan, schedule.streams + expand_ect(ect, topo)
            )
        elif kind in ("share", "tct"):
            stream = _tct(topo, f"t{i}", src, dst, share=kind == "share",
                          length=length, period=milliseconds(period_ms))
            result, plan = _planned(
                incremental.add_shared_tct_stream, schedule, stream,
                reservation_mode=mode,
            )
            _assert_rows_of_the_whole_plan(plan, schedule.streams + [stream])
        elif kind == "remove-ect" and schedule.ect_streams:
            result = incremental.remove_stream(
                schedule, schedule.ect_streams[0].name, validate_result=False
            )
        elif kind == "resolve":
            # what the service's ``full`` rung does with a snapshot
            try:
                result = schedule_heuristic(
                    topo,
                    [s for s in schedule.streams if s.type == StreamType.DET],
                    schedule.ect_streams, reservation_mode=mode,
                )
            except InfeasibleError:
                pass
        if result is not None:
            schedule = result
