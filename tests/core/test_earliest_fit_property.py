"""Property tests for the periodic-interval kernel.

``_Occupancy.earliest_fit`` must return the *smallest* offset at or after
the lower bound whose periodic slot pattern avoids every placed slot the
candidate may not overlap — verified against a brute-force scan — and
fail with exactly the message of the restart scan it replaced, which is
kept below, written with ``may_overlap`` and ``earliest_gap_shift``.
The Eq. 5 validators get the same differential against their pair-loop
form, written with ``may_overlap`` and ``periodic_overlap``.
"""

import itertools
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.constraints import window_max_ns
from repro.core.heuristic import _Occupancy, _PlacementFailure
from repro.core.schedule import (
    NetworkSchedule,
    ScheduleError,
    _validate_overlap,
    _validate_overlap_delta,
    earliest_gap_shift,
    periodic_overlap,
)
from repro.model.frame import FrameSlot, FrameVar
from repro.model.stream import Priorities, Stream, StreamType, may_overlap
from repro.model.topology import Topology
from repro.model.units import ceil_to_multiple


def _topo():
    topo = Topology()
    topo.add_switch("SW")
    topo.add_device("A")
    topo.add_device("B")
    topo.add_link("A", "SW")
    topo.add_link("B", "SW")
    return topo


PERIODS = [60, 120, 240]
LINK = ("A", "SW")

#: every class ``may_overlap`` tells apart: a TCT stream that shares its
#: slots or does not, and the possibilities of two different ECT streams
KINDS = ["plain", "sharing", "prob-e1", "prob-e2"]


def _stream(topo, name, period, kind="plain", occurrence=0):
    probabilistic = kind.startswith("prob")
    return Stream(
        name=name, path=(topo.link(*LINK),),
        e2e_ns=period, priority=Priorities.NSH_PL, length_bytes=64,
        period_ns=period, share=kind == "sharing",
        type=StreamType.PROB if probabilistic else StreamType.DET,
        parent=kind[5:] if probabilistic else None,
        occurrence_ns=occurrence if probabilistic else 0,
    )


@st.composite
def occupancy_case(draw, kinds=("plain",), max_duration=12):
    """Placed slots (not necessarily consistent with each other) and a
    candidate.  Durations above 30 make rows no shift can clear
    (``len_a + len_b > gcd``) against the 60 ns periods."""
    topo = _topo()
    streams = {}
    slots = []
    for i in range(draw(st.integers(0, 6))):
        period = draw(st.sampled_from(PERIODS))
        duration = draw(st.integers(1, max_duration))
        offset = draw(st.integers(0, period - duration))
        name = f"s{i}"
        streams[name] = _stream(topo, name, period, draw(st.sampled_from(kinds)))
        slots.append(FrameSlot(name, LINK, 0, offset, period, duration))
    period = draw(st.sampled_from(PERIODS))
    duration = draw(st.integers(1, max_duration))
    lower = draw(st.integers(0, period))
    streams["new"] = _stream(
        topo, "new", period, draw(st.sampled_from(kinds)),
        occurrence=draw(st.integers(0, period - 1)),
    )
    return streams, slots, FrameVar("new", LINK, 0, period, duration), lower


def _occupancy(streams, slots):
    occupancy = _Occupancy(streams)
    for slot in slots:
        occupancy.add(slot)
    return occupancy


def _fit(occupancy, newcomer, frame, lower, tu=1):
    """The kernel's answer: an offset, or its failure text."""
    try:
        return occupancy.earliest_fit(newcomer, frame, lower, tu_ns=tu)
    except _PlacementFailure as exc:
        return str(exc)


def _restart_scan(streams, slots, newcomer, frame, lower, tu=1):
    """The scan the kernel replaced, as its specification: probe the
    slots in order, shift past the first conflict, start over."""
    window_max = window_max_ns(newcomer, frame)
    phi = ceil_to_multiple(max(lower, 0), tu)
    if phi > window_max:
        return (f"new: frame {frame.index} lower bound {lower} beyond "
                f"window max {window_max} on {frame.link}")
    while True:
        for slot in slots:
            if may_overlap(newcomer, streams[slot.stream]):
                continue
            try:
                shift = earliest_gap_shift(
                    phi, frame.duration_ns, frame.period_ns,
                    slot.offset_ns, slot.duration_ns, slot.period_ns,
                )
            except ScheduleError as exc:
                return f"new: {exc}"
            if shift:
                phi += shift
                if phi > window_max:
                    return (f"new: frame {frame.index} pushed past window "
                            f"max {window_max} on {frame.link}")
                break
        else:
            return phi


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(occupancy_case(kinds=KINDS, max_duration=40))
def test_earliest_fit_matches_brute_force(case):
    streams, slots, frame, lower = case
    newcomer = streams["new"]
    blocking = [
        s for s in slots if not may_overlap(newcomer, streams[s.stream])
    ]
    expected = next((
        phi for phi in range(lower, window_max_ns(newcomer, frame) + 1)
        if not any(
            periodic_overlap(phi, frame.duration_ns, frame.period_ns,
                             s.offset_ns, s.duration_ns, s.period_ns)
            for s in blocking
        )
    ), None)
    got = _fit(_occupancy(streams, slots), newcomer, frame, lower)
    if expected is None:
        assert isinstance(got, str)
    else:
        assert got == expected


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(occupancy_case(kinds=KINDS, max_duration=40))
def test_earliest_fit_fails_with_the_restart_scans_message(case):
    streams, slots, frame, lower = case
    newcomer = streams["new"]
    occupancy = _occupancy(streams, slots)
    expected = _restart_scan(streams, slots, newcomer, frame, lower)
    assert _fit(occupancy, newcomer, frame, lower) == expected
    # the rows built for the first probe serve the stream's next frames
    assert _fit(occupancy, newcomer, frame, lower + 7) == _restart_scan(
        streams, slots, newcomer, frame, lower + 7
    )


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(occupancy_case())
def test_earliest_fit_respects_time_unit(case):
    """With a coarser gate granularity, the result is a tu multiple and
    still conflict-free."""
    streams, slots, frame, lower = case
    tu = 4
    # keep every pattern tu-aligned so alignment is achievable
    slots = [
        FrameSlot(s.stream, s.link, 0, (s.offset_ns // tu) * tu,
                  s.period_ns, ((s.duration_ns + tu - 1) // tu) * tu)
        for s in slots
    ]
    period = frame.period_ns
    duration = ((frame.duration_ns + tu - 1) // tu) * tu
    frame = FrameVar("new", LINK, 0, period, duration)
    got = _fit(_occupancy(streams, slots), streams["new"], frame, lower, tu)
    assert got == _restart_scan(
        streams, slots, streams["new"], frame, lower, tu
    )
    if isinstance(got, str):
        return
    assert got % tu == 0
    assert got >= lower
    assert not any(
        periodic_overlap(got, duration, period,
                         s.offset_ns, s.duration_ns, s.period_ns)
        for s in slots
    )


@pytest.mark.parametrize("blocker_ns, verdict", [
    (30, "patterns of lengths 10+55 can never avoid each other"),
    (31, "pushed past window max 50"),
])
def test_unclearable_row_fails_once_the_rows_before_it_are_clear(
    blocker_ns, verdict
):
    """Clearing s1 (12 ns at 0) lands the candidate in s0 (at 20), and
    clearing that ends at 50 or 51 of a window that closes at 50: the
    scan dies on the unclearable s2 only in the first case — one lap
    over s0 and s1 is not enough to tell."""
    topo = _topo()
    streams = {name: _stream(topo, name, 60)
               for name in ("new", "s0", "s1", "s2", "s3")}
    slots = [FrameSlot("s0", LINK, 0, 20, 60, blocker_ns),
             FrameSlot("s1", LINK, 0, 0, 60, 12),
             FrameSlot("s2", LINK, 0, 0, 60, 55),
             FrameSlot("s3", LINK, 0, 0, 60, 58)]
    frame = FrameVar("new", LINK, 0, 60, 10)
    got = _fit(_occupancy(streams, slots), streams["new"], frame, 0)
    assert verdict in got
    assert got == _restart_scan(streams, slots, streams["new"], frame, 0)


def test_rows_follow_an_add_or_release_on_their_link():
    topo = _topo()
    streams = {name: _stream(topo, name, 60) for name in ("new", "s0", "s1")}
    frame = FrameVar("new", LINK, 0, 60, 10)
    occupancy = _occupancy(streams, [FrameSlot("s0", LINK, 0, 0, 60, 10)])
    assert occupancy.earliest_fit(streams["new"], frame, 0, 1) == 10
    occupancy.add(FrameSlot("s1", LINK, 0, 10, 60, 10))
    assert occupancy.earliest_fit(streams["new"], frame, 0, 1) == 20
    occupancy.release([streams["s0"]])
    assert occupancy.earliest_fit(streams["new"], frame, 0, 1) == 0
    assert occupancy.earliest_fit(streams["new"], frame, 5, 1) == 20


@st.composite
def occupancy_history(draw):
    """Placed streams of every class, and a sequence of steps: enter one
    more slot, release a stream, or read the rows for a candidate of a
    drawn class."""
    topo = _topo()
    streams = {}
    for i in range(draw(st.integers(1, 6))):
        name = f"s{i}"
        streams[name] = _stream(topo, name, draw(st.sampled_from(PERIODS)),
                                draw(st.sampled_from(KINDS)))
    for i, kind in enumerate(KINDS):
        for period in PERIODS:
            name = f"c{i}_{period}"
            streams[name] = _stream(topo, name, period, kind)
    steps = []
    for _ in range(draw(st.integers(1, 25))):
        step = draw(st.sampled_from(("add", "add", "read", "release")))
        name = draw(st.sampled_from(sorted(streams)))
        if step == "add":
            period = streams[name].period_ns
            duration = draw(st.integers(1, 12))
            offset = draw(st.integers(0, period - duration))
            steps.append(("add", FrameSlot(name, LINK, 0, offset, period,
                                           duration)))
        else:
            steps.append((step, name))
    return streams, steps


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(occupancy_history())
def test_rows_after_any_history_equal_rows_rebuilt_from_scratch(case):
    """Rows are kept per candidate class and extended from a high-water
    mark: after any interleaving of adds, releases and reads, the rows
    a candidate reads equal the rows a fresh occupancy over the same
    slots builds for it, and every candidate of one class reads the
    same rows."""
    streams, steps = case
    occupancy = _Occupancy(streams)
    for step, arg in steps:
        if step == "add":
            occupancy.add(arg)
        elif step == "release":
            occupancy.release([streams[arg]])
        else:
            candidate = streams[arg]
            frame = FrameVar(arg, LINK, 0, candidate.period_ns, 5)
            fresh = _Occupancy(streams, {
                LINK: list(occupancy.by_link.get(LINK, ()))
            })
            rows = occupancy._rows_against(candidate, frame)
            assert rows == fresh._rows_against(candidate, frame)
            assert rows == [
                (s.offset_ns, s.duration_ns,
                 math.gcd(candidate.period_ns, s.period_ns))
                for s in occupancy.by_link.get(LINK, ())
                if not may_overlap(candidate, streams[s.stream])
            ]


# ----------------------------------------------------------------------
# every pair of classes: kernel and validators agree with may_overlap
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kind_a, kind_b", itertools.product(KINDS, repeat=2)
)
def test_exemption_agrees_with_may_overlap_on_every_class_pair(kind_a, kind_b):
    topo = _topo()
    a = _stream(topo, "new", 60, kind_a)
    b = _stream(topo, "old", 60, kind_b)
    streams = {"new": a, "old": b}
    placed = FrameSlot("old", LINK, 0, 0, 60, 10)
    exempt = may_overlap(a, b)
    assert exempt == may_overlap(b, a)

    fit = _occupancy(streams, [placed]).earliest_fit(
        a, FrameVar("new", LINK, 0, 60, 10), 0, tu_ns=1
    )
    assert fit == (0 if exempt else 10)

    clash = NetworkSchedule(
        topology=topo, streams=[b, a],
        slots={("old", LINK): [placed],
               ("new", LINK): [FrameSlot("new", LINK, 0, 5, 60, 10)]},
    )
    for check in (_validate_overlap,
                  lambda s: _validate_overlap_delta(s, [a])):
        if exempt:
            check(clash)
        else:
            with pytest.raises(ScheduleError, match="overlap but are not"):
                check(clash)


# ----------------------------------------------------------------------
# Eq. 5 validators vs their pair-loop form
# ----------------------------------------------------------------------
def _message(key, a, b):
    return (f"link <{key[0]},{key[1]}>: {a.stream}[{a.index}] and "
            f"{b.stream}[{b.index}] overlap but are not allowed to")


def _overlaps(a, b):
    return periodic_overlap(a.offset_ns, a.duration_ns, a.period_ns,
                            b.offset_ns, b.duration_ns, b.period_ns)


def _pair_loop(schedule):
    """``_validate_overlap`` as a loop over ``may_overlap`` and
    ``periodic_overlap``: its first error, or None."""
    streams = {s.name: s for s in schedule.streams}
    by_link = {}
    for (_, key), frames in schedule.slots.items():
        by_link.setdefault(key, []).extend(frames)
    for key, frames in by_link.items():
        for a, b in itertools.combinations(frames, 2):
            if a.stream != b.stream and _overlaps(a, b) and not may_overlap(
                streams[a.stream], streams[b.stream]
            ):
                return _message(key, a, b)
    return None


def _pair_loop_delta(schedule, changed):
    """What ``_validate_overlap_delta`` may raise, as a loop over
    ``may_overlap`` and ``periodic_overlap``: one message per overlapping
    pair with a changed stream, named in slot-table order as
    ``_validate_overlap`` names it.  Which of them it raises is its own
    (each pair is checked once, from one side)."""
    streams = {s.name: s for s in schedule.streams}
    names = {s.name for s in changed}
    messages = set()
    for key, frames in schedule.slots_by_link.items():
        for a, b in itertools.combinations(frames, 2):
            if (a.stream in names or b.stream in names) and (
                a.stream != b.stream and _overlaps(a, b) and not may_overlap(
                    streams[a.stream], streams[b.stream]
                )
            ):
                messages.add(_message(key, a, b))
    return messages


def _verdict(check, *args):
    try:
        check(*args)
    except ScheduleError as exc:
        return str(exc)
    return None


@st.composite
def packed_schedule_with_one_overlap(draw):
    """Two to eight streams of mixed classes, one or two frames each,
    laid end to end inside the smallest gcd so that nothing overlaps;
    then one slot is moved onto another stream's."""
    topo = _topo()
    streams, slots, cursor = [], {}, 0
    for i in range(draw(st.integers(2, 8))):
        period = draw(st.sampled_from(PERIODS))
        stream = _stream(topo, f"s{i}", period, draw(st.sampled_from(KINDS)))
        frames = []
        for index in range(draw(st.integers(1, 2))):
            duration = draw(st.integers(1, 3))
            frames.append(FrameSlot(
                stream.name, LINK, index, cursor, period, duration
            ))
            cursor += duration + draw(st.integers(0, 1))
        streams.append(stream)
        slots[(stream.name, LINK)] = frames
    mover, target = draw(st.permutations(streams))[:2]
    index = draw(st.integers(0, len(slots[(mover.name, LINK)]) - 1))
    onto = draw(st.sampled_from(slots[(target.name, LINK)]))
    moved = dict(slots)
    moved[(mover.name, LINK)] = list(slots[(mover.name, LINK)])
    moved[(mover.name, LINK)][index] = FrameSlot(
        mover.name, LINK, index, onto.offset_ns,
        mover.period_ns, slots[(mover.name, LINK)][index].duration_ns,
    )
    clean = NetworkSchedule(topology=topo, streams=streams, slots=slots)
    planted = NetworkSchedule(topology=topo, streams=streams, slots=moved)
    return clean, planted, mover, target


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(packed_schedule_with_one_overlap())
def test_overlap_validators_match_their_pair_loops(case):
    clean, planted, mover, target = case
    assert _pair_loop(clean) is None
    assert _verdict(_validate_overlap, clean) is None
    assert _verdict(_validate_overlap_delta, clean, clean.streams) is None

    expected = _pair_loop(planted)
    if not may_overlap(mover, target):
        assert expected is not None
    assert _verdict(_validate_overlap, planted) == expected
    for changed in ([mover], [target, mover], planted.streams):
        allowed = _pair_loop_delta(planted, changed)
        found = _verdict(_validate_overlap_delta, planted, changed)
        assert (found is None) == (not allowed) == (expected is None)
        if allowed:
            assert found in allowed
        if len(allowed) == 1:
            assert found == expected
