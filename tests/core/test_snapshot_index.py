"""The carried indexes are what ``slots`` and ``streams`` say, always.

A :class:`NetworkSchedule` carries two derived indexes — per-link slot
lists and ``name -> Stream`` — that :mod:`repro.core.incremental` hands
from one version to the next instead of rebuilding.  Three things keep
that honest:

* after any sequence of online edits the carried indexes equal the ones
  rebuilt from ``slots`` / ``streams`` (same order), the input schedule
  is untouched, and the independent validator passes;
* :func:`validate` never reads an index, so neither a stale nor a
  corrupted one can change its verdict;
* :func:`validate_delta`, which does trust them, reaches
  :func:`validate`'s verdict on every constraint class — with one
  changed stream or several, and with a re-placed stream that landed
  on its old slots left out.
"""

import copy
import dataclasses
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.heuristic import schedule_heuristic
from repro.core.incremental import (
    add_ect_stream,
    add_shared_tct_stream,
    add_tct_stream,
    remove_stream,
)
from repro.core.schedule import (
    InfeasibleError,
    NetworkSchedule,
    ScheduleError,
    moved_streams,
    validate,
    validate_delta,
)
from repro.model.stream import EctStream, Priorities, Stream, TctRequirement
from repro.model.topology import Topology
from repro.model.units import milliseconds
from repro.service import (
    AdmitEct,
    AdmitTct,
    Remove,
    fastpath,
)

DEVICES = ["D1", "D2", "D3", "D4"]
PERIODS = [milliseconds(4), milliseconds(8), milliseconds(16)]


def _topology(time_unit_ns=1):
    topo = Topology()
    topo.add_switch("SW1")
    topo.add_switch("SW2")
    for device, switch in (("D1", "SW1"), ("D2", "SW1"),
                           ("D3", "SW2"), ("D4", "SW2")):
        topo.add_device(device)
        topo.add_link(device, switch, time_unit_ns=time_unit_ns)
    topo.add_link("SW1", "SW2", time_unit_ns=time_unit_ns)
    return topo


# ----------------------------------------------------------------------
# (a) carried == rebuilt, inputs untouched, validator green
# ----------------------------------------------------------------------
def _rebuilt_by_link(schedule):
    index = {}
    for (_, link_key), frames in schedule.slots.items():
        for frame in frames:
            index.setdefault(link_key, []).append(frame)
    return index


def _assert_indexes_match_slot_table(schedule):
    assert schedule.slots_by_link == _rebuilt_by_link(schedule)
    assert list(schedule.streams_by_name.items()) == [
        (s.name, s) for s in schedule.streams
    ]


def _assert_same_value(schedule, frozen):
    """``schedule`` still is what the deep copy taken before the call
    says, dict order and carried indexes included."""
    assert list(schedule.slots.items()) == list(frozen.slots.items())
    assert schedule.streams == frozen.streams
    assert schedule.ect_streams == frozen.ect_streams
    assert schedule.meta == frozen.meta
    assert schedule._by_link == frozen._by_link
    assert list(schedule._by_name.items()) == list(frozen._by_name.items())


@st.composite
def _endpoints(draw):
    src = draw(st.sampled_from(DEVICES))
    dst = draw(st.sampled_from([d for d in DEVICES if d != src]))
    return src, dst


@st.composite
def _tct(draw, name):
    src, dst = draw(_endpoints())
    share = draw(st.booleans())
    return TctRequirement(
        name=name, source=src, destination=dst,
        period_ns=draw(st.sampled_from(PERIODS)),
        # 30 kB on a 4 ms period cannot fit: a failing admit
        length_bytes=draw(st.sampled_from([100, 800, 3000, 30000])),
        priority=Priorities.SH_PL if share else Priorities.NSH_PL,
        share=share,
    )


@st.composite
def _ect(draw, name):
    src, dst = draw(_endpoints())
    return EctStream(
        name=name, source=src, destination=dst,
        min_interevent_ns=milliseconds(16),
        length_bytes=draw(st.sampled_from([200, 1500])),
        possibilities=draw(st.sampled_from([2, 4])),
    )


@st.composite
def _requests(draw):
    """Admits under fresh names — a TCT now and then under the name a
    later ECT's possibility will want (that ECT admit must fail and
    leave its input alone); removes mostly of a name admitted earlier
    (TCT or ECT, possibly refused or already removed), now and then of
    one that never was."""
    requests, names = [], []
    for i in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["tct", "tct", "ect", "remove"]))
        if kind == "tct":
            name = draw(st.sampled_from(
                [f"t{i}", f"t{i}", f"e{i + 1}#ps1", f"e{i + 2}#ps2"]
            ))
            requests.append(AdmitTct(draw(_tct(name))))
        elif kind == "ect":
            requests.append(AdmitEct(draw(_ect(f"e{i}"))))
        else:
            name = draw(st.sampled_from(names + ["ghost"]))
            if name in names:
                names.remove(name)
            requests.append(Remove(name))
            continue
        names.append(requests[-1].stream_name)
    return requests


def _apply_one(schedule, request):
    if isinstance(request, AdmitTct):
        stream = request.requirement.resolve(schedule.topology)
        add = add_shared_tct_stream if stream.share else add_tct_stream
        return add(schedule, stream, validate_result=False)
    if isinstance(request, AdmitEct):
        return add_ect_stream(schedule, request.ect, validate_result=False)
    return remove_stream(schedule, request.name, validate_result=False)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_requests(), st.booleans(), st.integers(1, 3))
@example([
    AdmitTct(TctRequirement(
        name="e1#ps1", source="D2", destination="D3",
        period_ns=milliseconds(16), length_bytes=100,
        priority=Priorities.NSH_PL,
    )),
    AdmitEct(EctStream(
        name="e1", source="D2", destination="D3",
        min_interevent_ns=milliseconds(16), length_bytes=200,
        possibilities=2,
    )),
], False, 1)
def test_edits_carry_the_index_and_never_touch_their_input(
    requests, seeded, batch_size
):
    topo = _topology()
    schedule = schedule_heuristic(topo, [
        TctRequirement(
            name="seed", source="D1", destination="D4",
            period_ns=milliseconds(8), length_bytes=1500,
            priority=Priorities.SH_PL, share=True,
        ).resolve(topo)
    ] if seeded else [])
    _assert_indexes_match_slot_table(schedule)
    for start in range(0, len(requests), batch_size):
        batch = requests[start:start + batch_size]
        frozen = copy.deepcopy(schedule)
        try:
            if batch_size == 1:
                result = _apply_one(schedule, batch[0])
            else:
                result = fastpath.ResolvedBatch(schedule, batch).place()
        except (InfeasibleError, ValueError, KeyError):
            result = schedule  # a failed edit: nothing to adopt
        _assert_same_value(schedule, frozen)
        _assert_indexes_match_slot_table(result)
        validate(result)
        schedule = result


def test_a_removal_heavy_chain_carries_the_index():
    """An edit copies the outer tables with ``dict.copy()``, which clones
    a table's deleted entries along with its live ones.  Over a long
    chain where most edits remove, every copy after the first removals
    is of a table with holes in it — the index it carries must still be
    the rebuilt one, in order."""
    rng = random.Random(7)
    topo = _topology()
    schedule = schedule_heuristic(topo, [])
    _assert_indexes_match_slot_table(schedule)
    live, removals = [], 0
    for i in range(240):
        if live and (len(live) > 12 or rng.random() < 0.65):
            request = Remove(live.pop(rng.randrange(len(live))))
            removals += 1
        elif rng.random() < 0.2:
            request = AdmitEct(EctStream(
                name=f"e{i}", source="D1", destination="D4",
                min_interevent_ns=milliseconds(16), length_bytes=200,
                possibilities=2,
            ))
        else:
            src, dst = rng.sample(DEVICES, 2)
            share = rng.random() < 0.5
            request = AdmitTct(TctRequirement(
                name=f"t{i}", source=src, destination=dst,
                period_ns=rng.choice(PERIODS), length_bytes=100,
                priority=Priorities.SH_PL if share else Priorities.NSH_PL,
                share=share,
            ))
        frozen = copy.deepcopy(schedule)
        result = _apply_one(schedule, request)
        if not isinstance(request, Remove):
            live.append(request.stream_name)
        _assert_same_value(schedule, frozen)
        _assert_indexes_match_slot_table(result)
        validate(result)
        schedule = result
    assert removals >= 120
# ----------------------------------------------------------------------
# (b) the full validator is independent of the indexes
# ----------------------------------------------------------------------
def _indexed(paper_example):
    topo, s1, s2 = paper_example
    schedule = schedule_heuristic(topo, [s1], [s2])
    schedule.slots_by_link, schedule.streams_by_name  # build both
    return schedule


def _corrupt_indexes(schedule):
    schedule._by_link = {}
    schedule._by_name = {"ghost": schedule.streams[0]}


class TestValidateNeverReadsAnIndex:
    def test_tampered_slot_is_caught_behind_a_built_index(
        self, paper_example
    ):
        schedule = _indexed(paper_example)
        slots = schedule.slots[("s1", ("SW1", "D3"))]
        upstream = schedule.slots[("s1", ("D1", "SW1"))][0]
        # the index still holds the honest slot: Eq. 7 breaks in
        # ``slots`` only
        slots[0] = slots[0]._replace(offset_ns=upstream.offset_ns)
        assert slots[0] not in schedule.slots_by_link[("SW1", "D3")]
        with pytest.raises(ScheduleError, match="Eq. 7"):
            validate(schedule)

    def test_corrupt_index_does_not_fail_a_valid_schedule(
        self, paper_example
    ):
        schedule = _indexed(paper_example)
        _corrupt_indexes(schedule)
        validate(schedule)

    def test_corrupt_index_does_not_change_the_failure(self, paper_example):
        messages = []
        for corrupt in (False, True):
            schedule = _indexed(paper_example)
            del schedule.slots[("s1", ("SW1", "D3"))]
            if corrupt:
                _corrupt_indexes(schedule)
            with pytest.raises(ScheduleError) as caught:
                validate(schedule)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]


# ----------------------------------------------------------------------
# (c) validate_delta reaches validate's verdict, class by class
# ----------------------------------------------------------------------
def _rebuilt(schedule, slots=None, streams=None):
    """A fresh schedule (indexes unbuilt) over edited copies."""
    return NetworkSchedule(
        topology=schedule.topology,
        streams=list(schedule.streams if streams is None else streams),
        slots={k: list(v) for k, v in (slots or schedule.slots).items()},
        ect_streams=list(schedule.ect_streams),
    )


def _moved(schedule, key, index, offset_ns):
    slots = {k: list(v) for k, v in schedule.slots.items()}
    slots[key][index] = slots[key][index]._replace(offset_ns=offset_ns)
    return _rebuilt(schedule, slots)


@pytest.fixture
def admitted():
    """``new`` (two frames, D2 -> D1, not sharing) admitted online beside
    a sharing TCT and an ECT stream whose possibilities share ``new``'s
    first link; ``new``'s second link is otherwise empty."""
    topo = _topology(time_unit_ns=1000)
    period = milliseconds(8)
    s1 = Stream(
        name="s1", path=tuple(topo.shortest_path("D1", "D3")),
        e2e_ns=period, priority=Priorities.SH_PL, length_bytes=3000,
        period_ns=period, share=True,
    )
    ect = EctStream(name="e", source="D2", destination="D3",
                    min_interevent_ns=milliseconds(16), length_bytes=1500,
                    possibilities=4)
    new = Stream(
        name="new", path=tuple(topo.shortest_path("D2", "D1")),
        e2e_ns=period, priority=Priorities.NSH_PL, length_bytes=3000,
        period_ns=period,
    )
    base = schedule_heuristic(topo, [s1], [ect])
    return add_tct_stream(base, new, validate_result=False)


UP, DOWN = ("D2", "SW1"), ("SW1", "D1")


def _without_down_link(schedule):
    slots = dict(schedule.slots)
    del slots[("new", DOWN)]
    return _rebuilt(schedule, slots)


def _past_the_window(schedule):
    return _moved(schedule, ("new", DOWN), 1, milliseconds(8) - 1000)


def _frames_swapped(schedule):
    first, second = schedule.slots[("new", UP)]
    swapped = _moved(schedule, ("new", UP), 0, second.offset_ns)
    return _moved(swapped, ("new", UP), 1, first.offset_ns)


def _budget_cut(schedule):
    achieved = schedule.scheduled_latency_ns("new")
    return _rebuilt(schedule, streams=[
        dataclasses.replace(s, e2e_ns=achieved - 1) if s.name == "new" else s
        for s in schedule.streams
    ])


def _onto_a_possibility(schedule):
    taken = schedule.slots[("e#ps1", UP)][0]
    return _moved(schedule, ("new", UP), 0, taken.offset_ns)


def _before_upstream_reception(schedule):
    upstream = schedule.slots[("new", UP)][0]
    return _moved(schedule, ("new", DOWN), 0, upstream.offset_ns)


def _off_the_gate_grid(schedule):
    last = schedule.slots[("new", DOWN)][1]
    return _moved(schedule, ("new", DOWN), 1, last.offset_ns + 500)


@pytest.mark.parametrize("plant, witness", [
    (_without_down_link, "no slots on link"),
    (_past_the_window, "leaves window"),
    (_frames_swapped, "after frame"),
    (_budget_cut, "exceeds budget"),
    (_onto_a_possibility, "overlap but are not allowed to"),
    (_before_upstream_reception, "Eq. 7"),
    (_off_the_gate_grid, "not aligned"),
])
def test_delta_and_full_validation_agree_on_a_changed_stream(
    admitted, plant, witness
):
    validate(admitted)
    validate_delta(admitted, {"new"})
    planted = plant(admitted)
    with pytest.raises(ScheduleError, match=witness):
        validate(planted)
    with pytest.raises(ScheduleError, match=witness):
        validate_delta(planted, {"new"})


def test_delta_and_full_validation_agree_on_the_occurrence_time():
    """Eq. 2 binds probabilistic streams only: the changed streams are
    the possibilities an online ECT admit placed."""
    topo = _topology()
    ect = EctStream(name="e", source="D2", destination="D3",
                    min_interevent_ns=milliseconds(16), length_bytes=1500,
                    possibilities=4)
    admitted = add_ect_stream(
        schedule_heuristic(topo, []), ect, validate_result=False
    )
    changed = {s.name for s in admitted.possibilities_of("e")}
    assert len(changed) == 4
    validate(admitted)
    validate_delta(admitted, changed)
    planted = _moved(admitted, ("e#ps3", ("D2", "SW1")), 0, 0)
    with pytest.raises(ScheduleError, match="Eq. 2"):
        validate(planted)
    with pytest.raises(ScheduleError, match="Eq. 2"):
        validate_delta(planted, changed)


def test_delta_validation_rejects_a_name_the_schedule_lacks(admitted):
    with pytest.raises(ScheduleError, match=r"\['ghost'\] are not in"):
        validate_delta(admitted, {"new", "ghost"})


# ----------------------------------------------------------------------
# (d) several changed streams: each pair once, unmoved streams left out
# ----------------------------------------------------------------------
def _one_frame(topo, name, source, destination, period_ms=8):
    return Stream(
        name=name, path=tuple(topo.shortest_path(source, destination)),
        e2e_ns=milliseconds(period_ms), priority=Priorities.NSH_PL,
        length_bytes=1500, period_ns=milliseconds(period_ms),
    )


def _same_verdict(planted, changed):
    """validate and validate_delta raise the very same message."""
    with pytest.raises(ScheduleError) as full:
        validate(planted)
    with pytest.raises(ScheduleError) as delta:
        validate_delta(planted, changed)
    assert "overlap but are not allowed to" in str(full.value)
    assert str(delta.value) == str(full.value)


@pytest.fixture
def two_admitted():
    """``u`` (D2 -> D3) in the base; two one-frame streams D2 -> D1
    admitted online one after the other, named by the test."""
    def build(first, second):
        topo = _topology(time_unit_ns=1000)
        base = schedule_heuristic(topo, [_one_frame(topo, "u", "D2", "D3")])
        schedule = add_tct_stream(base, _one_frame(topo, first, "D2", "D1"))
        return add_tct_stream(schedule, _one_frame(topo, second, "D2", "D1"))
    return build


@pytest.mark.parametrize("first, second", [("a", "b"), ("b", "a")])
def test_an_overlap_between_two_changed_streams(two_admitted, first, second):
    """The later-placed stream moves onto the earlier one's slot on
    their first link; with the names in either order the delta check
    finds the pair once and names it as validate() does."""
    admitted = two_admitted(first, second)
    changed = {first, second}
    validate_delta(admitted, changed)
    taken = admitted.slots[(first, UP)][0]
    _same_verdict(_moved(admitted, (second, UP), 0, taken.offset_ns), changed)


@pytest.mark.parametrize("mover", ["a", "b"])
def test_an_overlap_between_a_changed_and_an_unchanged_stream(
    two_admitted, mover
):
    admitted = two_admitted("a", "b")
    taken = admitted.slots[("u", UP)][0]
    _same_verdict(
        _moved(admitted, (mover, UP), 0, taken.offset_ns), {"a", "b"}
    )


def test_an_unmoved_ring_stream_is_left_out_of_the_changed_set():
    """``t`` (4 ms) is released in a ring with ``n`` (8 ms) on their
    shared links and, placed first again, lands on its old slots:
    it is not among the moved streams, and an overlap planted against
    it is still found from ``n``'s side.  ``n`` fits beside ``t``, so
    the rung would not release ``t``; the ring is handed to
    ``ResolvedBatch.place``, which places every ring the rung tries."""
    topo = _topology(time_unit_ns=1000)
    base = schedule_heuristic(topo, [_one_frame(topo, "t", "D1", "D3", 4)])
    newcomer = _one_frame(topo, "n", "D1", "D4")
    admit = AdmitTct(TctRequirement(
        name="n", source="D1", destination="D4",
        period_ns=newcomer.period_ns, length_bytes=newcomer.length_bytes,
        priority=newcomer.priority,
    ))
    ring = fastpath.ResolvedBatch(base, [admit]).place([base.stream("t")])
    key = ("t", ("D1", "SW1"))
    assert ring.slots[key] == base.slots[key]
    assert ring.slots[key] is not base.slots[key]  # released, re-placed
    moved = moved_streams(base, ring, [base.stream("t"), newcomer])
    assert moved == ["n"]
    validate(ring)
    validate_delta(ring, moved)
    taken = ring.slots[key][0]
    planted = _moved(ring, ("n", ("D1", "SW1")), 0, taken.offset_ns)
    _same_verdict(planted, moved)
