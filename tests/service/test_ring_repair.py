"""The ``full`` rung's ring repair.

Before it re-solves the whole network, the heuristic ``full`` rung
re-places a *ring* of released deterministic streams with the batch —
the sharers a new ECT crosses first, as ring 0 places them, then the
ring and the admits tightest first, then the possibilities of the new
ECT streams — around the frozen rest, and grows the ring from where
placement failed:

1. none: ring 0, the constructive rung's own attempt, placed once per
   climb and not again here — its failure names the stream F that did
   not fit, the link L and F's cut: the gap cut of F's frame there
   (the streams overlapping it at the offset of its window that
   overlaps the fewest streams, all of them deterministic and with a
   greater ``(period, e2e, name)`` than F) or, when the frame has none,
   F's stream cut (the deterministic streams looser than F on its
   route that its placement overlaps once all of them are released);
2. gap: F's cut, less the sharers ring 0 already re-places; when that
   fails on a stream whose cut names streams not yet in the ring,
   those join and the ring is tried again, until a failure adds none.

The first ring whose repair validates is published, and only its
streams and the sharers get new slot lists; the rung's span names the
ring and how many streams it released.  Whatever the ring does, the
rung must publish a schedule the independent validator accepts, and
when the chain ends the rung must be exactly today's whole re-solve.
TCT and ECT admits climb the same chain.

``python tests/service/test_ring_repair.py [N]`` grows N seeded states
(default 400) the way the property test below does, submits one ECT
admit to each, and prints the climbs by the ring that decided them and
whether each gap-chain accept is also a whole re-solve accept.
"""

import gc
import random
import sys
import time
import weakref
from pathlib import Path

if __name__ == "__main__":
    # run as a script: import ``repro`` and ``tests`` from this checkout
    _ROOT = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.constraints import build_frames, window_max_ns
from repro.core.heuristic import (
    _Occupancy,
    _PlacementFailure,
    schedule_heuristic,
)
from repro.core.incremental import (
    add_ect_stream,
    add_shared_tct_stream,
    remove_stream,
    repair,
)
from repro.core.probabilistic import expand_ect
from repro.core.reservation import prudent_reservation
from repro.core.schedule import (
    InfeasibleError,
    ScheduleError,
    periodic_overlap,
    validate,
    validate_delta,
)
from repro.experiments import line_of_rings
from repro.model.stream import (
    EctStream,
    Priorities,
    StreamType,
    TctRequirement,
    may_overlap,
)
from repro.model.topology import Topology
from repro.model.units import ceil_to_multiple, milliseconds
from repro.obs import Tracer
from repro.serialization import schedule_to_dict
from tests.conftest import MTU_WIRE_NS
from repro.service import (
    RUNG_FASTPATH,
    RUNG_FULL,
    RUNG_HEURISTIC,
    AdmissionService,
    AdmitEct,
    AdmitTct,
    Remove,
    RungConfig,
    ScheduleStore,
    ServiceConfig,
    empty_schedule,
)
from repro.service import fastpath
from repro.service.fastpath import ResolvedBatch

TOPOLOGY = line_of_rings(1, 2, 2)
DEVICES = sorted(d.name for d in TOPOLOGY.devices)


def _requirement(name, src, dst, period_ms, length, share):
    return TctRequirement(
        name=name, source=src, destination=dst,
        period_ns=milliseconds(period_ms), length_bytes=length,
        priority=Priorities.SH_PL if share else Priorities.NSH_PH,
        share=share,
    )


endpoints = st.permutations(DEVICES).map(lambda devices: devices[:2])
#: endpoints, period (ms), length (bytes, up to three frames), sharing
tct_specs = st.tuples(
    endpoints, st.sampled_from((1, 2)), st.integers(200, 4500),
    st.booleans(),
)
PAIRS = [(src, dst) for src in DEVICES for dst in DEVICES if src != dst]


class _Drawn:
    """The two ``random.Random`` calls :func:`_grow` makes, over a
    Hypothesis ``draw``: one grower serves the property test and the
    seeded probe at the end of this file."""

    def __init__(self, draw):
        self._draw = draw

    def randint(self, low, high):
        return self._draw(st.integers(low, high))

    def choice(self, options):
        return self._draw(st.sampled_from(options))


def _tct_spec(pick, name):
    """Endpoints, period (ms), length (bytes, up to three frames) and
    sharing of a TCT requirement."""
    (src, dst), period = pick.choice(PAIRS), pick.choice((1, 2))
    length, share = pick.randint(200, 4500), pick.choice((False, True))
    return _requirement(name, src, dst, period, length, share)


def _ect_spec(pick, name):
    src, dst = pick.choice(PAIRS)
    return EctStream(
        name=name, source=src, destination=dst,
        min_interevent_ns=milliseconds(2),
        length_bytes=pick.randint(100, 400), possibilities=2,
    )


def _live_names(schedule):
    return sorted(
        [s.name for s in schedule.tct_streams()]
        + [e.name for e in schedule.ect_streams]
    )


def _grow(pick):
    """A state grown by the online primitives — TCT, sharing TCT beside
    live ECT, removals, and ECT removals that leave stale extras on
    their sharers — with ``pick`` (``random.Random`` or :class:`_Drawn`)
    making every choice."""
    schedule = empty_schedule(TOPOLOGY)
    for step in range(pick.randint(8, 40)):
        kind = pick.choice(("tct", "tct", "tct", "ect", "remove"))
        try:
            if kind == "tct":
                stream = _tct_spec(pick, f"t{step}").resolve(TOPOLOGY)
                schedule = add_shared_tct_stream(schedule, stream)
            elif kind == "ect":
                schedule = add_ect_stream(
                    schedule, _ect_spec(pick, f"e{step}")
                )
            else:
                names = _live_names(schedule)
                if names:
                    schedule = remove_stream(schedule, pick.choice(names))
        except InfeasibleError:
            continue
    return schedule


@st.composite
def ring_case(draw):
    """A grown state and a batch of one or two admits, TCT or ECT,
    maybe with a remove."""
    pick = _Drawn(draw)
    schedule = _grow(pick)
    batch = []
    for index in range(pick.randint(1, 2)):
        if pick.choice(("tct", "tct", "ect")) == "ect":
            batch.append(AdmitEct(_ect_spec(pick, f"m{index}")))
        else:
            batch.append(AdmitTct(_tct_spec(pick, f"n{index}")))
    names = _live_names(schedule)
    if schedule.ect_streams and pick.choice((False, True)):
        # an ECT leaving with the batch: its sharers in the ring lose
        # the extras it induced
        names = [e.name for e in schedule.ect_streams]
    if names and pick.choice((False, True)):
        batch.append(Remove(pick.choice(names)))
    return schedule, batch


def _live_ect(schedule, removals):
    return [
        schedule.possibilities_of(ect.name)[0]
        for ect in schedule.ect_streams if ect.name not in removals
    ]


def _whole_resolve(schedule, batch, removals):
    """Today's whole re-solve of the same stream set, as the rung ran it
    before the ring: its schedule, or its rejection text."""
    tct = [
        s for s in schedule.streams
        if s.type == StreamType.DET and s.name not in removals
    ] + [r.requirement.resolve(TOPOLOGY) for r in batch
         if isinstance(r, AdmitTct)]
    ects = [e for e in schedule.ect_streams if e.name not in removals] + [
        r.ect for r in batch if isinstance(r, AdmitEct)
    ]
    restarts = max(128, 2 * (len(tct) + 2 * len(ects)) + 4)
    try:
        return schedule_heuristic(TOPOLOGY, tct, ects, max_restarts=restarts)
    except InfeasibleError as exc:
        return str(exc)


def _document(schedule):
    document = schedule_to_dict(schedule)
    document["meta"].pop("resolved_by", None)
    return document


def _outcome(result):
    """A rejection text as it is, a schedule as its document."""
    return result if isinstance(result, str) else _document(result)


def _tightness(stream):
    return (stream.period_ns, stream.e2e_ns, stream.name)


class _Batch:
    """What the contract reads of a batch: the TCT admits, the new ECT
    streams and their possibilities, the removals, and the sharers —
    the live sharing streams with a slot on a new ECT's route, in
    ``streams`` order."""

    def __init__(self, schedule, batch):
        self.admitted = [r.requirement.resolve(TOPOLOGY) for r in batch
                         if isinstance(r, AdmitTct)]
        self.ects = [r.ect for r in batch if isinstance(r, AdmitEct)]
        self.possibilities = sorted(
            (p for ect in self.ects for p in expand_ect(ect, TOPOLOGY)),
            key=lambda p: (p.parent, p.occurrence_ns, p.name),
        )
        self.removals = {r.name for r in batch if isinstance(r, Remove)}
        routes = {
            link.key for ect in self.ects for link in ect.route(TOPOLOGY)
        }
        self.sharers = [
            s for s in schedule.streams
            if s.type == StreamType.DET and s.share
            and s.name not in self.removals
            and any(link.key in routes for link in s.path)
        ]


def _rung_ring(schedule, case):
    """The ring the rung must publish, by the contract above: ``(its
    name, names of the released live streams, the repair)``, or
    ``None`` when the chain ends without one."""
    def attempt(ring):
        place = (case.sharers + sorted(ring + case.admitted, key=_tightness)
                 + case.possibilities)
        try:
            return repair(
                schedule, place, drop=case.removals, ects=case.ects
            ), None
        except (InfeasibleError, ScheduleError) as exc:
            return None, exc

    live = [
        s for s in schedule.streams
        if s.type == StreamType.DET and s.name not in case.removals
    ]
    by_name = {s.name: s for s in live + case.admitted}

    def looser(failure):
        failed = by_name.get(getattr(failure, "stream", None))
        return [] if failed is None else [
            by_name[name] for name in getattr(failure, "gap", ())
            if name in by_name
            and by_name[name] not in case.admitted + case.sharers
            and _tightness(by_name[name]) > _tightness(failed)
        ]

    result, failure = attempt([])
    if result is not None:
        return "none", set(), result
    ring = looser(failure)
    while ring:
        result, failure = attempt(ring)
        if result is not None:
            return "gap", {s.name for s in ring}, result
        more = [s for s in looser(failure) if s not in ring]
        if not more:
            break
        ring = ring + more
    return None


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(ring_case())
def test_ring_or_whole_resolve(case):
    schedule, batch = case
    contract = _Batch(schedule, batch)
    removals = contract.removals
    service = AdmissionService(ScheduleStore(schedule))
    resolved = ResolvedBatch(schedule, batch)
    try:
        result = service._resolve(resolved, RUNG_FULL)
    except InfeasibleError as exc:
        result = str(exc)

    expected = _rung_ring(schedule, contract)
    if expected is None:
        assert _outcome(result) == _outcome(
            _whole_resolve(schedule, batch, removals)
        )
        assert resolved.ring[0] == "whole"
        return

    name, ring, repaired = expected
    assert resolved.ring == (name, len(ring))
    assert result.slots == repaired.slots
    validate(result)
    sharers = {s.name for s in contract.sharers}
    validate_delta(result, ring | sharers | {
        s.name for s in contract.admitted + contract.possibilities
    })
    dropped = set(removals) | {
        p.name for name in removals for p in schedule.possibilities_of(name)
    }
    released = set()
    for (name, link), frames in schedule.slots.items():
        if name in dropped:
            assert (name, link) not in result.slots
        elif result.slots[(name, link)] is not frames:
            released.add(name)
    # every stream outside the ring and the sharers keeps its slot-list
    # objects
    assert released == ring | sharers
    live = _live_ect(schedule, removals) + [
        next(p for p in contract.possibilities if p.parent == ect.name)
        for ect in contract.ects
    ]
    by_name = result.streams_by_name
    for name in released:
        stream = by_name[name]
        if not stream.share:
            continue
        plan = prudent_reservation([stream], against=live)
        for link in stream.path:
            extras = sum(f.extra for f in result.slots[(name, link.key)])
            assert extras == plan.extras[(name, link.key)]


def _grown(topology, *specs):
    """A traced service over ``topology`` that admitted ``(name, source,
    destination, period in MTU wire times, length)`` constructively,
    in order."""
    service = AdmissionService(
        ScheduleStore(empty_schedule(topology)), tracer=Tracer()
    )
    for spec in specs:
        assert service.submit(_mtu_tct(*spec)).rung == RUNG_FASTPATH
    return service


def _decided_ring(service):
    """The ``(ring, released)`` of the service's last ``full`` rung."""
    (*_, span) = [
        span for span in service.tracer.spans()
        if span.name == "admission.rung"
        and span.attributes["rung"] == RUNG_FULL
    ]
    return span.attributes["ring"], span.attributes["released"]


def _mtu_tct(name, source, destination, mtus, length):
    return AdmitTct(TctRequirement(
        name=name, source=source, destination=destination,
        period_ns=mtus * MTU_WIRE_NS, length_bytes=length,
    ))


def _released(before, after):
    return {
        name for (name, link), frames in before.slots.items()
        if after.slots[(name, link)] is not frames
    }


def test_a_looser_stream_on_the_failing_link_moves_alone(star_topology):
    """``d`` fails on D2->SW1 beside ``x``, whose 8-MTU period is looser
    than ``d``'s 6: the first ring releases ``x`` alone, and ``g``, on
    ``d``'s route but not on that link, keeps its slots."""
    service = _grown(
        star_topology,
        ("x", "D2", "D1", 8, 3000), ("g", "D1", "D3", 3, 800),
    )
    before = service.store.schedule
    newcomer = _mtu_tct("d", "D2", "D3", 6, 300)
    stream = newcomer.requirement.resolve(star_topology)
    with pytest.raises(InfeasibleError) as failure:
        repair(before, [stream])
    assert (failure.value.stream, failure.value.link) == ("d", ("D2", "SW1"))

    decision = service.submit(newcomer)
    assert decision.accepted and decision.rung == RUNG_FULL
    after = service.store.schedule
    assert _released(before, after) == {"x"}
    assert after.slots == repair(before, [stream, before.stream("x")]).slots


def _placements(monkeypatch):
    """The streams of every placement ``ResolvedBatch`` makes, in order."""
    calls = []

    def counting(schedule, place, *args, **kwargs):
        calls.append([s.name for s in place])
        return repair(schedule, place, *args, **kwargs)

    monkeypatch.setattr(fastpath, "repair", counting)
    return calls


def test_one_blocker_moves_and_its_looser_neighbour_stays(
    star_topology, monkeypatch
):
    """``n`` fails on D1->SW1, where ``q`` and ``s`` are both looser
    than it, but only ``q``'s slot stands in ``n``'s way, so ``q`` alone
    is its gap cut; the gap ring releases ``q`` alone and every other
    stream keeps its slot-list objects."""
    service = _grown(
        star_topology,
        ("p", "D3", "D1", 3, 300), ("q", "D1", "D3", 12, 3000),
        ("r", "D2", "D1", 12, 300), ("s", "D1", "D2", 12, 300),
    )
    before = service.store.schedule
    newcomer = _mtu_tct("n", "D1", "D2", 2, 800)
    stream = newcomer.requirement.resolve(star_topology)
    with pytest.raises(InfeasibleError) as failure:
        repair(before, [stream])
    assert (failure.value.stream, failure.value.link) == ("n", ("D1", "SW1"))
    assert {"q", "s"} <= {
        name for name, link in before.slots if link == ("D1", "SW1")
        and _tightness(before.stream(name)) > _tightness(stream)
    }

    assert failure.value.gap == ("q",)

    calls = _placements(monkeypatch)
    decision = service.submit(newcomer)
    assert decision.accepted and decision.rung == RUNG_FULL
    assert calls == [["n"], ["n", "q"]]
    assert _decided_ring(service) == ("gap", 1)
    after = service.store.schedule
    assert _released(before, after) == {"q"}
    assert after.slots == repair(before, [stream, before.stream("q")]).slots


def test_a_lower_bound_past_the_window_names_a_stream_cut(
    star_topology, monkeypatch
):
    """``n`` is blocked on D1->SW1 by ``p`` alone, its gap cut.  With
    ``p`` released ``n`` goes in after ``q`` there and reaches SW1->D2
    with its lower bound past its window, a failure whose frame names
    no gap cut; its stream cut names ``q``, so the gap chain grows to
    ``p`` and ``q`` and publishes exactly that repair."""
    service = _grown(
        star_topology,
        ("p", "D1", "D3", 12, 3000), ("q", "D1", "D3", 4, 300),
        ("r", "D2", "D1", 3, 1500),
    )
    before = service.store.schedule
    newcomer = _mtu_tct("n", "D1", "D2", 2, 1500)
    stream = newcomer.requirement.resolve(star_topology)
    with pytest.raises(InfeasibleError) as failure:
        repair(before, [stream, before.stream("p")])
    assert (failure.value.stream, failure.value.link) == ("n", ("SW1", "D2"))
    assert "lower bound" in str(failure.value)
    assert failure.value.gap == ("q",)

    calls = _placements(monkeypatch)
    decision = service.submit(newcomer)
    assert decision.accepted and decision.rung == RUNG_FULL
    assert calls == [["n"], ["n", "p"], ["n", "q", "p"]]
    assert _decided_ring(service) == ("gap", 2)
    after = service.store.schedule
    assert _released(before, after) == {"p", "q"}
    chain = repair(before, [stream, before.stream("q"), before.stream("p")])
    assert after.slots == chain.slots


def _chain_case(topology):
    """``n`` is blocked on D2->SW1 by ``r`` only; with ``r`` released,
    ``n`` goes on to SW1->D1 and is blocked there by ``s`` alone,
    looser than it: each blocker is the whole gap cut there, and the
    chain's second ring places all three."""
    service = _grown(
        topology,
        ("p", "D1", "D2", 6, 3000), ("q", "D1", "D2", 12, 3000),
        ("r", "D2", "D3", 6, 3000), ("s", "D3", "D1", 6, 3000),
    )
    return service, _mtu_tct("n", "D2", "D1", 4, 1500)


def test_the_ejection_chain_adds_the_blockers_of_a_blocker(
    star_topology, monkeypatch
):
    service, newcomer = _chain_case(star_topology)
    before = service.store.schedule
    with pytest.raises(InfeasibleError) as failure:
        ResolvedBatch(before, [newcomer]).place()
    assert failure.value.gap == ("r",)
    with pytest.raises(InfeasibleError) as failure:
        ResolvedBatch(before, [newcomer]).place([before.stream("r")])
    assert (failure.value.stream, failure.value.link) == ("n", ("SW1", "D1"))
    assert failure.value.gap == ("s",)
    calls = _placements(monkeypatch)
    decision = service.submit(newcomer)
    assert decision.accepted and decision.rung == RUNG_FULL
    assert calls == [["n"], ["n", "r"], ["n", "r", "s"]]
    assert _decided_ring(service) == ("gap", 2)
    assert _released(before, service.store.schedule) <= {"r", "s"}
    validate(service.store.schedule)


def test_the_chain_keeps_no_failure_alive(star_topology):
    """The chain carries a failed ring's stream, link and cut forward,
    not the exception, whose traceback would hold the
    batch and each placement's working set: the batch is freed with its
    last reference, not at some later garbage collection."""
    service, newcomer = _chain_case(star_topology)
    batch = ResolvedBatch(service.store.schedule, [newcomer])
    gc.disable()
    try:
        name, released, result = service._repair_ring(batch)
        assert (name, released) == ("gap", 2)
        del result
        kept = weakref.ref(batch)
        del batch
        assert kept() is None
    finally:
        gc.enable()


def test_a_gap_one_looser_stream_blocks_moves_it_alone(
    star_topology, monkeypatch
):
    """``n`` fails on D2->SW1, where ``g``, ``t`` and ``h`` all have
    slots and are all looser than it.  But one offset of its window
    overlaps ``g``'s slot alone, so the gap ring releases ``g`` and
    every other stream keeps its slot-list objects."""
    service = _grown(
        star_topology,
        ("g", "D2", "D3", 8, 1500), ("t", "D2", "D3", 12, 300),
        ("h", "D2", "D1", 8, 800),
    )
    before = service.store.schedule
    newcomer = _mtu_tct("n", "D2", "D1", 6, 1500)
    stream = newcomer.requirement.resolve(star_topology)
    with pytest.raises(InfeasibleError) as failure:
        repair(before, [stream])
    assert (failure.value.stream, failure.value.link) == ("n", ("D2", "SW1"))
    assert all(
        (name, ("D2", "SW1")) in before.slots
        and _tightness(before.stream(name)) > _tightness(stream)
        for name in ("g", "t", "h")
    )
    assert failure.value.gap == ("g",)

    calls = _placements(monkeypatch)
    decision = service.submit(newcomer)
    assert decision.accepted and decision.rung == RUNG_FULL
    assert calls == [["n"], ["n", "g"]]
    assert _decided_ring(service) == ("gap", 1)
    after = service.store.schedule
    assert _released(before, after) == {"g"}
    assert after.slots == repair(before, [stream, before.stream("g")]).slots


def _unplaceable_gap_case(topology):
    """``n`` fails on D2->SW1 blocked by ``i`` and ``m``; its gap cut is
    ``i`` alone, which cannot be placed again once ``n`` has its offset:
    ``i`` reaches SW1->D1 with its lower bound past its window, a
    failure whose frame names no gap cut."""
    service = _grown(
        topology,
        ("i", "D2", "D1", 4, 1500), ("m", "D2", "D1", 8, 800),
        ("t", "D1", "D3", 8, 800),
    )
    return service, _mtu_tct("n", "D2", "D3", 2, 800)


def test_an_unplaceable_gap_grows_by_its_stream_cut(
    star_topology, monkeypatch
):
    """``i``'s stream cut is ``m``, looser than it on its route, so the
    gap chain goes on to release ``i`` and ``m`` and publishes exactly
    that repair."""
    service, newcomer = _unplaceable_gap_case(star_topology)
    before = service.store.schedule
    stream = newcomer.requirement.resolve(star_topology)
    with pytest.raises(InfeasibleError) as failure:
        repair(before, [stream])
    assert failure.value.gap == ("i",)
    with pytest.raises(InfeasibleError) as failure:
        repair(before, [stream, before.stream("i")])
    assert (failure.value.stream, failure.value.link) == ("i", ("SW1", "D1"))
    assert "lower bound" in str(failure.value)
    assert failure.value.gap == ("m",)

    calls = _placements(monkeypatch)
    decision = service.submit(newcomer)
    assert decision.accepted and decision.rung == RUNG_FULL
    assert calls == [["n"], ["n", "i"], ["n", "i", "m"]]
    assert _decided_ring(service) == ("gap", 2)
    after = service.store.schedule
    assert _released(before, after) == {"i", "m"}
    chain = repair(before, [stream, before.stream("i"), before.stream("m")])
    assert after.slots == chain.slots


def test_a_failing_gap_chain_keeps_no_failure_alive(star_topology):
    """A gap ring that failed with a stream cut is carried forward as
    its fields too: the batch is freed with its last reference."""
    service, newcomer = _unplaceable_gap_case(star_topology)
    batch = ResolvedBatch(service.store.schedule, [newcomer])
    gc.disable()
    try:
        name, released, result = service._repair_ring(batch)
        assert (name, released) == ("gap", 2)
        del result
        kept = weakref.ref(batch)
        del batch
        assert kept() is None
    finally:
        gc.enable()


def _coarse_star():
    """Paper Fig. 2's star on an 8 us time unit: few enough offsets in
    a window to try every one."""
    topology = Topology()
    topology.add_switch("SW1")
    for device in ("D1", "D2", "D3"):
        topology.add_device(device)
        topology.add_link(device, "SW1", time_unit_ns=COARSE_TU_NS)
    return topology


COARSE_TU_NS = 8_000
COARSE = _coarse_star()
#: every stream ends at D3, so SW1->D3 fills up
star_endpoints = st.sampled_from((("D1", "D3"), ("D2", "D3")))


@st.composite
def gap_case(draw):
    """A state on the coarse star grown from TCT, sharing TCT and ECT
    admits into D3, a newcomer into D3, one of its frames on one of its
    links, and a lower bound for that frame."""
    schedule = empty_schedule(COARSE)
    for step in range(draw(st.integers(10, 40))):
        try:
            if draw(st.integers(0, 4)):
                src, dst = draw(star_endpoints)
                _, period, length, share = draw(tct_specs)
                schedule = add_shared_tct_stream(schedule, _requirement(
                    f"t{step}", src, dst, period, length, share
                ).resolve(COARSE))
            else:
                src, dst = draw(star_endpoints)
                schedule = add_ect_stream(schedule, EctStream(
                    name=f"e{step}", source=src, destination=dst,
                    min_interevent_ns=milliseconds(2),
                    length_bytes=draw(st.integers(100, 400)),
                    possibilities=2,
                ))
        except InfeasibleError:
            continue
    src, dst = draw(star_endpoints)
    _, period, length, share = draw(tct_specs)
    newcomer = _requirement("n", src, dst, period, length, share).resolve(
        COARSE
    )
    plan = prudent_reservation([newcomer], against=_live_ect(schedule, ()))
    link = draw(st.sampled_from(newcomer.path))
    frame = draw(st.sampled_from(
        build_frames([newcomer], plan)[("n", link.key)]
    ))
    lower = draw(st.integers(0, newcomer.period_ns))
    return schedule, newcomer, frame, lower


def _cut_by_definition(schedule, newcomer, frame, lower):
    """The gap cut by its definition, with ``periodic_overlap``: at each
    tu-aligned offset of the window, the streams of the slots the frame
    may not overlap (``may_overlap``) and overlaps there; among the
    offsets where all of those are deterministic and looser than the
    newcomer, the first with the fewest.  Returns that offset and the
    streams, in slot order; ``(None, ())`` when no offset qualifies."""
    streams = schedule.streams_by_name
    slots = [
        slot for slot in schedule.slots_by_link.get(frame.link, ())
        if not may_overlap(newcomer, streams[slot.stream])
    ]
    best, cut = None, ()
    for phi in range(
        ceil_to_multiple(lower, COARSE_TU_NS),
        window_max_ns(newcomer, frame) + 1, COARSE_TU_NS,
    ):
        met = tuple(dict.fromkeys(
            slot.stream for slot in slots if periodic_overlap(
                phi, frame.duration_ns, frame.period_ns,
                slot.offset_ns, slot.duration_ns, slot.period_ns,
            )
        ))
        if all(
            streams[name].type == StreamType.DET
            and _tightness(streams[name]) > _tightness(newcomer)
            for name in met
        ) and (best is None or len(met) < len(cut)):
            best, cut = phi, met
    return best, cut


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(gap_case())
def test_the_gap_cut_matches_its_definition(case):
    """A failing fit's gap cut is the definition's: every stream in it
    is deterministic and looser than the newcomer, and at the chosen
    offset the frame overlaps no slot that stays; releasing the cut
    lets the frame fit in its window."""
    schedule, newcomer, frame, lower = case
    occupancy = _Occupancy.over(schedule)
    occupancy.streams["n"] = newcomer
    try:
        occupancy.earliest_fit(newcomer, frame, lower, COARSE_TU_NS)
    except _PlacementFailure as failure:
        phi, cut = _cut_by_definition(schedule, newcomer, frame, lower)
        assert failure.gap == cut
        if not cut:
            return
        streams = schedule.streams_by_name
        for name in cut:
            assert streams[name].type == StreamType.DET
            assert _tightness(streams[name]) > _tightness(newcomer)
        stays = [
            slot for slot in schedule.slots_by_link[frame.link]
            if slot.stream not in cut
            and not may_overlap(newcomer, streams[slot.stream])
        ]
        assert not any(periodic_overlap(
            phi, frame.duration_ns, frame.period_ns,
            slot.offset_ns, slot.duration_ns, slot.period_ns,
        ) for slot in stays)
        occupancy.release([streams[name] for name in cut])
        fit = occupancy.earliest_fit(newcomer, frame, lower, COARSE_TU_NS)
        assert fit <= phi


def test_ring_0_is_placed_once_per_climb(star_topology, monkeypatch):
    """The climb of ``test_a_looser_stream_on_the_failing_link_moves_alone``
    places ring 0 once, in the constructive rung, and the ``full``
    rung goes on from its failure to the gap ring: two ``repair``
    calls, none of them a replay."""
    service = _grown(
        star_topology,
        ("x", "D2", "D1", 8, 3000), ("g", "D1", "D3", 3, 800),
    )
    calls = _placements(monkeypatch)
    decision = service.submit(_mtu_tct("d", "D2", "D3", 6, 300))
    assert decision.accepted and decision.rung == RUNG_FULL
    assert calls == [["d"], ["d", "x"]]


def test_a_kept_ring_0_failure_holds_no_reference_cycle(star_topology):
    """Ring 0's failure is kept for the climb without the traceback
    whose frames would hold the batch, and with it every placement's
    working set: a failed batch is freed with its last reference, not
    at some later garbage collection."""
    service = _grown(
        star_topology,
        ("x", "D2", "D1", 8, 3000), ("g", "D1", "D3", 3, 800),
    )
    batch = ResolvedBatch(
        service.store.schedule, [_mtu_tct("d", "D2", "D3", 6, 300)]
    )
    gc.disable()
    try:
        for _ in range(2):  # placed, then read back
            try:
                batch.place()
            except InfeasibleError:
                pass
        kept = weakref.ref(batch)
        del batch
        assert kept() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("removal_first", [True, False])
def test_a_removal_frees_its_slots_for_the_constructive_rung(
    star_topology, removal_first
):
    """``y`` fits only where ``x`` is: ring 0 drops the batch's
    removals before it places anything, wherever they stand in the
    batch, so the constructive rung accepts it with ``x``'s removal."""
    service = _grown(star_topology, ("x", "D1", "D3", 2, 1500))
    newcomer = _mtu_tct("y", "D1", "D3", 2, 1500)
    assert not service.submit(newcomer).accepted
    batch = [Remove("x"), newcomer]
    if not removal_first:
        batch.reverse()
    decisions = service.submit_many(batch)
    assert [(d.accepted, d.rung, d.batch_size) for d in decisions] == [
        (True, RUNG_FASTPATH, 2), (True, RUNG_FASTPATH, 2)
    ]
    schedule = service.store.schedule
    assert [s.name for s in schedule.streams] == ["y"]
    validate(schedule)


def test_a_tighter_blocker_goes_to_the_whole_resolve(
    star_topology, monkeypatch
):
    """``b`` fails on SW1->D1, where the looser ``z`` alone is its cut.
    Releasing it does not help: with ``t``, tighter, in place, ``z`` no
    longer fits back after ``b``, and nothing on its route is looser
    than ``z``, so its failure names no cut.  The chain ends after one
    ring and the whole re-solve accepts ``b``, moving ``t`` and ``z``;
    the published schedule is exactly that re-solve's."""
    service = _grown(
        star_topology,
        ("z", "D2", "D1", 8, 3000), ("t", "D3", "D1", 4, 800),
    )
    before = service.store.schedule
    newcomer = _mtu_tct("b", "D3", "D1", 6, 3000)
    stream = newcomer.requirement.resolve(star_topology)
    with pytest.raises(InfeasibleError) as failure:
        repair(before, [stream])
    assert (failure.value.stream, failure.value.link) == ("b", ("SW1", "D1"))
    assert failure.value.gap == ("z",)
    with pytest.raises(InfeasibleError) as failure:
        repair(before, [stream, before.stream("z")])
    assert (failure.value.stream, failure.value.gap) == ("z", ())

    calls = _placements(monkeypatch)
    decision = service.submit(newcomer)
    assert decision.accepted and decision.rung == RUNG_FULL
    assert calls == [["b"], ["b", "z"]]
    assert _decided_ring(service) == ("whole", 2)
    after = service.store.schedule
    assert _released(before, after) == {"t", "z"}
    whole = schedule_heuristic(
        star_topology, [before.stream("z"), before.stream("t"), stream],
        max_restarts=128,
    )
    assert _document(after) == _document(whole)


def _tied_pair(name):
    """Two streams into D3 meeting on SW1->D3, tied on ``(period,
    e2e)``: the 800-byte one (``name``) must go first to fit in 250 us."""
    return tuple(
        AdmitTct(TctRequirement(
            name=stream, source=source, destination="D3",
            period_ns=250_000, length_bytes=length,
        ))
        for stream, source, length in (("b", "D2", 1200), (name, "D1", 800))
    )


def test_ring_fails_and_the_whole_resolve_accepts(star_topology):
    """``b`` is live, ``c`` ties with it and sorts after it: the ring
    re-places ``b`` first and ``c`` no longer fits, so the rung falls
    back to the whole re-solve, whose restart promotes ``c`` — and the
    published schedule is exactly that re-solve's."""
    service = AdmissionService(ScheduleStore(empty_schedule(star_topology)))
    live, newcomer = _tied_pair("c")
    assert service.submit(live).rung == RUNG_FASTPATH
    snapshot = service.store.schedule
    admitted = [newcomer.requirement.resolve(star_topology)]
    with pytest.raises(InfeasibleError):
        service._repair_ring(ResolvedBatch(snapshot, [newcomer]))

    decision = service.submit(newcomer)
    assert decision.accepted and decision.rung == RUNG_FULL
    whole = schedule_heuristic(
        star_topology, [snapshot.stream("b")] + admitted, max_restarts=128
    )
    assert _document(service.store.schedule) == _document(whole)


def test_ring_accepts_when_the_newcomer_sorts_first(star_topology):
    """The same pair with the newcomer named ``a``: the ring places it
    before ``b``, the rung publishes a repair, and ``b`` moved."""
    service = AdmissionService(ScheduleStore(empty_schedule(star_topology)))
    live, newcomer = _tied_pair("a")
    assert service.submit(live).rung == RUNG_FASTPATH
    before = service.store.schedule
    decision = service.submit(newcomer)
    assert decision.accepted and decision.rung == RUNG_FULL
    after = service.store.schedule
    validate(after)
    assert after.meta["resolved_by"] == RUNG_FULL
    key = ("b", ("SW1", "D3"))
    assert after.slots[key] != before.slots[key]


def test_an_ect_admit_climbs_the_gap_chain():
    """State 16 of the probe below: ring 0 re-places the sharer ``t12``
    for the new ECT ``m0``, and with its new extras ``t12`` no longer
    fits beside ``t8``, looser than it and its gap cut.  The gap ring
    releases ``t8`` and accepts ``m0`` — the contract's repair, and a
    batch the whole re-solve accepts too."""
    schedule, batch, resolved, outcome, _ = _ect_climb(16)
    with pytest.raises(InfeasibleError) as failure:
        resolved.place()
    assert (failure.value.stream, failure.value.gap) == ("t12", ("t8",))
    assert str(failure.value).startswith("cannot admit m0: t12: ")
    assert resolved.ring == ("gap", 1)
    validate(outcome)
    name, ring, repaired = _rung_ring(schedule, _Batch(schedule, batch))
    assert (name, ring) == ("gap", {"t8"})
    assert outcome.slots == repaired.slots
    assert not isinstance(_whole_resolve(schedule, batch, set()), str)


def test_a_ring_failing_on_a_live_stream_names_the_admit(star_topology):
    """The state of ``test_a_tighter_blocker_goes_to_the_whole_resolve``:
    the ring ``z`` fails on ``z`` itself, and the text says the batch
    could not admit ``b``, the stream ``z`` placed for."""
    service = _grown(
        star_topology,
        ("z", "D2", "D1", 8, 3000), ("t", "D3", "D1", 4, 800),
    )
    before = service.store.schedule
    batch = ResolvedBatch(before, [_mtu_tct("b", "D3", "D1", 6, 3000)])
    with pytest.raises(InfeasibleError) as failure:
        batch.place([before.stream("z")])
    assert failure.value.stream == "z"
    assert str(failure.value).startswith("cannot admit b: z: ")


def test_an_ending_chain_keeps_no_failure_alive(star_topology):
    """The failure a chain ends on goes to the whole re-solve without a
    traceback that holds the batch: once it is handled, the batch is
    freed with its last reference."""
    service = _grown(
        star_topology,
        ("z", "D2", "D1", 8, 3000), ("t", "D3", "D1", 4, 800),
    )
    batch = ResolvedBatch(
        service.store.schedule, [_mtu_tct("b", "D3", "D1", 6, 3000)]
    )
    gc.disable()
    try:
        try:
            service._repair_ring(batch)
        except InfeasibleError as exc:
            assert exc.stream == "z"
        else:
            pytest.fail("the chain should end")
        kept = weakref.ref(batch)
        del batch
        assert kept() is None
    finally:
        gc.enable()


class TestReleasedSharersLoseStaleExtras:
    """A sharer a ring releases is planned against the ECT streams
    live afterwards, so extras induced by an ECT that has left go.  The
    newcomer fits without releasing anything, so the ring is handed to
    ``ResolvedBatch.place`` — the one placement every ring goes
    through."""

    def _state(self, topology):
        sharer = TctRequirement(
            name="s", source="D1", destination="D3",
            period_ns=milliseconds(4), length_bytes=1500,
            priority=Priorities.SH_PL, share=True,
        ).resolve(topology)
        schedule = add_shared_tct_stream(empty_schedule(topology), sharer)
        schedule = add_ect_stream(schedule, EctStream(
            name="e", source="D2", destination="D3",
            min_interevent_ns=milliseconds(4), length_bytes=300,
            possibilities=2,
        ))
        return schedule, AdmitTct(_requirement("n", "D2", "D3", 4, 800, False))

    @staticmethod
    def _extras(schedule):
        return sum(f.extra for f in schedule.slots[("s", ("SW1", "D3"))])

    def test_extras_left_by_an_earlier_ect_removal(self, star_topology):
        with_ect, newcomer = self._state(star_topology)
        stale = remove_stream(with_ect, "e")
        assert self._extras(stale) == self._extras(with_ect) > 0
        repaired = ResolvedBatch(stale, [newcomer]).place([stale.stream("s")])
        validate(repaired)
        assert self._extras(repaired) == 0

    def test_extras_of_an_ect_leaving_with_the_batch(self, star_topology):
        with_ect, newcomer = self._state(star_topology)
        repaired = ResolvedBatch(with_ect, [newcomer, Remove("e")]).place(
            [with_ect.stream("s")]
        )
        validate(repaired)
        assert self._extras(repaired) == 0
        assert not repaired.ect_streams
        assert not repaired.probabilistic_streams()


def test_a_ring_reports_no_solver_stats_of_its_snapshot(star_topology):
    """Behind the SMT backend the ring runs in the heuristic rung, on a
    snapshot whose meta may still carry an earlier solve's stats and
    certificate: they are not the ring's to report, and must not be
    folded into ``solver.*`` again."""
    base = empty_schedule(star_topology)
    base.meta["solver_stats"] = {"decisions": 7}
    base.meta["certificate"] = {"verified": True}
    service = AdmissionService(ScheduleStore(base), ServiceConfig(
        backend="smt",
        rungs=(RungConfig(RUNG_FASTPATH), RungConfig(RUNG_HEURISTIC)),
    ))
    live, newcomer = _tied_pair("a")
    assert service.submit(live).rung == RUNG_FASTPATH
    decision = service.submit(newcomer)
    assert decision.accepted and decision.rung == RUNG_HEURISTIC
    meta = service.store.schedule.meta
    assert "solver_stats" not in meta and "certificate" not in meta
    counters = service.metrics.to_dict()["counters"]
    assert "solver.decisions" not in counters
    assert "certificates.verified_sat" not in counters


def _ect_climb(seed):
    """Grow the state of ``seed``, draw one ECT admit and, when the
    constructive rung falls through, climb the ``full`` rung: the
    state, the admit's batch and the resolved batch — ``ring`` says
    which ring decided, ``None`` without a climb — the climb's
    outcome (schedule or rejection text) and its seconds."""
    rng = random.Random(seed)
    schedule = _grow(rng)
    batch = [AdmitEct(_ect_spec(rng, "m0"))]
    resolved = ResolvedBatch(schedule, batch)
    if fastpath.decide(resolved).conclusive:
        return schedule, batch, resolved, None, 0.0
    service = AdmissionService(ScheduleStore(schedule))
    started = time.perf_counter()
    try:
        outcome = service._resolve(resolved, RUNG_FULL)
    except InfeasibleError as exc:
        outcome = str(exc)
    return (schedule, batch, resolved, outcome,
            time.perf_counter() - started)


if __name__ == "__main__":
    states = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    climbs = accepted = 0
    seconds = 0.0
    decided = {"none": 0, "gap": 0, "whole": 0}
    chain_accepts = []
    for seed in range(states):
        schedule, batch, resolved, outcome, took = _ect_climb(seed)
        if resolved.ring is None:
            continue
        climbs += 1
        seconds += took
        accepted += not isinstance(outcome, str)
        decided[resolved.ring[0]] += 1
        if resolved.ring[0] != "whole":
            whole = _whole_resolve(schedule, batch, set())
            chain_accepts.append((seed, resolved.ring, whole))
    print(f"{states} states: {climbs} ECT admits climb "
          f"({seconds * 1e3:.0f} ms in all), {accepted} accepted")
    print("  decided by ring: " + ", ".join(
        f"{ring} {count}" for ring, count in decided.items()
    ))
    for seed, (ring, released), whole in chain_accepts:
        verdict = "rejects" if isinstance(whole, str) else "accepts"
        print(f"  seed {seed}: {ring} ring of {released} accepts, the "
              f"whole re-solve {verdict}")
