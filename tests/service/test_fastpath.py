"""The analytic fast-path rung: verdict semantics and soundness.

The load-bearing property (checked by hypothesis below): the fast path
never decides something the solver ladder would decide differently —

* a conclusive ``accept`` carries an actual delta-validated schedule
  (the witness *is* the proof), and the full SMT re-solve of the same
  target set is satisfiable;
* a conclusive ``reject`` is backed by a necessary condition (wire-time
  floor, per-link capacity, pairwise gcd), so the full SMT re-solve of
  the same target set must raise :class:`InfeasibleError`.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core.baselines import schedule_etsn
from repro.core.schedule import InfeasibleError, NetworkSchedule, validate
from repro.model.frame import FrameSlot
from repro.model.stream import (
    EctStream,
    Priorities,
    Stream,
    StreamType,
    TctRequirement,
)
from repro.model.topology import Topology
from repro.model.units import MBPS_100, milliseconds
from repro.service import (
    AdmissionService,
    AdmitEct,
    AdmitTct,
    Remove,
    ScheduleStore,
    empty_schedule,
)
from repro.service import fastpath
from tests.conftest import MTU_WIRE_NS


def _tct(name, src="D1", dst="D3", period_ns=None, length=1500,
         share=False, e2e_ns=None):
    period_ns = period_ns if period_ns is not None else milliseconds(8)
    return AdmitTct(TctRequirement(
        name=name, source=src, destination=dst,
        period_ns=period_ns, e2e_ns=e2e_ns, length_bytes=length,
        priority=Priorities.SH_PL if share else Priorities.NSH_PH,
        share=share,
    ))


def _ect(name, src="D2", dst="D3", period_ms=16, length=512):
    return AdmitEct(EctStream(
        name=name, source=src, destination=dst,
        min_interevent_ns=milliseconds(period_ms),
        length_bytes=length, possibilities=4,
    ))


@pytest.fixture
def schedule(star_topology):
    return empty_schedule(star_topology)


class TestVerdicts:
    def test_constructive_accept_returns_validated_schedule(self, schedule):
        result = fastpath.evaluate(schedule, [_tct("a")])
        assert result.verdict == fastpath.ACCEPT
        assert result.conclusive
        assert result.schedule is not None
        validate(result.schedule)
        assert any(s.name == "a" for s in result.schedule.streams)
        # the base schedule was not mutated
        assert not schedule.streams

    def test_batch_accept_applies_every_operation(self, schedule):
        first = fastpath.evaluate(schedule, [_tct("a"), _tct("b", src="D2")])
        assert first.verdict == fastpath.ACCEPT
        second = fastpath.evaluate(
            first.schedule, [Remove("a"), _tct("c", src="D2", dst="D1")]
        )
        assert second.verdict == fastpath.ACCEPT
        names = {s.name for s in second.schedule.streams}
        assert names == {"b", "c"}

    def test_e2e_floor_rejects_impossible_deadline(self, schedule):
        # 1 us end-to-end over ~123 us of wire time on the first hop
        result = fastpath.evaluate(
            schedule, [_tct("tight", e2e_ns=1_000)]
        )
        assert result.verdict == fastpath.REJECT
        assert "e2e-floor" in result.reason

    def test_screen_route_is_schedule_free(self, star_topology):
        request = _tct("tight", e2e_ns=1_000)
        stream = request.requirement.resolve(star_topology)
        reason = fastpath.screen_route(stream)
        assert reason is not None and "e2e-floor" in reason
        ok = _tct("fine").requirement.resolve(star_topology)
        assert fastpath.screen_route(ok) is None

    def test_capacity_rejects_saturated_link(self, schedule):
        # five 1500-byte frames every 6 wire-times fill 5/6 of D->SW1;
        # a 2-frame newcomer needs 2/6 more: conclusive link overload
        period = 6 * MTU_WIRE_NS
        current = schedule
        for i in range(5):
            result = fastpath.evaluate(current, [AdmitTct(TctRequirement(
                name=f"s{i}", source="D2" if i % 2 else "D1",
                destination="D3", period_ns=period, length_bytes=1500,
                priority=Priorities.NSH_PL,
            ))])
            assert result.verdict == fastpath.ACCEPT
            current = result.schedule
        result = fastpath.evaluate(current, [AdmitTct(TctRequirement(
            name="hog", source="D2", destination="D3",
            period_ns=period, length_bytes=2 * 1500,
            priority=Priorities.NSH_PL,
        ))])
        assert result.verdict == fastpath.REJECT
        assert "link-capacity" in result.reason

    def test_inconclusive_falls_through_with_subsumption(self, schedule):
        # three D1->D3 seeds leave a single free slot on SW1->D3; the
        # probe's earliest fit there busts a 3-wire-time deadline, yet
        # no necessary condition trips (the link lands on exactly 4/4
        # density, capacity needs > 1) — so the verdict must be a
        # fall-through to the re-solve rungs
        period = 4 * MTU_WIRE_NS
        current = schedule
        for i in range(3):
            result = fastpath.evaluate(current, [AdmitTct(TctRequirement(
                name=f"s{i}", source="D1", destination="D3",
                period_ns=period, length_bytes=1500,
                priority=Priorities.NSH_PL,
            ))])
            assert result.verdict == fastpath.ACCEPT
            current = result.schedule
        probe = AdmitTct(TctRequirement(
            name="probe", source="D2", destination="D3",
            period_ns=period, e2e_ns=3 * MTU_WIRE_NS,
            length_bytes=1500, priority=Priorities.NSH_PL,
        ))
        result = fastpath.evaluate(current, [probe])
        assert result.verdict == fastpath.INCONCLUSIVE
        assert not result.conclusive
        assert "constructive placement failed" in result.reason
        # ring 0's failure names the stream and the link it did not fit
        assert result.failure.stream == "probe"
        assert result.failure.link == ("SW1", "D3")

    def test_unknown_remove_is_inconclusive(self, schedule):
        result = fastpath.evaluate(schedule, [Remove("ghost")])
        assert result.verdict == fastpath.INCONCLUSIVE


class TestServiceIntegration:
    def test_fastpath_decision_publishes_and_counts(self, star_topology):
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology))
        )
        assert service.submit(_tct("a")).rung == fastpath.RUNG_FASTPATH
        rejected = service.submit(_tct("tight", src="D2", e2e_ns=1_000))
        assert not rejected.accepted
        assert "e2e-floor" in rejected.reason
        counters = service.metrics.to_dict()["counters"]
        assert counters["fastpath.accepts"] == 1
        assert counters["fastpath.rejects"] == 1
        assert service.store.version == 1
        validate(service.store.schedule)

    def test_rejected_latency_histogram_observes(self, star_topology):
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology))
        )
        service.submit(_tct("a"))
        service.submit(_tct("a"))  # duplicate name: rejected
        histograms = service.metrics.to_dict()["histograms"]
        assert histograms["latency.rejected_ms"]["count"] == 1


# -- hypothesis: the fast path agrees with the SMT solver --------------

DEVICES = ("D1", "D2", "D3")
PERIODS = (4 * MTU_WIRE_NS, 6 * MTU_WIRE_NS, 8 * MTU_WIRE_NS)


@st.composite
def fastpath_scenario(draw):
    """A small seeded schedule plus one probe admit on the star."""
    seeds = []
    for i in range(draw(st.integers(0, 2))):
        src = draw(st.sampled_from(DEVICES))
        dst = draw(st.sampled_from([d for d in DEVICES if d != src]))
        seeds.append(AdmitTct(TctRequirement(
            name=f"seed{i}", source=src, destination=dst,
            period_ns=draw(st.sampled_from(PERIODS)),
            length_bytes=draw(st.sampled_from([800, 1500, 3000])),
            priority=Priorities.NSH_PL,
        )))
    src = draw(st.sampled_from(DEVICES))
    dst = draw(st.sampled_from([d for d in DEVICES if d != src]))
    period = draw(st.sampled_from(PERIODS))
    probe = AdmitTct(TctRequirement(
        name="probe", source=src, destination=dst,
        period_ns=period,
        e2e_ns=draw(st.sampled_from([
            period, period // 2, MTU_WIRE_NS, MTU_WIRE_NS // 2,
        ])),
        length_bytes=draw(st.sampled_from([1500, 4500, 12 * 1500])),
        priority=Priorities.NSH_PL,
    ))
    return seeds, probe


def _star():
    topo = Topology()
    topo.add_switch("SW1")
    for device in DEVICES:
        topo.add_device(device)
        topo.add_link(device, "SW1", bandwidth_bps=MBPS_100)
    return topo


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fastpath_scenario())
def test_fastpath_never_contradicts_the_smt_solver(scenario):
    seeds, probe = scenario
    schedule = empty_schedule(_star())
    for seed in seeds:
        result = fastpath.evaluate(schedule, [seed])
        if result.verdict != fastpath.ACCEPT:
            return  # seeding failed; nothing to probe against
        schedule = result.schedule
    result = fastpath.evaluate(schedule, [probe])
    if not result.conclusive:
        return
    tct = [s for s in schedule.streams]
    target = tct + [probe.requirement.resolve(schedule.topology)]

    def smt_solve():
        return schedule_etsn(schedule.topology, target, (), backend="smt")

    if result.verdict == fastpath.ACCEPT:
        validate(result.schedule)  # the witness checks out...
        smt_solve()                # ...and the solver agrees it is SAT
    else:
        with pytest.raises(InfeasibleError):
            smt_solve()


# ----------------------------------------------------------------------
# the capacity screen in integers says what exact fractions say
# ----------------------------------------------------------------------
def _fraction_capacity_reject(schedule, probes, removed):
    """The capacity screen as it was written with ``Fraction`` densities:
    the reference the integer screen must match, verdict and text."""
    streams = schedule.streams_by_name
    by_link = schedule.slots_by_link
    candidate_links = {link.key for probe in probes for link in probe.path}
    det, nonshared, prob = {}, {}, {}

    def add(key, stream, load):
        if stream.type == StreamType.DET:
            det[key] = det.get(key, Fraction(0)) + load
            if not stream.share:
                nonshared[key] = nonshared.get(key, Fraction(0)) + load
        else:
            per_parent = prob.setdefault(key, {})
            parent = stream.parent or stream.name
            if load > per_parent.get(parent, Fraction(0)):
                per_parent[parent] = load

    for key in candidate_links:
        busy_ns = {}
        for slot in by_link.get(key, ()):
            if slot.stream not in removed:
                busy_ns[slot.stream] = (
                    busy_ns.get(slot.stream, 0) + slot.duration_ns
                )
        for name, total_ns in busy_ns.items():
            stream = streams[name]
            add(key, stream, Fraction(total_ns, stream.period_ns))
    for probe in probes:
        for link in probe.path:
            wire = sum(fastpath._wire_ns(probe, link))
            add(link.key, probe, Fraction(wire, probe.period_ns))
    for key in candidate_links:
        det_load = det.get(key, Fraction(0))
        if det_load > 1:
            return (
                f"link-capacity: deterministic streams alone need "
                f"{float(det_load):.3f}x of link <{key[0]},{key[1]}>"
            )
        mixed = nonshared.get(key, Fraction(0)) + sum(
            prob.get(key, {}).values(), Fraction(0)
        )
        if mixed > 1:
            return (
                f"link-capacity: non-sharing streams plus one possibility "
                f"per ECT need {float(mixed):.3f}x of link "
                f"<{key[0]},{key[1]}>"
            )
    return None


_DEVICES = ("D1", "D2", "D3")
_PERIODS_NS = (1_000_000, 2_000_000, 3_000_000, 5_000_000)


def _star():
    topo = Topology()
    topo.add_switch("SW1")
    for device in _DEVICES:
        topo.add_device(device)
        topo.add_link(device, "SW1", bandwidth_bps=MBPS_100)
    return topo


def _stream(topo, name, kind, endpoints, period_ns, length=1500):
    """``kind``: ``"det"``, ``"shared"`` or a parent ECT's name."""
    deterministic = kind in ("det", "shared")
    return Stream(
        name=name, path=tuple(topo.shortest_path(*endpoints)),
        e2e_ns=period_ns, priority=Priorities.NSH_PL, length_bytes=length,
        period_ns=period_ns,
        type=StreamType.DET if deterministic else StreamType.PROB,
        share=kind == "shared", parent=None if deterministic else kind,
    )


def _capacity_case_schedule(topo, existing):
    """A slot table (never validated: the screen reads only densities)
    with one slot per duration on every link of each stream's route."""
    streams, slots = [], {}
    for name, kind, endpoints, period_ns, durations in existing:
        stream = _stream(topo, name, kind, endpoints, period_ns)
        streams.append(stream)
        for link in stream.path:
            slots[(name, link.key)] = [
                FrameSlot(name, link.key, j, 0, period_ns, duration)
                for j, duration in enumerate(durations)
            ]
    return NetworkSchedule(topology=topo, streams=streams, slots=slots)


_kinds = st.sampled_from(["det", "shared", "e0", "e1"])
#: three routes, two of them meeting on SW1->D3
_endpoints = st.sampled_from([("D1", "D3"), ("D2", "D3"), ("D1", "D2")])


def _busy_ns(period_ns):
    """A slot of 5-45 % of the period, give or take an odd nanosecond."""
    return st.builds(
        lambda percent, jitter: period_ns * percent // 100 + jitter,
        st.sampled_from((5, 10, 20, 30, 45)), st.integers(1, 999),
    )


@st.composite
def _capacity_case(draw):
    existing = []
    for i in range(draw(st.integers(0, 8))):
        period_ns = draw(st.sampled_from(_PERIODS_NS))
        existing.append((
            f"s{i}", draw(_kinds), draw(_endpoints), period_ns,
            draw(st.lists(_busy_ns(period_ns), min_size=1, max_size=2)),
        ))
    probes = [
        (f"p{i}", draw(_kinds), draw(_endpoints),
         draw(st.sampled_from(_PERIODS_NS)), draw(st.integers(64, 4500)))
        for i in range(draw(st.integers(1, 2)))
    ]
    names = [e[0] for e in existing]
    removed = draw(st.sets(st.sampled_from(names))) if names else set()
    return existing, probes, removed


#: one case per text: the deterministic streams alone overflow D1->SW1;
#: the deterministic load fits but a possibility on top of it does not
_DET_OVERFLOW = (
    [("s0", "det", ("D1", "D3"), 1_000_000, [950_000])],
    [("p0", "det", ("D1", "D3"), 1_000_000, 1500)], set(),
)
_MIXED_OVERFLOW = (
    [("s0", "det", ("D1", "D3"), 1_000_000, [300_000]),
     ("s1", "e0", ("D1", "D3"), 1_000_000, [600_000])],
    [("p0", "det", ("D1", "D3"), 1_000_000, 1500)], set(),
)


def _both_screens(case):
    existing, probe_specs, removed = case
    topo = _star()
    schedule = _capacity_case_schedule(topo, existing)
    probes = [_stream(topo, *spec) for spec in probe_specs]
    return (
        fastpath._capacity_reject(schedule, probes, removed),
        _fraction_capacity_reject(schedule, probes, removed),
    )


@pytest.mark.parametrize("case, text", [
    (_DET_OVERFLOW, "link-capacity: deterministic streams alone need 1.07"),
    (_MIXED_OVERFLOW, "link-capacity: non-sharing streams plus one"),
])
def test_integer_capacity_screen_fires_both_texts(case, text):
    integer, reference = _both_screens(case)
    assert integer == reference
    assert integer.startswith(text)


@settings(max_examples=300, deadline=None)
@given(_capacity_case())
def test_integer_capacity_screen_matches_exact_fractions(case):
    integer, reference = _both_screens(case)
    assert integer == reference
    event(str(reference and reference.split(" need")[0]))
