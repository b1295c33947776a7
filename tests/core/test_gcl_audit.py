"""GCL-audit tests, including a property sweep across modes."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.baselines import schedule_avb, schedule_etsn, schedule_period
from repro.core.gcl import GateWindow, build_gcl
from repro.core.gcl_audit import GclAuditError, audit_gcl
from repro.core.schedule import NetworkSchedule
from repro.experiments import simulation_workload
from repro.model.frame import FrameSlot
from repro.model.stream import EctStream, Priorities, Stream, StreamType
from repro.model.topology import Topology
from repro.model.units import milliseconds


def _setup(topo):
    tct = [
        Stream(name="sh", path=tuple(topo.shortest_path("D1", "D3")),
               e2e_ns=milliseconds(4), priority=Priorities.SH_PL,
               length_bytes=1500, period_ns=milliseconds(4), share=True),
        Stream(name="ns", path=tuple(topo.shortest_path("D1", "D2")),
               e2e_ns=milliseconds(8), priority=Priorities.NSH_PL,
               length_bytes=800, period_ns=milliseconds(8), share=False),
    ]
    ects = [EctStream("alarm", "D2", "D3", min_interevent_ns=milliseconds(16),
                      length_bytes=1500, possibilities=4)]
    return tct, ects


class TestCleanAudits:
    @pytest.mark.parametrize("mode", ["etsn", "etsn-strict"])
    def test_etsn_modes_audit_clean(self, star_topology, mode):
        tct, ects = _setup(star_topology)
        schedule = schedule_etsn(star_topology, tct, ects)
        audit_gcl(schedule, build_gcl(schedule, mode=mode))

    def test_period_audits_clean(self, star_topology):
        tct, ects = _setup(star_topology)
        schedule = schedule_period(star_topology, tct, ects)
        gcl = build_gcl(schedule, mode="period",
                        ect_proxies=schedule.meta["ect_proxies"])
        audit_gcl(schedule, gcl)

    def test_avb_audits_clean(self, star_topology):
        tct, ects = _setup(star_topology)
        schedule = schedule_avb(star_topology, tct, ects)
        audit_gcl(schedule, build_gcl(schedule, mode="avb"))


class TestTamperedGcl:
    def _clean(self, star_topology):
        tct, ects = _setup(star_topology)
        schedule = schedule_etsn(star_topology, tct, ects)
        return schedule, build_gcl(schedule, mode="etsn")

    def test_missing_window_detected(self, star_topology):
        schedule, gcl = self._clean(star_topology)
        port = gcl.port(("SW1", "D3"))
        # drop the shared stream's windows on its last link
        port.windows[Priorities.SH_PL] = []
        port.finalize()
        with pytest.raises(GclAuditError):
            audit_gcl(schedule, gcl)

    def test_wrong_owner_detected(self, star_topology):
        schedule, gcl = self._clean(star_topology)
        port = gcl.port(("SW1", "D3"))
        port.windows[Priorities.SH_PL] = [
            GateWindow(w.start_ns, w.end_ns, owner="intruder")
            for w in port.windows[Priorities.SH_PL]
        ]
        port.finalize()
        with pytest.raises(GclAuditError):
            audit_gcl(schedule, gcl)

    def test_ep_leak_into_nonshared_detected(self, star_topology):
        schedule, gcl = self._clean(star_topology)
        port = gcl.port(("SW1", "D2"))  # the non-shared stream's last link
        port.windows[Priorities.EP] = [GateWindow(0, gcl.cycle_ns, owner=None)]
        port.finalize()
        with pytest.raises(GclAuditError):
            audit_gcl(schedule, gcl)

    def test_be_leak_into_tct_detected(self, star_topology):
        schedule, gcl = self._clean(star_topology)
        port = gcl.port(("SW1", "D3"))
        port.windows[Priorities.BE] = [GateWindow(0, gcl.cycle_ns, owner=None)]
        port.finalize()
        with pytest.raises(GclAuditError):
            audit_gcl(schedule, gcl)

    def test_overlapping_windows_detected(self, star_topology):
        schedule, gcl = self._clean(star_topology)
        port = gcl.port(("SW1", "D3"))
        first = port.windows[Priorities.SH_PL][0]
        port.windows[Priorities.SH_PL].append(
            GateWindow(first.start_ns, first.end_ns + 1, owner=first.owner)
        )
        # bypass finalize's own check by not re-finalizing; audit catches it
        with pytest.raises(GclAuditError):
            audit_gcl(schedule, gcl)


class TestInvariantMessages:
    """One test per numbered invariant in the module docstring; each
    failure must name the offending stream, queue, or window."""

    def _clean(self, star_topology, mode="etsn"):
        tct, ects = _setup(star_topology)
        schedule = schedule_etsn(star_topology, tct, ects)
        return schedule, build_gcl(schedule, mode=mode)

    def test_invariant_1_coverage_names_stream_and_queue(self, star_topology):
        schedule, gcl = self._clean(star_topology)
        port = gcl.port(("SW1", "D3"))
        port.windows[Priorities.SH_PL] = []
        port.finalize()
        with pytest.raises(
            GclAuditError,
            match=r"sh\[0\] on \('SW1', 'D3'\): queue "
                  rf"{Priorities.SH_PL} gate closed",
        ):
            audit_gcl(schedule, gcl)

    def test_invariant_1_ownership_names_both_owners(self, star_topology):
        schedule, gcl = self._clean(star_topology)
        port = gcl.port(("SW1", "D3"))
        port.windows[Priorities.SH_PL] = [
            GateWindow(w.start_ns, w.end_ns, owner="intruder")
            for w in port.windows[Priorities.SH_PL]
        ]
        port.finalize()
        with pytest.raises(
            GclAuditError,
            match=r"owned by 'intruder', expected 'sh'",
        ):
            audit_gcl(schedule, gcl)

    def test_invariant_2_ep_policy_names_nonshared_stream(self, star_topology):
        schedule, gcl = self._clean(star_topology)
        port = gcl.port(("SW1", "D2"))  # the non-shared stream's last link
        port.windows[Priorities.EP] = [GateWindow(0, gcl.cycle_ns, owner=None)]
        port.finalize()
        with pytest.raises(
            GclAuditError,
            match=r"EP gate open at \d+ inside non-shared slot of ns",
        ):
            audit_gcl(schedule, gcl)

    def test_invariant_2_strict_mode_names_probabilistic_slot(
        self, star_topology
    ):
        schedule, gcl = self._clean(star_topology, mode="etsn-strict")
        stripped = False
        for port in gcl.ports.values():
            if port.windows.get(Priorities.EP):
                port.windows[Priorities.EP] = []
                port.finalize()
                stripped = True
        assert stripped
        with pytest.raises(
            GclAuditError,
            match=rf"alarm#ps\d+\[\d+\] on .*: queue {Priorities.EP} "
                  r"gate closed",
        ):
            audit_gcl(schedule, gcl)

    def test_invariant_3_be_leak_names_tct_stream(self, star_topology):
        schedule, gcl = self._clean(star_topology)
        port = gcl.port(("SW1", "D3"))
        port.windows[Priorities.BE] = [GateWindow(0, gcl.cycle_ns, owner=None)]
        port.finalize()
        with pytest.raises(
            GclAuditError,
            match=r"BE gate open at \d+ inside TCT slot of sh",
        ):
            audit_gcl(schedule, gcl)

    def test_invariant_4_cycle_overrun_names_link_and_queue(
        self, star_topology
    ):
        schedule, gcl = self._clean(star_topology)
        port = gcl.port(("SW1", "D3"))
        port.windows[Priorities.SH_PL].append(
            GateWindow(port.cycle_ns + 1, port.cycle_ns + 2, owner="sh")
        )
        with pytest.raises(
            GclAuditError,
            match=rf"\('SW1', 'D3'\) q{Priorities.SH_PL}: "
                  r"window past the cycle end",
        ):
            audit_gcl(schedule, gcl)

    def test_invariant_4_overlap_names_both_windows(self, star_topology):
        schedule, gcl = self._clean(star_topology)
        port = gcl.port(("SW1", "D3"))
        first = port.windows[Priorities.SH_PL][0]
        port.windows[Priorities.SH_PL].append(
            GateWindow(first.start_ns, first.end_ns + 1, owner=first.owner)
        )
        with pytest.raises(
            GclAuditError,
            match=rf"q{Priorities.SH_PL}: overlapping windows "
                  rf"\[{first.start_ns},{first.end_ns}",
        ):
            audit_gcl(schedule, gcl)


DEVICES = ["D1", "D2", "D3", "D4"]


@st.composite
def audit_scenario(draw):
    topo = Topology()
    topo.add_switch("SW1")
    topo.add_switch("SW2")
    for device, switch in (("D1", "SW1"), ("D2", "SW1"),
                           ("D3", "SW2"), ("D4", "SW2")):
        topo.add_device(device)
        topo.add_link(device, switch)
    topo.add_link("SW1", "SW2")
    streams = []
    for i in range(draw(st.integers(0, 4))):
        src = draw(st.sampled_from(DEVICES))
        dst = draw(st.sampled_from([d for d in DEVICES if d != src]))
        period = draw(st.sampled_from([milliseconds(4), milliseconds(8)]))
        share = draw(st.booleans())
        streams.append(Stream(
            name=f"t{i}", path=tuple(topo.shortest_path(src, dst)),
            e2e_ns=period,
            priority=Priorities.SH_PL if share else Priorities.NSH_PL,
            length_bytes=draw(st.sampled_from([200, 1500, 3000])),
            period_ns=period, share=share,
        ))
    ects = []
    if draw(st.booleans()):
        src = draw(st.sampled_from(DEVICES))
        dst = draw(st.sampled_from([d for d in DEVICES if d != src]))
        ects.append(EctStream("e", src, dst,
                              min_interevent_ns=milliseconds(16),
                              length_bytes=1500, possibilities=4))
    mode = draw(st.sampled_from(["etsn", "etsn-strict", "avb"]))
    return topo, streams, ects, mode


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(audit_scenario())
def test_every_synthesized_gcl_audits_clean(case):
    from repro.core.schedule import InfeasibleError

    topo, streams, ects, mode = case
    if not streams and not ects:
        return  # nothing scheduled; no GCL to audit
    try:
        if mode == "avb":
            schedule = schedule_avb(topo, streams, ects)
        else:
            schedule = schedule_etsn(topo, streams, ects)
    except InfeasibleError:
        return
    gcl = build_gcl(schedule, mode=mode)
    audit_gcl(schedule, gcl)


class TestGapsBetweenInstants:
    """A probe audit (start, middle, last instant of each slot) misses
    edits that fall between its probes; the audit checks whole slots.

    ``tct1``'s first slot on <D3,SW1> of the Fig. 13 schedule at load 0.5
    is ``[0, 123040)``: its probes would be 0, 61520 and 123039."""

    LINK = ("D3", "SW1")
    CUT = (20506, 41013)

    def _fig13(self):
        workload = simulation_workload(0.5, 1)
        schedule = schedule_etsn(workload.topology, workload.tct_streams,
                                 workload.ect_streams)
        first = schedule.slots[("tct1", self.LINK)][0]
        assert (first.offset_ns, first.end_ns) == (0, 123040)
        return schedule, build_gcl(schedule, mode="etsn")

    def test_hole_inside_a_slot_detected(self):
        schedule, gcl = self._fig13()
        port = gcl.port(self.LINK)
        queue = schedule.stream("tct1").priority
        _carve(port, queue, *self.CUT)
        with pytest.raises(
            GclAuditError,
            match=rf"tct1\[0\] on \('D3', 'SW1'\): queue {queue} "
                  rf"gate closed at {self.CUT[0]} inside its slot",
        ):
            audit_gcl(schedule, gcl)

    def test_be_window_inside_a_slot_detected(self):
        schedule, gcl = self._fig13()
        port = gcl.port(self.LINK)
        port.add_window(Priorities.BE, GateWindow(*self.CUT))
        port.finalize()
        with pytest.raises(
            GclAuditError,
            match=rf"BE gate open at {self.CUT[0]} inside TCT slot of tct1",
        ):
            audit_gcl(schedule, gcl)


# ----------------------------------------------------------------------
# audit_gcl against an instant-by-instant reference on small cycles
# ----------------------------------------------------------------------
#: every slot sits inside one BASE-long stretch of its period, so slots
#: of different streams that are disjoint modulo BASE never collide.
BASE = 24
LINKS = (("D1", "SW1"), ("SW1", "D2"))


def _reference(schedule, gcl, proxies):
    """The audit's checks 1-3, probing every gate instant of every slot
    occurrence through ``PortGcl.state_at``: the first failure's
    message, or ``None``."""
    streams = {s.name: s for s in schedule.streams}
    cycle = gcl.cycle_ns
    for (name, link_key), slots in schedule.slots.items():
        stream = streams[name]
        prob = stream.type == StreamType.PROB
        if prob and gcl.mode != "etsn-strict":
            continue
        port = gcl.port(link_key)
        instants = [
            (slot, t % cycle)
            for slot in slots
            for k in range(cycle // slot.period_ns)
            for t in range(slot.offset_ns + k * slot.period_ns,
                           slot.offset_ns + k * slot.period_ns
                           + slot.duration_ns)
        ]
        if prob:
            queue, owner = Priorities.EP, None
        elif name in proxies:
            queue, owner = Priorities.EP, proxies[name]
        else:
            queue, owner = stream.priority, name
        for slot, t in instants:
            is_open, window_owner, _ = port.state_at(queue, t)
            where = f"{slot.stream}[{slot.index}] on {link_key}"
            if not is_open:
                return f"{where}: queue {queue} gate closed at {t} inside its slot"
            if owner is not None and window_owner not in (owner, None):
                return (f"{where}: window at {t} owned by "
                        f"{window_owner!r}, expected {owner!r}")
        if prob or name in proxies:
            continue
        closed = [(Priorities.BE, "BE gate open at {} inside TCT slot of")]
        if not stream.share:
            closed.insert(0, (Priorities.EP,
                              "EP gate open at {} inside non-shared slot of"))
        for queue, text in closed:
            for slot, t in instants:
                if port.state_at(queue, t)[0]:
                    return f"{text.format(t)} {slot.stream} on {link_key}"
    return None


def _carve(port, queue, start, end, owner=None, reopen=False):
    """Close ``queue`` on ``[start, end)``; with ``reopen``, open it
    there again for ``owner``."""
    kept = []
    for w in port.windows.get(queue, []):
        if w.start_ns < start:
            kept.append(GateWindow(w.start_ns, min(w.end_ns, start), w.owner))
        if w.end_ns > end:
            kept.append(GateWindow(max(w.start_ns, end), w.end_ns, w.owner))
    if reopen:
        kept.append(GateWindow(start, end, owner))
    port.windows[queue] = kept
    port.finalize()


@st.composite
def small_programs(draw):
    """A hand-built schedule on a BASE or 2*BASE cycle, its mode, and up
    to three edits of the synthesized program: a hole cut into a queue,
    a queue opened (leak), or a stretch handed to another owner."""
    topo = Topology()
    topo.add_switch("SW1")
    for device in ("D1", "D2"):
        topo.add_device(device)
        topo.add_link(device, "SW1")
    path = tuple(topo.link(*key) for key in LINKS)
    streams = []
    for i in range(draw(st.integers(1, 4))):
        share = draw(st.booleans())
        period = draw(st.sampled_from([BASE, 2 * BASE]))
        streams.append(Stream(
            name=f"t{i}", path=path, e2e_ns=period,
            priority=draw(st.sampled_from(
                [Priorities.SH_PL, Priorities.SH_PH] if share
                else [Priorities.NSH_PL, Priorities.NSH_PH])),
            length_bytes=100, period_ns=period, share=share,
        ))
    if draw(st.booleans()):
        streams.append(Stream(
            name="e#ps0", path=path, e2e_ns=2 * BASE, priority=Priorities.EP,
            length_bytes=100, period_ns=2 * BASE, type=StreamType.PROB,
            parent="e",
        ))
    slots = {}
    for key in LINKS:
        # disjoint (possibly touching) stretches of [0, BASE), dealt out
        # to the streams; a stream's stretches on one link become its
        # consecutive frame slots there
        cuts = sorted(draw(st.sets(st.integers(0, BASE), min_size=2,
                                   max_size=10)))
        for start, end in zip(cuts, cuts[1:]):
            if draw(st.integers(0, 3)) == 0:
                continue  # leave a gap
            stream = draw(st.sampled_from(streams))
            shift = draw(st.sampled_from(range(0, stream.period_ns, BASE)))
            frames = slots.setdefault((stream.name, key), [])
            frames.append(FrameSlot(
                stream=stream.name, link=key, index=len(frames),
                offset_ns=start + shift, period_ns=stream.period_ns,
                duration_ns=end - start,
            ))
    mode = draw(st.sampled_from(["etsn", "etsn-strict", "avb", "period"]))
    meta = {"ect_proxies": {"t0": "e"}} if mode == "period" else {}
    schedule = NetworkSchedule(topology=topo, streams=streams, slots=slots,
                               meta=meta)
    edits = draw(st.lists(st.tuples(
        st.sampled_from(["hole", "leak", "owner"]),
        st.sampled_from(LINKS),
        st.sampled_from([Priorities.EP, Priorities.BE, Priorities.SH_PL,
                         Priorities.SH_PH, Priorities.NSH_PL,
                         Priorities.NSH_PH]),
        st.integers(0, 2 * BASE - 1),
        st.integers(1, 6),
        st.sampled_from(["intruder", "t0", "t1"]),
    ), max_size=3))
    return schedule, mode, edits


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_programs())
def test_audit_agrees_with_instant_by_instant_reference(case):
    schedule, mode, edits = case
    proxies = schedule.meta.get("ect_proxies", {})
    gcl = build_gcl(schedule, mode=mode, ect_proxies=proxies)
    for kind, link, queue, start, length, owner in edits:
        end = min(start + length, gcl.cycle_ns)
        if start >= end or link not in gcl.ports:
            continue
        port = gcl.port(link)
        if kind == "hole":
            _carve(port, queue, start, end)
        elif kind == "leak":
            _carve(port, queue, start, end, reopen=True)
        else:
            _carve(port, queue, start, end, owner=owner, reopen=True)
    expected = _reference(schedule, gcl, proxies)
    try:
        audit_gcl(schedule, gcl)
    except GclAuditError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
