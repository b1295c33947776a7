"""Online admission vs full rescheduling (the paper's Sec. VII-C future
work): admitting one stream into a 40-stream network must be much cheaper
than recomputing the whole schedule, and must leave existing slots
untouched — and what it costs must follow the links it touches, not the
size of the network around them (the 40 / 400 / 4000-stream sweep), and
grow linearly, not quadratically, with what those links already carry
(the 50 / 200 / 800 / 3200-slot sweep)."""

import time

from repro.analysis import format_table
from repro.core import NetworkSchedule, add_tct_stream, schedule_etsn, validate
from repro.experiments import line_of_rings, simulation_workload
from repro.model.frame import FrameSlot
from repro.model.stream import Priorities, Stream, TctRequirement
from repro.model.topology import Topology
from repro.model.units import MBPS_100, milliseconds, wire_bytes
from repro.service import (
    RUNG_FASTPATH,
    AdmissionService,
    AdmitTct,
    Remove,
    ScheduleStore,
    empty_schedule,
)


def test_online_admission_vs_reschedule(benchmark, emit):
    workload = simulation_workload(0.50, seed=1)
    base = schedule_etsn(workload.topology, workload.tct_streams,
                         workload.ect_streams)
    newcomer = Stream(
        name="late-arrival",
        path=tuple(workload.topology.shortest_path("D2", "D11")),
        e2e_ns=milliseconds(10), priority=Priorities.NSH_PH,
        length_bytes=1000, period_ns=milliseconds(10), share=False,
    )

    t0 = time.perf_counter()
    incremental = add_tct_stream(base, newcomer)
    t_incremental = time.perf_counter() - t0

    t0 = time.perf_counter()
    full = schedule_etsn(
        workload.topology, workload.tct_streams + [newcomer],
        workload.ect_streams,
    )
    t_full = time.perf_counter() - t0

    emit("online_scheduling", format_table(
        ["approach", "solve_ms", "slots_moved"],
        [["incremental admission", f"{t_incremental * 1e3:.2f}", 0],
         ["full reschedule", f"{t_full * 1e3:.2f}", "n/a"]],
        title="Admitting 1 stream into the 40-stream Fig. 13 network",
    ))

    validate(incremental)
    validate(full)
    # no pre-existing slot moved under incremental admission
    for key, slots in base.slots.items():
        assert incremental.slots[key] == slots
    # the admission is at least as fast as the full solve
    assert t_incremental <= t_full

    benchmark(lambda: add_tct_stream(base, newcomer))


# ----------------------------------------------------------------------
# cost of one admission as the *rest* of the network grows
# ----------------------------------------------------------------------
#: background streams live in rings 1-3 when the probes are timed.
SCALING_POINTS = (40, 400, 4000)
#: streams kept live in ring 0, where every probe lands.
PROBE_RING_STREAMS = 20
PROBE_CYCLES = 300
#: p50(400) and p50(4000) over p50(40).  What is left to grow is the
#: C-level ``.copy()`` clones per edit of the outer tables (slot table,
#: name map, per-link map) and of the stream list; the commit before the
#: carried indexes, which rebuilt its occupancy from every slot and
#: cloned every slot list per operation, measured 3.3x and 45x.
SCALING_GATES = (1.6, 7.0)


def _ring_request(name, ring, i):
    """Stream ``i`` across ring ``ring``: one to three switches on."""
    src = f"R{ring}S{i % 4}D{i % 2}"
    dst = f"R{ring}S{(i + 1 + i // 4 % 3) % 4}D{(i + 1) % 2}"
    return AdmitTct(TctRequirement(
        name=name, source=src, destination=dst,
        period_ns=milliseconds((4, 8, 16)[i % 3]),
        length_bytes=100 + 37 * (i % 8), priority=Priorities.NSH_PH,
    ))


def _background_request(i):
    """Stream ``i`` of the background: between the two devices of one
    switch in rings 1-3, round-robin over the 24 (switch, direction)
    lanes, so no link carries more than 1/24 of the background and
    growing it to 4000 streams stays cheap."""
    ring, switch, direction = 1 + i % 3, i // 3 % 4, i // 12 % 2
    return AdmitTct(TctRequirement(
        name=f"bg{i}", source=f"R{ring}S{switch}D{direction}",
        destination=f"R{ring}S{switch}D{1 - direction}",
        period_ns=milliseconds(16), length_bytes=100 + 37 * (i % 8),
        priority=Priorities.NSH_PH,
    ))


def _probe_p50_us(service):
    cycles = []
    for i in range(PROBE_CYCLES):
        request = _ring_request("probe", 0, i)
        started = time.perf_counter()
        admitted = service.submit(request)
        removed = service.submit(Remove("probe"))
        cycles.append(time.perf_counter() - started)
        assert admitted.accepted and admitted.rung == RUNG_FASTPATH
        assert removed.accepted
    cycles.sort()
    return cycles[len(cycles) // 2] * 1e6


def test_admission_cost_vs_network_size(emit):
    """Admit -> remove probes into ring 0 (held at 20 live streams) of
    ``line_of_rings(4, 4, 2)`` while rings 1-3 grow from 40 to 4000
    streams: none of the probes' links carries a background slot, so
    whatever the p50 gains is the cost of *having* a large snapshot."""
    service = AdmissionService(ScheduleStore(empty_schedule(
        line_of_rings(4, 4, 2)
    )))
    for i in range(PROBE_RING_STREAMS):
        assert service.submit(_ring_request(f"fixed{i}", 0, i)).accepted
    points = []
    background = 0
    for target in SCALING_POINTS:
        while background < target:
            assert service.submit(_background_request(background)).accepted
            background += 1
        _probe_p50_us(service)  # warm-up at this size
        points.append((target, _probe_p50_us(service)))
    validate(service.store.schedule)

    base_us = points[0][1]
    emit("online_scaling", format_table(
        ["background_streams", "admit+remove_p50_us", "vs_smallest"],
        [[n, f"{us:.0f}", f"{us / base_us:.2f}x"] for n, us in points],
        title=(
            "One admit -> remove cycle in ring 0 (20 live streams) as "
            "rings 1-3 grow"
        ),
    ))
    for (n, us), gate in zip(points[1:], SCALING_GATES):
        assert us <= gate * base_us, (
            f"an admit->remove cycle beside {n} background streams costs "
            f"{us:.0f} us, {us / base_us:.1f}x the {base_us:.0f} us beside "
            f"{points[0][0]} (gate {gate}x)"
        )


# ----------------------------------------------------------------------
# cost of one placement as *its own link* fills up
# ----------------------------------------------------------------------
#: slots already on the link, all of one period, laid end to end.
OCCUPANCY_POINTS = (50, 200, 800, 3200)
#: per 4x of occupancy.  The kernel builds the link's rows once and laps
#: over them twice, so the curve is linear above a fixed cost (the gate
#: leaves 2x of noise); the restart scan it replaced was quadratic and
#: measured 15x / 15x / 16x.
OCCUPANCY_GATE = 8.0
PLACEMENTS_PER_POINT = 9


def _packed_link(occupancy):
    """``occupancy`` one-frame streams back to back on the one link
    A -> B, and the newcomer that has to go behind all of them."""
    topo = Topology()
    topo.add_device("A")
    topo.add_device("B")
    topo.add_link("A", "B", bandwidth_bps=10 * MBPS_100)
    path = tuple(topo.shortest_path("A", "B"))
    (link,) = path

    def stream(name):
        return Stream(
            name=name, path=path, e2e_ns=milliseconds(16),
            priority=Priorities.NSH_PH, length_bytes=64,
            period_ns=milliseconds(16),
        )

    duration = link.transmission_ns(wire_bytes(64))
    streams = [stream(f"s{i}") for i in range(occupancy)]
    packed = NetworkSchedule(topology=topo, streams=streams, slots={
        (s.name, link.key): [FrameSlot(
            s.name, link.key, 0, i * duration, s.period_ns, duration
        )]
        for i, s in enumerate(streams)
    })
    return packed, stream("newcomer"), occupancy * duration


def test_placement_cost_vs_link_occupancy(emit):
    """One ``add_tct_stream`` onto a link that already carries 50 to
    3200 same-period slots: every slot is in the newcomer's way, so this
    is the worst case of the earliest-fit kernel per slot on the link."""
    points = []
    for occupancy in OCCUPANCY_POINTS:
        packed, newcomer, behind_all_ns = _packed_link(occupancy)
        if occupancy == OCCUPANCY_POINTS[0]:
            validate(packed)
        times = []
        for _ in range(PLACEMENTS_PER_POINT):
            started = time.perf_counter()
            admitted = add_tct_stream(packed, newcomer, validate_result=False)
            times.append(time.perf_counter() - started)
        (slot,) = admitted.slots[("newcomer", ("A", "B"))]
        assert slot.offset_ns == behind_all_ns
        times.sort()
        points.append((occupancy, times[len(times) // 2] * 1e3))

    emit("online_link_scaling", format_table(
        ["slots_on_link", "placement_p50_ms", "vs_previous"],
        [[n, f"{ms:.3f}", f"{ms / prev:.1f}x" if prev else "-"]
         for (n, ms), prev in zip(points, [None] + [p[1] for p in points])],
        title="One placement onto a packed link, by the link's occupancy",
    ))
    for (n, ms), (prev_n, prev_ms) in zip(points[1:], points):
        assert ms <= OCCUPANCY_GATE * prev_ms, (
            f"a placement behind {n} slots costs {ms:.2f} ms, "
            f"{ms / prev_ms:.1f}x the {prev_ms:.2f} ms behind {prev_n} "
            f"(gate {OCCUPANCY_GATE}x per 4x of occupancy)"
        )
