#!/usr/bin/env python3
"""Online stream admission through the admission-control service.

A running network cannot stop for a full reschedule every time a machine
is added.  This example deploys an E-TSN schedule into a versioned
:class:`ScheduleStore` and then drives the :class:`AdmissionService`
"at run time":

1. admits two new TCT streams in one batch (validated once, placed
   earliest-fit around the frozen schedule);
2. admits a second ECT stream (the constructive rung re-places only the
   TCT streams that now share their slots with it);
3. admits a *sharing* TCT stream beside the live ECT streams — placed
   constructively too, with its own prudent-reservation extras;
4. rejects an overload admission with a structured decision, leaving
   the published schedule intact;
5. retires a stream and reuses its capacity;
6. prints the service metrics (per-rung counts, decision latency).

Readers holding an old store snapshot never see a half-applied change;
every published version passes the independent Eq. 1-7 validator.

Run:  python examples/online_admission.py
"""

from repro import EctStream, Priorities, TctRequirement, Topology, schedule_etsn
from repro.core import validate
from repro.model.units import MBPS_100, milliseconds, ns_to_us
from repro.service import (
    AdmissionService,
    AdmitEct,
    AdmitTct,
    Remove,
    ScheduleStore,
    ServiceConfig,
)


def build_network() -> Topology:
    topo = Topology()
    topo.add_switch("SW1")
    topo.add_switch("SW2")
    for device, switch in (("plc1", "SW1"), ("plc2", "SW1"),
                           ("io1", "SW2"), ("io2", "SW2")):
        topo.add_device(device)
        topo.add_link(device, switch, bandwidth_bps=MBPS_100)
    topo.add_link("SW1", "SW2", bandwidth_bps=MBPS_100)
    return topo


def tct(name, src, dst, period_ms, length, share=False):
    return AdmitTct(TctRequirement(
        name=name, source=src, destination=dst,
        period_ns=milliseconds(period_ms), length_bytes=length,
        priority=Priorities.SH_PL if share else Priorities.NSH_PH,
        share=share,
    ))


def show(decisions):
    for d in decisions:
        verdict = f"accepted via {d.rung}" if d.accepted else "REJECTED"
        extra = "" if d.accepted else f"  ({(d.reason or '')[:64]}...)"
        print(f"   {d.op:10s} {d.stream:12s} -> {verdict}{extra}")


def describe(store, label):
    schedule = store.schedule
    slots = sum(len(v) for v in schedule.slots.values())
    print(f"{label}: v{store.version}, {len(schedule.streams)} streams, "
          f"{slots} slots, {len(schedule.ect_streams)} ECT")


def main() -> None:
    topo = build_network()
    day0 = schedule_etsn(
        topo,
        [tct("loop-a", "plc1", "io1", 4, 1500, share=True).requirement.resolve(topo),
         tct("loop-b", "plc2", "io2", 8, 3000, share=True).requirement.resolve(topo)],
        [EctStream("estop", "plc1", "io2",
                   min_interevent_ns=milliseconds(16),
                   length_bytes=512, possibilities=4)],
    )
    store = ScheduleStore(day0)
    service = AdmissionService(store, config=ServiceConfig(emit_deployments=True))
    describe(store, "day 0  (offline schedule deployed)")

    # --- a new machine arrives: two more control loops, one batch -------
    show(service.submit_many([
        tct("loop-c", "plc2", "io1", 8, 800),
        tct("loop-d", "plc1", "io2", 16, 2000),
    ]))
    describe(store, "day 1  (+2 TCT, one batch, no slot moved)")

    # --- a new safety sensor: a second ECT stream -----------------------
    show([service.submit(AdmitEct(EctStream(
        "door-open", "plc2", "io1",
        min_interevent_ns=milliseconds(16),
        length_bytes=256, possibilities=4,
    )))])
    describe(store, "day 7  (+1 ECT, sharing streams re-placed)")
    from repro.core import quantization_delay_ns

    schedule = store.schedule
    for ect in schedule.ect_streams:
        step = quantization_delay_ns(ect)
        worst = max(
            schedule.scheduled_latency_ns(ps.name)
            for ps in schedule.probabilistic_streams()
            if ps.parent == ect.name
        )
        print(f"   {ect.name:12s} any event delivered within "
              f"{ns_to_us(step + worst):8.1f} us (formal bound)")

    # --- a sharing TCT stream: placed around the live ECT reservations --
    show([service.submit(tct("loop-s", "plc2", "io2", 16, 1000, share=True))])
    describe(store, "day 14 (+1 sharing TCT, no slot moved)")

    # --- admission control: an overload is rejected cleanly -------------
    # 30 MTU per 4 ms is ~3.7 ms of wire time per link: cannot fit
    show([service.submit(tct("hog", "plc1", "io1", 4, 30 * 1500))])
    validate(store.schedule)  # the published schedule is untouched

    # --- retire a loop and reuse the capacity ---------------------------
    show(service.submit_many([
        Remove("loop-b"),
        tct("loop-e", "plc2", "io2", 4, 3000),
    ]))
    describe(store, "day 30 (swap loop-b -> faster loop-e)")
    validate(store.schedule)
    print("all published versions validated against Eqs. 1-7")

    metrics = service.metrics.to_dict()
    decided = metrics["counters"]["requests.total"]
    latency = metrics["histograms"]["latency.decision_ms"]
    print(f"\nservice metrics: {decided} requests, "
          f"{metrics['counters']['requests.admitted']} admitted, "
          f"p50 {latency['p50']:.2f} ms, p99 {latency['p99']:.2f} ms, "
          f"{metrics['counters']['deployments.emitted']} deployments emitted")
    for rung, count in service.metrics.counters_with_prefix("decisions").items():
        print(f"   decisions via {rung:12s} {count}")


if __name__ == "__main__":
    main()
