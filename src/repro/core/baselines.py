"""Scheduling front-ends: E-TSN and the paper's two baselines.

``schedule_etsn``
    The paper's method: probabilistic streams + prioritized slot sharing
    + prudent reservation, via either backend.

``schedule_period``
    The **PERIOD** baseline (Sec. VI-A2): treat each ECT stream as a TCT
    stream and give it dedicated time-slots.  To "use as many time-slots
    as E-TSN", the proxy's period is ``min_interevent / N`` (one slot per
    probabilistic possibility); the ``slot_multiplier`` reproduces the
    PERIOD_double/quad/octa variants of paper Fig. 12.

``schedule_avb``
    The **AVB** baseline: TCT is scheduled normally and ECT is *not*
    scheduled at all — at run time it travels as an 802.1Qav class in
    whatever time-slots are unallocated, above best-effort priority.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.heuristic import schedule_heuristic
from repro.core.schedule import NetworkSchedule
from repro.core.smt_scheduler import schedule_smt
from repro.model.stream import EctStream, Priorities, Stream, StreamError, StreamType
from repro.model.topology import Topology

BACKENDS = ("heuristic", "smt")


def _backend(name: str):
    if name == "heuristic":
        return schedule_heuristic
    if name == "smt":
        return schedule_smt
    raise ValueError(f"unknown backend {name!r}; expected one of {BACKENDS}")


def schedule_etsn(
    topology: Topology,
    tct_streams: Sequence[Stream],
    ect_streams: Sequence[EctStream] = (),
    backend: str = "heuristic",
    guard_margin_ns: int = 0,
    reservation_mode: str = "paper",
    proof: bool = False,
    max_conflicts: Optional[int] = None,
) -> NetworkSchedule:
    """Joint E-TSN schedule (paper Sec. III/IV).

    ``reservation_mode='robust'`` switches prudent reservation to the
    sound generalization (see :mod:`repro.core.reservation`).

    ``proof=True`` (SMT backend only) turns on certificate logging and
    independent verification, and ``max_conflicts`` (SMT backend only)
    bounds the search — see :func:`repro.core.schedule_smt`.
    """
    kwargs = dict(
        guard_margin_ns=guard_margin_ns, reservation_mode=reservation_mode
    )
    if proof or max_conflicts is not None:
        if backend != "smt":
            raise ValueError(
                "proof certificates and conflict budgets require "
                f"backend='smt', got {backend!r}"
            )
        kwargs.update(proof=proof, max_conflicts=max_conflicts)
    return _backend(backend)(topology, tct_streams, ect_streams, **kwargs)


def schedule_period(
    topology: Topology,
    tct_streams: Sequence[Stream],
    ect_streams: Sequence[EctStream],
    slot_multiplier: int = 1,
    backend: str = "heuristic",
    guard_margin_ns: int = 0,
) -> NetworkSchedule:
    """PERIOD baseline: dedicated periodic slots for each ECT stream.

    The proxy streams are plain TCT from the scheduler's point of view;
    at GCL time their windows move to the EP queue (keyed by
    ``meta['ect_proxies']``), and at run time the stochastic events wait
    in the EP queue for the next dedicated window.
    """
    if slot_multiplier < 1:
        raise ValueError(f"slot multiplier must be >= 1, got {slot_multiplier}")
    proxies: Dict[str, str] = {}
    # PERIOD has no slot sharing; sharing flags are E-TSN's mechanism.
    all_streams: List[Stream] = _renumber_nonshared(
        s.with_share(False) if s.share else s for s in tct_streams
    )
    for ect in ect_streams:
        slots_per_interval = ect.possibilities * slot_multiplier
        if ect.min_interevent_ns % slots_per_interval != 0:
            raise StreamError(
                f"{ect.name}: {slots_per_interval} dedicated slots do not "
                f"divide the minimum inter-event time evenly"
            )
        proxy_period = ect.min_interevent_ns // slots_per_interval
        proxy = Stream(
            name=f"{ect.name}#period",
            path=ect.route(topology),
            e2e_ns=proxy_period,
            priority=Priorities.NSH_PH,
            length_bytes=ect.length_bytes,
            period_ns=proxy_period,
            type=StreamType.DET,
            share=False,
        )
        proxies[proxy.name] = ect.name
        all_streams.append(proxy)
    schedule = _backend(backend)(
        topology, all_streams, (), guard_margin_ns=guard_margin_ns
    )
    schedule.ect_streams = list(ect_streams)
    schedule.meta["ect_proxies"] = proxies
    schedule.meta["method"] = f"period_x{slot_multiplier}"
    return schedule


def schedule_avb(
    topology: Topology,
    tct_streams: Sequence[Stream],
    ect_streams: Sequence[EctStream],
    backend: str = "heuristic",
    guard_margin_ns: int = 0,
) -> NetworkSchedule:
    """AVB baseline: schedule TCT only; ECT rides unallocated time."""
    plain = _renumber_nonshared(s.with_share(False) if s.share else s
                                for s in tct_streams)
    schedule = _backend(backend)(
        topology, plain, (), guard_margin_ns=guard_margin_ns
    )
    schedule.ect_streams = list(ect_streams)
    schedule.meta["method"] = "avb"
    return schedule


def build_schedule(
    topology: Topology,
    tct_streams: Sequence[Stream],
    ect_streams: Sequence[EctStream],
    method: str,
    backend: str = "heuristic",
    guard_margin_ns: int = 0,
    reservation_mode: str = "paper",
) -> Tuple[NetworkSchedule, str]:
    """Schedule for one method; returns (schedule, GCL mode)."""
    if method == "etsn":
        return schedule_etsn(topology, tct_streams, ect_streams, backend=backend,
                             guard_margin_ns=guard_margin_ns,
                             reservation_mode=reservation_mode), "etsn"
    if method == "etsn-strict":
        return (
            schedule_etsn(topology, tct_streams, ect_streams, backend=backend,
                          guard_margin_ns=guard_margin_ns,
                          reservation_mode=reservation_mode),
            "etsn-strict",
        )
    if method == "avb":
        return schedule_avb(topology, tct_streams, ect_streams, backend=backend,
                            guard_margin_ns=guard_margin_ns), "avb"
    if method.startswith("period"):
        multiplier = 1
        if "_x" in method:
            multiplier = int(method.split("_x", 1)[1])
        return (
            schedule_period(
                topology, tct_streams, ect_streams,
                slot_multiplier=multiplier, backend=backend,
                guard_margin_ns=guard_margin_ns,
            ),
            "period",
        )
    raise ValueError(
        f"unknown method {method!r}; expected one of "
        f"('etsn', 'etsn-strict', 'period[_xN]', 'avb')"
    )


def _renumber_nonshared(streams) -> List[Stream]:
    """Move priorities of formerly-shared streams into the NSH band.

    The baselines have no sharing, so every TCT stream must satisfy the
    non-shared branch of Eq. 6.
    """
    result = []
    for stream in streams:
        if not stream.share and not Priorities.is_nonshared_tct(stream.priority):
            stream = replace(stream, priority=Priorities.NSH_PH)
        result.append(stream)
    return result
