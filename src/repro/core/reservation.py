"""Prudent reservation — technique 3 of E-TSN (paper Sec. III-D, Alg. 1).

When a TCT stream shares its time-slots with ECT, an event can displace
TCT frames; extra slots must absorb the displacement or the TCT deadline
breaks.  Reserving extras along the *whole path* wastes bandwidth, so
reservation works per link, for every (sharing TCT stream, ECT stream)
pair that crosses it.

Two accounting modes are provided:

``paper`` (default, for fidelity to the paper)
    Alg. 1 exactly as printed:

        n = s_e.frames * ceil(tct_wire_time_on_link / s_e.T)

    extra frames, each sized like a TCT frame.  This implicitly assumes
    a TCT slot is at least as long as an ECT frame.  When TCT frames are
    *shorter* than the ECT message, one ECT transmission can straddle —
    and invalidate — several TCT windows, and the printed formula
    under-reserves (observable as TCT deadline misses in simulation).

``robust``
    A generalization that is sound for any frame-size ratio.  Per
    possible event (at most ``floor(T_t / T_e) + 1`` events can touch
    the one-period span the message's windows occupy, because events
    are at least ``T_e`` apart), reserve **one extra window** of length

        block + 2 * L_t_max      with   block = f_e * L_e

    ``block`` is the event's full transmission time on the link and the
    two ``L_t_max`` pads cover boundary straddling.  Whatever part of
    the window the event itself consumes, at least the displaced TCT
    frames' worth of capacity survives, and owner-FIFO windows let the
    stream drain several frames back-to-back through one window.

Because of the per-link extras, adjacent links of one stream carry
different frame counts; the *adjacent-link offset* (paper Fig. 8, Eq. 7)
pairs downstream frame ``j`` with upstream frame ``j + o`` where ``o`` is
the count difference, so a downstream slot always follows the latest
upstream slot that may carry the same frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.model.stream import Stream, StreamType

RESERVATION_MODES = ("paper", "robust")


@dataclass(frozen=True)
class ReservationPlan:
    """Per-stream, per-link frame counts after prudent reservation.

    counts
        ``(stream name, link key) -> total frames`` including extras.
    extras
        Same keys, only the number of *extra* frames (0 for non-shared).
    extra_durations
        Same keys; explicit wire-time of each extra frame in order.  In
        ``paper`` mode extras inherit the largest message-frame size, so
        the lists here are empty; in ``robust`` mode each extra is an
        event-sized window.
    """

    counts: Dict[Tuple[str, Tuple[str, str]], int]
    extras: Dict[Tuple[str, Tuple[str, str]], int]
    extra_durations: Dict[Tuple[str, Tuple[str, str]], List[int]] = field(
        default_factory=dict
    )
    mode: str = "paper"

    def frames_on(self, stream: Stream, link_key: Tuple[str, str]) -> int:
        return self.counts[(stream.name, link_key)]

    def extra_on(self, stream: Stream, link_key: Tuple[str, str]) -> int:
        return self.extras[(stream.name, link_key)]

    def extra_durations_on(
        self, stream: Stream, link_key: Tuple[str, str]
    ) -> List[int]:
        return self.extra_durations.get((stream.name, link_key), [])

    def adjacent_offset(
        self, stream: Stream, upstream: Tuple[str, str], downstream: Tuple[str, str]
    ) -> int:
        """``o = max(|F_up| - |F_down|, 0)`` from paper Eq. 7."""
        up = self.counts[(stream.name, upstream)]
        down = self.counts[(stream.name, downstream)]
        return max(up - down, 0)


def prudent_reservation(
    streams: Sequence[Stream],
    mode: str = "paper",
    against: Optional[Sequence[Stream]] = None,
) -> ReservationPlan:
    """Run prudent reservation over a mixed stream set.

    ``streams`` holds TCT streams (``Det``) and the probabilistic streams
    already derived from ECT (``Prob``).  Only TCT streams with
    ``share=True`` receive extras; probabilistic and non-shared TCT
    streams keep their natural frame counts on every link.

    Extras are computed against *ECT streams*, i.e. the distinct parents
    of the probabilistic streams, not against each possibility — all
    possibilities of one parent describe the same single event source.

    The plan has one row per stream in ``streams`` and link of its path.
    A row depends on its own stream and on the ECT parents crossing its
    link, on no other row — so a caller that needs a few rows passes
    just those streams, and in ``against`` the probabilistic streams to
    plan them against (one possibility per parent is enough).  By
    default those are the ones in ``streams`` itself: the offline,
    whole-population plan.  A row's extra windows run parent by parent,
    in the order the parents first appear in ``against``.
    """
    if mode not in RESERVATION_MODES:
        raise ValueError(f"unknown reservation mode {mode!r}")
    ect_by_link: Dict[Tuple[str, str], List[Stream]] = {}
    seen_parent_on_link = set()
    for stream in streams if against is None else against:
        if stream.type != StreamType.PROB:
            continue
        for link in stream.path:
            marker = (stream.parent, link.key)
            if marker in seen_parent_on_link:
                continue
            seen_parent_on_link.add(marker)
            ect_by_link.setdefault(link.key, []).append(stream)

    counts: Dict[Tuple[str, Tuple[str, str]], int] = {}
    extras: Dict[Tuple[str, Tuple[str, str]], int] = {}
    durations: Dict[Tuple[str, Tuple[str, str]], List[int]] = {}
    for stream in streams:
        base = stream.frames_per_period()
        for link in stream.path:
            extra = 0
            extra_sizes: List[int] = []
            if stream.type == StreamType.DET and stream.share:
                for ect in ect_by_link.get(link.key, ()):
                    if mode == "paper":
                        # n = s_e.l * ceil(s_t wire time / s_e.T)
                        tct_wire_ns = stream.transmission_ns(link)
                        events = -(-tct_wire_ns // ect.period_ns)
                        extra += ect.frames_per_period() * events
                    else:
                        events = stream.period_ns // ect.period_ns + 1
                        block_ns = ect.transmission_ns(link)
                        pad_ns = 2 * max(
                            link.transmission_ns(w)
                            for w in stream.wire_bytes_per_frame()
                        )
                        extra += events
                        extra_sizes.extend([block_ns + pad_ns] * events)
            counts[(stream.name, link.key)] = base + extra
            extras[(stream.name, link.key)] = extra
            if extra_sizes:
                durations[(stream.name, link.key)] = extra_sizes
    return ReservationPlan(
        counts=counts, extras=extras, extra_durations=durations, mode=mode
    )


def total_extra_slots(plan: ReservationPlan) -> int:
    """Total extra frames reserved network-wide (resource-cost metric)."""
    return sum(plan.extras.values())


def total_extra_time_ns(plan: ReservationPlan, streams: Sequence[Stream]) -> int:
    """Total reserved extra wire-time per hyperperiod-independent period
    instance, summed over streams and links (resource-cost metric)."""
    by_name = {s.name: s for s in streams}
    total = 0
    for (name, link_key), count in plan.extras.items():
        if count == 0:
            continue
        stream = by_name[name]
        link = next(l for l in stream.path if l.key == link_key)
        sizes = plan.extra_durations.get((name, link_key))
        if sizes:
            total += sum(sizes)
        else:
            largest = max(
                link.transmission_ns(w) for w in stream.wire_bytes_per_frame()
            )
            total += count * largest
    return total
