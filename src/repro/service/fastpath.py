"""Analytic fast-path admission — the ladder's first, constructive rung.

Most admission requests do not need a solver.  This module decides the
common case with two sound, placement-independent arguments:

* **Conclusive reject** — necessary conditions every rung enforces
  (they are implied by paper Eqs. 1-7, which the independent validator
  re-checks on every published schedule), evaluated in closed form:

  - *e2e floor*: the wire-time chain of a route (all frames serialized
    on the first link, then each subsequent link's last frame plus
    propagation) lower-bounds any schedule's latency; if the floor
    already exceeds the budget, no placement exists (Eqs. 3/4/7).
  - *link capacity*: a family of streams that pairwise must not overlap
    (DET x DET never overlaps; one ECT possibility per parent plus the
    non-sharing DET streams form a second such family) cannot exceed a
    density of 1 on any link over the hyperperiod (Eqs. 1/3/5).  The
    existing demand is read off the slot table, so prudent-reservation
    extras are counted; the candidate contributes its raw wire time — a
    lower bound on its real slots, keeping the test sufficient-only.
  - *pairwise gcd*: two periodic patterns of lengths ``d1``/``d2`` can
    avoid each other iff ``d1 + d2 <= gcd(T1, T2)`` (the exact
    feasibility condition behind
    :func:`repro.core.schedule.earliest_gap_shift`); a violating pair
    (candidate, existing slot) on a shared link is unschedulable under
    every rung (Eq. 5).

* **Constructive accept** — place *ring 0* of the batch
  (:meth:`ResolvedBatch.place`) around the frozen snapshot and run
  :func:`repro.core.schedule.validate_delta` over what moved.  An
  accept therefore ships an *actual validated schedule*; soundness is
  by construction, not by approximation.

Anything else is **inconclusive**: the admission service climbs on to
its re-solve rungs, whose rings start from where ring 0 failed.

All arithmetic is exact integers, never floats: nanoseconds, and
densities scaled by one common period.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.heuristic import _placement_order
from repro.core.incremental import affected_sharing_streams, repair
from repro.core.probabilistic import expand_ect
from repro.core.schedule import (
    InfeasibleError,
    NetworkSchedule,
    moved_streams,
    validate_delta,
)
from repro.model.stream import EctStream, Stream, StreamType, may_overlap
from repro.service.requests import (
    AdmissionRequest,
    AdmitEct,
    AdmitTct,
    Remove,
)

#: Verdicts of one fast-path evaluation.
ACCEPT = "accept"
REJECT = "reject"
INCONCLUSIVE = "inconclusive"

#: Rung name the admission service reports for fast-path decisions.
RUNG_FASTPATH = "fastpath"


class ConclusiveReject(InfeasibleError):
    """A :data:`REJECT` verdict as the admission ladder raises it: a
    necessary condition failed, no rung can succeed, the climb ends."""


@dataclass(frozen=True)
class FastPathResult:
    """Outcome of :func:`evaluate` on one request batch.

    ``schedule`` is populated only for :data:`ACCEPT` — the already
    delta-validated schedule with the batch applied, ready to publish;
    ``failure`` is ring 0's exception when its placement failed.
    """

    verdict: str
    reason: str
    schedule: Optional[NetworkSchedule] = None
    failure: Optional[Exception] = None

    @property
    def conclusive(self) -> bool:
        return self.verdict != INCONCLUSIVE


class ResolvedBatch:
    """A request batch resolved once against one snapshot, and the
    rings placed for it.

    Resolving checks each admitted name with one lookup (taken or named
    twice: ``ValueError``) and keeps the error for every rung to read;
    :func:`repair` checks ECT names and removals.  ``removed`` adds the
    possibilities the removals retire; ``probes`` is one stream per
    admit, in request order, for the screens; ``ring`` is set by the
    re-solve rung that ran last: the name of the ring it decided with
    and how many live streams that ring released.
    """

    def __init__(
        self, schedule: NetworkSchedule, requests: Sequence[AdmissionRequest]
    ) -> None:
        self.schedule = schedule
        self.error: Optional[Exception] = None
        self.drop: List[str] = []
        self.removed: Set[str] = set()
        self.tct: List[Stream] = []
        self.ects: List[EctStream] = []
        self.possibilities: List[Stream] = []
        self.probes: List[Stream] = []
        self.sharers: List[Stream] = []
        self._ring0: Union[NetworkSchedule, Exception, None] = None
        self.ring: Optional[Tuple[str, int]] = None
        try:
            self._resolve(requests)
        except (ValueError, KeyError) as exc:  # StreamError is a ValueError
            self.error = exc

    def _resolve(self, requests: Sequence[AdmissionRequest]) -> None:
        schedule = self.schedule
        by_name = schedule.streams_by_name
        claimed: Set[str] = set()
        for request in requests:
            if isinstance(request, AdmitTct):
                stream = request.requirement.resolve(schedule.topology)
                if stream.name in by_name:
                    raise ValueError(
                        f"stream {stream.name!r} already scheduled"
                    )
                names = [stream.name]
                self.tct.append(stream)
                self.probes.append(stream)
            elif isinstance(request, AdmitEct):
                possibilities = expand_ect(request.ect, schedule.topology)
                names = [request.ect.name] + [p.name for p in possibilities]
                self.ects.append(request.ect)
                self.possibilities.extend(possibilities)
                self.probes.append(possibilities[0])
            elif isinstance(request, Remove):
                names = [request.name]
                self.drop.append(request.name)
                self.removed.update(names, (
                    s.name for s in schedule.possibilities_of(request.name)
                ))
            else:
                raise ValueError(
                    f"unsupported request type {type(request).__name__}"
                )
            for name in names:
                if name in claimed:
                    raise ValueError(f"{name!r} named twice in one batch")
                claimed.add(name)
        if self.ects:
            self.sharers = [
                s for s in affected_sharing_streams(schedule, self.ects)
                if s.name not in self.removed
            ]

    def place(self, ring: Sequence[Stream] = ()) -> NetworkSchedule:
        """Place ``ring`` (released live deterministic streams) with the
        batch — removals dropped, the sharers a new ECT crosses first,
        then the ring and the admits tightest first — around the rest
        of the snapshot, and delta-validate what moved.  Ring 0, no
        ring, is the constructive attempt: placed at most once, its
        schedule or failure kept for the climb."""
        if self.error is not None:
            raise self.error
        if ring:
            return self._place(ring)
        if self._ring0 is None:
            try:
                self._ring0 = self._place(ring)
            except (InfeasibleError, ValueError, KeyError) as exc:
                # a copy, without the traceback that holds this batch
                self._ring0 = copy.copy(exc)
                raise
        if isinstance(self._ring0, Exception):
            raise copy.copy(self._ring0)
        return self._ring0

    def _place(self, ring: Sequence[Stream]) -> NetworkSchedule:
        place = self.sharers + _placement_order(
            [*ring, *self.tct, *self.possibilities]
        )
        try:  # only ring 0 counts as online additions
            result = repair(
                self.schedule, place, drop=self.drop, ects=self.ects,
                validate_result=False,
                additions=0 if ring else len(self.tct) + len(self.ects),
            )
        except InfeasibleError as exc:
            raise InfeasibleError(
                f"cannot admit {self._admit_of(exc.stream)}: {exc}",
                stream=exc.stream, link=exc.link, gap=exc.gap,
            ) from exc
        validate_delta(result, moved_streams(self.schedule, result, place))
        return result

    def _admit_of(self, name: Optional[str]) -> str:
        """The admit a failing stream was placed for: its own, its ECT
        for a possibility, for a sharer the first ECT it crosses, and
        for a ring's live stream the batch's admits."""
        if any(stream.name == name for stream in self.tct):
            return name
        for stream in self.possibilities + self.sharers:
            if stream.name == name:
                links = {link.key for link in stream.path}
                return stream.parent or next(
                    ect.name for ect in self.ects if any(
                        link.key in links
                        for link in ect.route(self.schedule.topology)
                    )
                )
        return ", ".join(probe.parent or probe.name for probe in self.probes)


def evaluate(
    schedule: NetworkSchedule, batch: Sequence[AdmissionRequest]
) -> FastPathResult:
    """Decide a batch analytically, or fall through."""
    return decide(ResolvedBatch(schedule, batch))


def decide(batch: ResolvedBatch) -> FastPathResult:
    """Decide a resolved batch analytically, or fall through.

    The e2e floor (placement-free) screens first, then ring 0 is placed;
    the heavier capacity/gcd screens run only after it *fails* — they
    check necessary conditions, so they can never contradict an accept.
    """
    if batch.error is not None:
        return FastPathResult(
            INCONCLUSIVE, f"cannot resolve batch: {batch.error}"
        )
    for probe in batch.probes:
        reason = screen_route(probe)
        if reason is not None:
            return FastPathResult(REJECT, reason)
    try:
        placed = batch.place()
    except (InfeasibleError, ValueError, KeyError) as exc:
        screened = batch.schedule, batch.probes, batch.removed
        reason = _capacity_reject(*screened) or _gcd_reject(*screened)
        if reason is not None:
            return FastPathResult(REJECT, reason, failure=exc)
        return FastPathResult(
            INCONCLUSIVE, f"constructive placement failed: {exc}",
            failure=exc,
        )
    return FastPathResult(
        ACCEPT, "constructive placement delta-validated", placed
    )


def screen_route(stream: Stream) -> Optional[str]:
    """Route-level conclusive-reject check for one resolved stream.

    The e2e-floor argument needs no schedule state at all — only the
    route — so :func:`evaluate` runs it first, before any placement.
    Returns a reason string, or ``None`` when the floor fits.
    """
    floor = _latency_floor_ns(stream)
    if floor > stream.e2e_ns:
        return (
            f"e2e-floor: {stream.name} needs at least {floor} ns of wire "
            f"time over {len(stream.path)} hops but the budget is "
            f"{stream.e2e_ns} ns"
        )
    return None


# ----------------------------------------------------------------------
# conclusive rejection: necessary conditions, exactly evaluated
# ----------------------------------------------------------------------
def _wire_ns(stream: Stream, link) -> List[int]:
    """Raw per-frame wire times of one message on one link — a lower
    bound on the real slot durations (guard margin, alignment rounding
    and the probabilistic blocking pad only inflate them)."""
    return [link.transmission_ns(b) for b in stream.wire_bytes_per_frame()]


def _latency_floor_ns(stream: Stream) -> int:
    """Lower bound on any schedule's worst-case latency for ``stream``.

    Sequencing (Eq. 3) serializes the whole message on the first link;
    adjacency (Eq. 7) then forces each later link's last frame to start
    after the previous link's last frame is received; reception adds the
    final propagation.  Every term is mandatory under Eqs. 1-7.
    """
    path = stream.path
    wire_first = _wire_ns(stream, path[0])
    total = sum(wire_first)
    for prev, link in zip(path, path[1:]):
        last_wire = _wire_ns(stream, link)[-1]
        total += prev.propagation_ns + last_wire
    total += path[-1].propagation_ns
    return total


def _capacity_reject(
    schedule: NetworkSchedule,
    probes: Sequence[Stream],
    removed: Set[str],
) -> Optional[str]:
    """Per-link density bound over two pairwise-non-overlapping
    families.  Exact integers: a stream busy ``b`` ns per period ``T``
    has density ``b / T``, counted here as ``b * (H / T)`` against the
    link's capacity ``H``, one common period of every stream involved."""
    streams = schedule.streams_by_name
    by_link = schedule.slots_by_link
    candidate_links = {link.key for probe in probes for link in probe.path}
    # link -> (stream, its busy ns per period there), the probes last
    demand: Dict[Tuple[str, str], List[Tuple[Stream, int]]] = {}
    periods = {probe.period_ns for probe in probes}
    for link_key in candidate_links:
        busy_ns: Dict[str, int] = {}
        for slot in by_link.get(link_key, ()):
            if slot.stream not in removed:
                busy_ns[slot.stream] = (
                    busy_ns.get(slot.stream, 0) + slot.duration_ns
                )
        entries = [
            (streams[name], total_ns) for name, total_ns in busy_ns.items()
        ]
        demand[link_key] = entries
        periods.update(stream.period_ns for stream, _ in entries)
    for probe in probes:
        for link in probe.path:
            demand[link.key].append((probe, sum(_wire_ns(probe, link))))
    capacity = lcm(*periods)

    for key in candidate_links:
        det = nonshared = 0
        per_parent: Dict[str, int] = {}
        for stream, busy in demand[key]:
            load = busy * (capacity // stream.period_ns)
            if stream.type == StreamType.DET:
                det += load
                if not stream.share:
                    nonshared += load
            else:
                # possibilities of one parent are interchangeable here;
                # keep the densest representative
                parent = stream.parent or stream.name
                if load > per_parent.get(parent, 0):
                    per_parent[parent] = load
        if det > capacity:
            return (
                f"link-capacity: deterministic streams alone need "
                f"{det / capacity:.3f}x of link <{key[0]},{key[1]}>"
            )
        mixed = nonshared + sum(per_parent.values())
        if mixed > capacity:
            return (
                f"link-capacity: non-sharing streams plus one possibility "
                f"per ECT need {mixed / capacity:.3f}x of link "
                f"<{key[0]},{key[1]}>"
            )
    return None


def _gcd_reject(
    schedule: NetworkSchedule,
    probes: Sequence[Stream],
    removed: Set[str],
) -> Optional[str]:
    """Exact pairwise infeasibility: lengths that cannot fit under the
    gcd of their periods can never avoid each other (Eq. 5)."""
    streams = schedule.streams_by_name
    by_link = schedule.slots_by_link
    for probe in probes:
        for link in probe.path:
            min_wire = min(_wire_ns(probe, link))
            for slot in by_link.get(link.key, ()):
                name = slot.stream
                if name in removed or may_overlap(probe, streams[name]):
                    continue
                g = gcd(probe.period_ns, slot.period_ns)
                if min_wire + slot.duration_ns > g:
                    return (
                        f"pairwise-gcd: {probe.name} "
                        f"({min_wire} ns / {probe.period_ns} ns) and "
                        f"{name}[{slot.index}] "
                        f"({slot.duration_ns} ns / {slot.period_ns} ns) "
                        f"can never avoid each other on link "
                        f"<{link.key[0]},{link.key[1]}> "
                        f"(gcd {g} ns)"
                    )
    return None
