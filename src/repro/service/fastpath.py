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

* **Constructive accept** — apply the incremental placement primitives
  and run :func:`repro.core.schedule.validate_delta` over the changed
  streams.  An accept therefore ships an *actual validated schedule*;
  soundness is by construction, not by approximation.  A sharing TCT
  admit only adds its own prudent-reservation extras, so it is placed
  like any other (:func:`repro.core.incremental.add_shared_tct_stream`).

Anything else is **inconclusive**: the admission service climbs on to
its re-solve rungs.  :func:`_apply_batch` is the only loop over the
incremental primitives — there is no separate incremental rung to fail
the same way a second time.

All arithmetic is exact integers, never floats: nanoseconds, and
densities scaled by one common period.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.incremental import (
    add_ect_stream,
    add_shared_tct_stream,
    affected_sharing_streams,
    remove_stream,
)
from repro.core.probabilistic import expand_ect
from repro.core.schedule import (
    InfeasibleError,
    NetworkSchedule,
    ScheduleError,
    moved_streams,
    validate_delta,
)
from repro.model.stream import Stream, StreamError, StreamType, may_overlap
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
    delta-validated schedule with the batch applied, ready to publish.
    """

    verdict: str
    reason: str
    schedule: Optional[NetworkSchedule] = None

    @property
    def conclusive(self) -> bool:
        return self.verdict != INCONCLUSIVE


def evaluate(
    schedule: NetworkSchedule,
    batch: Sequence[AdmissionRequest],
) -> FastPathResult:
    """Decide a batch analytically, or fall through.

    Ordering is tuned for the common case: the e2e floor (microseconds,
    placement-free) screens first, then the constructive attempt runs.
    The heavier capacity/gcd analysis only runs after a constructive
    *failure* — it checks necessary conditions, so it can never
    contradict a constructive success, and skipping it on the accept
    path costs nothing but time.
    """
    try:
        removed = _removed_names(schedule, batch)
        probes = _probe_streams(schedule, batch)
    except (StreamError, ValueError, KeyError) as exc:
        return FastPathResult(INCONCLUSIVE, f"cannot resolve batch: {exc}")
    for probe in probes:
        reason = screen_route(probe)
        if reason is not None:
            return FastPathResult(REJECT, reason)
    try:
        placed, changed = _apply_batch(schedule, batch)
        validate_delta(placed, changed)
    except (InfeasibleError, ScheduleError, StreamError, ValueError,
            KeyError) as exc:
        reason = _capacity_reject(schedule, probes, removed) or _gcd_reject(
            schedule, probes, removed
        )
        if reason is not None:
            return FastPathResult(REJECT, reason)
        return FastPathResult(
            INCONCLUSIVE, f"constructive placement failed: {exc}"
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
def _removed_names(
    schedule: NetworkSchedule, batch: Sequence[AdmissionRequest]
) -> Set[str]:
    removed = {r.name for r in batch if isinstance(r, Remove)}
    # removing an ECT retires its possibility streams too
    for name in list(removed):
        removed.update(s.name for s in schedule.possibilities_of(name))
    return removed


def _probe_streams(
    schedule: NetworkSchedule, batch: Sequence[AdmissionRequest]
) -> List[Stream]:
    """One resolved stream per admit: the DET stream itself, or a
    single representative ECT possibility (they all share route,
    length, and period — one stands for the family)."""
    probes: List[Stream] = []
    for request in batch:
        if isinstance(request, AdmitTct):
            probes.append(request.requirement.resolve(schedule.topology))
        elif isinstance(request, AdmitEct):
            probes.append(expand_ect(request.ect, schedule.topology)[0])
    return probes


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


# ----------------------------------------------------------------------
# constructive acceptance
# ----------------------------------------------------------------------
def _apply_batch(
    schedule: NetworkSchedule,
    batch: Sequence[AdmissionRequest],
) -> Tuple[NetworkSchedule, Set[str]]:
    """Apply the batch with the incremental primitives, deferring all
    validation; returns the result and the changed stream names."""
    current = schedule
    changed: Set[str] = set()
    for request in batch:
        if isinstance(request, AdmitTct):
            stream = request.requirement.resolve(current.topology)
            current = add_shared_tct_stream(
                current, stream, validate_result=False
            )
            changed.add(stream.name)
        elif isinstance(request, AdmitEct):
            affected = affected_sharing_streams(current, request.ect)
            current = add_ect_stream(
                current, request.ect, validate_result=False,
                affected=affected,
            )
            # a sharer back on its old slots is untouched
            changed.update(moved_streams(schedule, current, affected))
            changed.update(
                s.name for s in current.possibilities_of(request.ect.name)
            )
        elif isinstance(request, Remove):
            current = remove_stream(
                current, request.name, validate_result=False
            )
            # removal only deletes slots: remaining constraints are a
            # subset of the already-valid base schedule's
            survivors = current.streams_by_name
            changed = {name for name in changed if name in survivors}
        else:
            raise ValueError(
                f"unsupported request type {type(request).__name__}"
            )
    return current, changed
