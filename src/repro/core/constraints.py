"""SMT constraint generation — paper Sec. IV-B, Eqs. 1-7.

Turns a stream set (TCT plus probabilistic possibilities, frame counts
fixed by prudent reservation) into a QF_IDL formula over the frame offset
variables ``φ``.  All constants are nanoseconds; every atom is a
difference constraint, so the formula lands exactly in
:class:`repro.smt.DlSmtSolver`'s fragment.

One deliberate strengthening over the paper's Eq. 4: our end-to-end bound
counts the last frame's wire time and link propagation, so the *measured*
reception-based latency (paper Sec. VI-A3) is bounded, not merely the
last sending instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.reservation import ReservationPlan
from repro.model.frame import FrameVar, build_frame_vars
from repro.model.stream import Priorities, Stream, StreamType, may_overlap
from repro.model.topology import Topology
from repro.smt.solver import DlSmtSolver
from repro.smt.terms import Atom, diff_le, var_ge, var_le


@dataclass
class ConstraintSystem:
    """The loaded solver plus the frame-variable bookkeeping."""

    solver: DlSmtSolver
    frames: Dict[Tuple[str, Tuple[str, str]], List[FrameVar]]
    num_overlap_clauses: int


def build_frames(
    streams: Sequence[Stream],
    plan: ReservationPlan,
    guard_margin_ns: int = 0,
) -> Dict[Tuple[str, Tuple[str, str]], List[FrameVar]]:
    """Materialize ``F_{s,<a,b>}`` for every stream/link pair."""
    frames: Dict[Tuple[str, Tuple[str, str]], List[FrameVar]] = {}
    for stream in streams:
        for link in stream.path:
            count = plan.frames_on(stream, link.key)
            frames[(stream.name, link.key)] = build_frame_vars(
                stream, link, count, guard_margin_ns,
                extra_durations_ns=plan.extra_durations_on(stream, link.key) or None,
            )
    return frames


def build_constraints(
    topology: Topology,
    streams: Sequence[Stream],
    plan: ReservationPlan,
    guard_margin_ns: int = 0,
    proof: bool = False,
) -> ConstraintSystem:
    """Assemble the full Eq. 1-7 formula for ``streams``.

    ``proof=True`` builds the solver with certificate logging, so the
    eventual :class:`~repro.smt.solver.SmtResult` carries a
    machine-checkable proof (UNSAT) or model witness (SAT).
    """
    for stream in streams:
        Priorities.check(stream)  # Eq. 6, by construction rather than search
    solver = DlSmtSolver(proof=proof)
    frames = build_frames(streams, plan, guard_margin_ns)
    streams_by_name = {s.name: s for s in streams}

    _add_time_constraints(solver, streams, frames)
    _add_sequencing_constraints(solver, streams, frames)
    _add_e2e_constraints(solver, streams, frames)
    num_overlap = _add_overlap_constraints(solver, streams_by_name, frames)
    _add_adjacent_link_constraints(solver, streams, frames)
    return ConstraintSystem(solver=solver, frames=frames, num_overlap_clauses=num_overlap)


# ----------------------------------------------------------------------
def window_max_ns(stream: Stream, frame: FrameVar) -> int:
    """Latest allowed offset for a frame (Eq. 1, E-TSN-adjusted).

    Deterministic frames fit inside their own period, ``φ + L <= T``.
    A probabilistic possibility with a late occurrence time may spill
    into the next cycle (paper Fig. 6: the ``ps_24``/``ps_25`` slot after
    ``f_3``): its window is ``φ + L <= ot + T``.  The overlap encoding
    below and the GCL builder both treat offsets modulo the period, so a
    spilled slot is well-defined.
    """
    limit = stream.period_ns - frame.duration_ns
    if stream.type == StreamType.PROB:
        limit += stream.occurrence_ns
    return limit


def _add_time_constraints(solver, streams, frames) -> None:
    """Eq. 1 (non-negative, fits in window) and Eq. 2 (occurrence time)."""
    for stream in streams:
        for link in stream.path:
            for frame in frames[(stream.name, link.key)]:
                solver.require(var_ge(frame.var_name, 0))
                solver.require(var_le(frame.var_name, window_max_ns(stream, frame)))
        if stream.type == StreamType.PROB:
            first = frames[(stream.name, stream.path[0].key)][0]
            solver.require(var_ge(first.var_name, stream.occurrence_ns))


def _add_sequencing_constraints(solver, streams, frames) -> None:
    """Eq. 3: frames of one stream leave each link in order."""
    for stream in streams:
        for link in stream.path:
            frame_list = frames[(stream.name, link.key)]
            for a, b in zip(frame_list, frame_list[1:]):
                # a.φ + a.L <= b.φ
                solver.require(diff_le(a.var_name, b.var_name, -a.duration_ns))


def _add_e2e_constraints(solver, streams, frames) -> None:
    """Eq. 4, reception-based (includes last wire time + propagation)."""
    for stream in streams:
        first_link = stream.path[0]
        last_link = stream.path[-1]
        first = frames[(stream.name, first_link.key)][0]
        last = frames[(stream.name, last_link.key)][-1]
        tail_ns = last.duration_ns + last_link.propagation_ns
        if stream.type == StreamType.DET:
            # last.φ - first.φ <= e2e - tail
            solver.require(
                diff_le(last.var_name, first.var_name, stream.e2e_ns - tail_ns)
            )
        else:
            # last.φ <= ot + e2e - tail
            solver.require(
                var_le(last.var_name, stream.occurrence_ns + stream.e2e_ns - tail_ns)
            )


def _add_overlap_constraints(solver, streams_by_name, frames) -> int:
    """Eq. 5: pairwise non-overlap across all periodic repetitions.

    Skipped for pairs the E-TSN paradigm allows to overlap (possibilities
    of one ECT stream; possibility x sharing TCT).

    Encoding: the repetitions of frame ``fk`` (period ``Ti``) and ``fl``
    (period ``Tj``) realize every alignment ``Δ = (φl - φk) + D`` with
    ``D`` ranging over all multiples of ``g = gcd(Ti, Tj)``.  They
    overlap iff some alignment lands in ``(-Ll, Lk)``.  With the Eq. 1
    windows bounding ``φ``, only finitely many ``D`` can produce such an
    alignment; one two-literal clause per candidate ``D`` forbids it::

        (φk - φl <= D - Lk)  or  (φl - φk <= -Ll - D)

    This replaces the textbook double loop over hyperperiod repetitions
    and — unlike it — stays sound for the widened probabilistic windows.
    """
    import math

    by_link: Dict[Tuple[str, str], List[Tuple[str, List[FrameVar]]]] = {}
    for (stream_name, link_key), frame_list in frames.items():
        by_link.setdefault(link_key, []).append((stream_name, frame_list))
    num_clauses = 0
    for link_key, entries in by_link.items():
        for i in range(len(entries)):
            name_i, frames_i = entries[i]
            stream_i = streams_by_name[name_i]
            for j in range(i + 1, len(entries)):
                name_j, frames_j = entries[j]
                stream_j = streams_by_name[name_j]
                if may_overlap(stream_i, stream_j):
                    continue
                g = math.gcd(stream_i.period_ns, stream_j.period_ns)
                for fk in frames_i:
                    wm_k = window_max_ns(stream_i, fk)
                    for fl in frames_j:
                        wm_l = window_max_ns(stream_j, fl)
                        # Δ0 = φl - φk lies in [-wm_k, wm_l]; overlap needs
                        # Δ0 + D in (-Ll, Lk), so D in the open interval
                        # (-Ll - wm_l, Lk + wm_k).
                        low = -fl.duration_ns - wm_l
                        high = fk.duration_ns + wm_k
                        m = low // g + 1
                        while m * g < high:
                            d = m * g
                            solver.add_clause([
                                Atom(fk.var_name, fl.var_name,
                                     d - fk.duration_ns),
                                Atom(fl.var_name, fk.var_name,
                                     -fl.duration_ns - d),
                            ])
                            num_clauses += 1
                            m += 1
    return num_clauses


def _add_adjacent_link_constraints(solver, streams, frames) -> None:
    """Eq. 7: downstream slot j after upstream slot j+o is fully received."""
    for stream in streams:
        for up, down in zip(stream.path, stream.path[1:]):
            up_frames = frames[(stream.name, up.key)]
            down_frames = frames[(stream.name, down.key)]
            o = max(len(up_frames) - len(down_frames), 0)
            for j, down_frame in enumerate(down_frames):
                # A downstream link can carry *more* slots than upstream
                # when only it is shared with ECT; surplus downstream
                # slots pair with the last upstream frame.
                up_frame = up_frames[min(j + o, len(up_frames) - 1)]
                # down.φ >= up.φ + up.L + prop
                solver.require(
                    diff_le(
                        up_frame.var_name,
                        down_frame.var_name,
                        -(up_frame.duration_ns + up.propagation_ns),
                    )
                )
