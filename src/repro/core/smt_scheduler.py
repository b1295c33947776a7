"""The SMT-backed joint scheduler — the paper's primary formalization.

Pipeline (paper Fig. 5, inside the CNC):

1. expand every ECT stream into probabilistic possibilities
   (:mod:`repro.core.probabilistic`),
2. run prudent reservation to fix per-link frame counts
   (:mod:`repro.core.reservation`),
3. generate the Eq. 1-7 formula (:mod:`repro.core.constraints`),
4. solve with the DPLL(T) difference-logic solver (:mod:`repro.smt`),
5. extract the slot table and re-validate it independently
   (:mod:`repro.core.schedule`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.check.proof import verify_certificate
from repro.core.constraints import build_constraints
from repro.core.probabilistic import expand_ect
from repro.core.reservation import prudent_reservation
from repro.core.schedule import (
    CertifiedInfeasibleError,
    InfeasibleError,
    NetworkSchedule,
    validate,
)
from repro.model.frame import FrameSlot
from repro.model.stream import EctStream, Stream
from repro.model.topology import Topology


def schedule_smt(
    topology: Topology,
    tct_streams: Sequence[Stream],
    ect_streams: Sequence[EctStream] = (),
    validate_result: bool = True,
    guard_margin_ns: int = 0,
    reservation_mode: str = "paper",
    proof: bool = False,
    max_conflicts: Optional[int] = None,
) -> NetworkSchedule:
    """Compute a joint E-TSN schedule with the SMT backend.

    Raises :class:`InfeasibleError` when the constraint system is
    unsatisfiable (the stream set cannot be scheduled on this network),
    or when the search analyses ``max_conflicts`` conflicts without a
    verdict — a spent budget, never a proof, so never certified.

    ``proof=True`` makes every verdict machine-checked: the solver logs
    a certificate, and before this function returns (or raises) the
    independent checker in :mod:`repro.check` replays it — an UNSAT
    proof by reverse unit propagation with negative-cycle witnesses, a
    SAT model by evaluating every input constraint.  Infeasibility then
    surfaces as :class:`CertifiedInfeasibleError`, and the schedule's
    ``meta["certificate"]`` records the verification.  A certificate
    that fails to check raises
    :class:`~repro.check.proof.CertificateError` — that is a solver
    bug, not an admission verdict.
    """
    streams: List[Stream] = list(tct_streams)
    ects = list(ect_streams)
    for ect in ects:
        streams.extend(expand_ect(ect, topology))

    plan = prudent_reservation(streams, mode=reservation_mode)
    system = build_constraints(
        topology, streams, plan, guard_margin_ns, proof=proof
    )
    result = system.solver.check(max_conflicts)
    if result.sat is None:
        raise InfeasibleError(
            f"SMT scheduler: no verdict for {len(streams)} streams "
            f"({result.stats['clauses']} clauses); the budget of "
            f"{max_conflicts} conflicts ran out"
        )
    if not result.sat:
        message = (
            f"SMT scheduler: no schedule exists for {len(streams)} streams "
            f"({result.stats['clauses']} clauses, "
            f"{result.stats['conflicts']} conflicts explored)"
        )
        if proof:
            steps = verify_certificate(result.certificate)
            raise CertifiedInfeasibleError(
                f"{message} [UNSAT proof checked: {steps} steps]",
                certificate=result.certificate,
                proof_steps=steps,
            )
        raise InfeasibleError(message)

    model = result.model
    slots: Dict[Tuple[str, Tuple[str, str]], List[FrameSlot]] = {}
    for key, frame_vars in system.frames.items():
        slots[key] = [fv.scheduled(model[fv.var_name]) for fv in frame_vars]

    meta = {
        "backend": "smt",
        "solver_stats": result.stats,
        "extra_slots": sum(plan.extras.values()),
    }
    if proof:
        checked = verify_certificate(result.certificate)
        meta["certificate"] = {
            "status": "sat",
            "verified": True,
            "clauses_checked": checked,
        }
    schedule = NetworkSchedule(
        topology=topology,
        streams=streams,
        slots=slots,
        ect_streams=ects,
        meta=meta,
    )
    if validate_result:
        validate(schedule)
    return schedule
