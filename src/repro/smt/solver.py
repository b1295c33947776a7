"""DPLL(T) for integer difference logic: the solver the scheduler calls.

Glues :class:`repro.smt.sat.SatSolver` (boolean search) to
:class:`repro.smt.theory.DifferenceLogic` (conjunctive consistency).
Clients build a formula from :class:`repro.smt.terms.Atom` disjunctions —
exactly the shape of the paper's Eqs. 1-7 — and read back an integer model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.smt.proof import Certificate, ProofLog
from repro.smt.sat import SatSolver, SolverStats
from repro.smt.terms import ZERO, Atom
from repro.smt.theory import DifferenceLogic


class SmtResult:
    """Outcome of a :meth:`DlSmtSolver.check` call.

    ``sat`` is ``None`` when the conflict budget ran out before a
    verdict; such a result is falsy and carries no certificate.
    ``stats`` is the flat JSON-able counter dict (formula size plus the
    search counters); ``solver_stats`` is the typed
    :class:`~repro.smt.sat.SolverStats` snapshot of the CDCL core.
    ``certificate`` is attached when the solver was built with
    ``proof=True``: the input CNF and atom map plus either the model
    (SAT) or the logged proof steps (UNSAT), ready for the independent
    checkers in :mod:`repro.check`.
    """

    def __init__(
        self,
        sat: Optional[bool],
        model: Optional[Dict[str, int]],
        stats: Dict[str, int],
        solver_stats: Optional[SolverStats] = None,
        certificate: Optional[Certificate] = None,
    ):
        self.sat = sat
        self._model = model
        self.stats = stats
        self.solver_stats = solver_stats or SolverStats()
        self.certificate = certificate

    def __bool__(self) -> bool:
        return self.sat is True

    @property
    def model(self) -> Dict[str, int]:
        if not self.sat or self._model is None:
            raise RuntimeError("no model: formula is unsatisfiable")
        return self._model


class _DlTheoryAdapter:
    """Bridges SAT literals to difference-logic assertions."""

    def __init__(self, dl: DifferenceLogic) -> None:
        self._dl = dl
        # literal -> atom; the negative polarity is filled in the first
        # time that literal is asserted, not on every assignment
        self._atom_of_lit: Dict[int, Atom] = {}

    def register(self, var: int, atom: Atom) -> None:
        self._atom_of_lit[var] = atom

    def relevant(self, var: int) -> bool:
        return var in self._atom_of_lit

    def on_assign(self, lit: int) -> Optional[List[int]]:
        atom = self._atom_of_lit.get(lit)
        if atom is None:
            atom = self._atom_of_lit[lit] = self._atom_of_lit[-lit].negate()
        return self._dl.assert_atom(atom, token=lit)

    def on_backtrack(self, num_assigned: int) -> None:
        # One recorded edge per successful on_assign (the Theory
        # protocol's invariant): the count kept is the depth to pop to.
        assert num_assigned <= self._dl.num_asserted, "theory stack too shallow"
        self._dl.backtrack_to(num_assigned)

    @property
    def last_conflict_cycle(self):
        """Negative-cycle witness of the latest theory conflict (for
        proof logging); atoms in cycle order."""
        return self._dl.last_conflict_cycle


class DlSmtSolver:
    """Public SMT interface: assert atoms/clauses over integer variables.

    Usage::

        solver = DlSmtSolver()
        solver.require(var_ge("phi", 0))
        solver.add_clause([diff_ge("a", "b", 10), diff_ge("b", "a", 10)])
        result = solver.check()
        if result:
            print(result.model["phi"])
    """

    def __init__(self, proof: bool = False) -> None:
        self._dl = DifferenceLogic()
        self._adapter = _DlTheoryAdapter(self._dl)
        self._proof = ProofLog() if proof else None
        self._sat = SatSolver(theory=self._adapter, proof=self._proof)
        self._vars_of_atom: Dict[Atom, int] = {}
        self._int_vars: List[str] = []
        self._int_var_set = set()
        # With proof logging on, the input clauses are retained verbatim
        # so the certificate can carry the formula the checker replays.
        self._input_clauses: List[List[int]] = []
        self._num_clauses = 0

    # ------------------------------------------------------------------
    def int_var(self, name: str) -> str:
        """Declare an integer variable (idempotent)."""
        if name not in self._int_var_set:
            self._int_var_set.add(name)
            self._int_vars.append(name)
        return name

    def _literal(self, atom: Atom) -> int:
        canonical, sign = atom.canonical()
        var = self._vars_of_atom.get(canonical)
        if var is None:
            var = self._sat.new_var()
            self._vars_of_atom[canonical] = var
            self._adapter.register(var, canonical)
        for name in (atom.x, atom.y):
            self.int_var(name)
        return sign * var

    def require(self, atom: Atom) -> None:
        """Assert ``atom`` unconditionally (a unit clause)."""
        self.add_clause([atom])

    def add_clause(self, atoms: Sequence[Atom]) -> None:
        """Assert the disjunction of ``atoms``."""
        if not atoms:
            raise ValueError("empty clause is trivially unsatisfiable")
        lits = [self._literal(a) for a in atoms]
        self._num_clauses += 1
        if self._proof is not None:
            self._input_clauses.append(list(lits))
        self._sat.add_clause(lits)

    # ------------------------------------------------------------------
    def check(self, max_conflicts: Optional[int] = None) -> SmtResult:
        """Run the DPLL(T) search, bounded by ``max_conflicts`` if given
        (see :meth:`SatSolver.solve`)."""
        sat = self._sat.solve(max_conflicts)
        model: Optional[Dict[str, int]] = None
        if sat:
            values = self._dl.model()
            model = {
                name: values.get(name, 0)
                for name in self._int_vars
                if name != ZERO
            }
        solver_stats = self._sat.stats()
        stats = {
            "atoms": len(self._vars_of_atom),
            "clauses": self._num_clauses,
        }
        stats.update(solver_stats.to_dict())
        certificate = None
        if self._proof is not None and sat is not None:
            certificate = Certificate(
                status="sat" if sat else "unsat",
                cnf=[list(clause) for clause in self._input_clauses],
                atoms={var: atom for atom, var in self._vars_of_atom.items()},
                model=dict(model) if model is not None else None,
                proof=None if sat else list(self._proof.steps),
            )
        return SmtResult(sat, model, stats, solver_stats, certificate)
