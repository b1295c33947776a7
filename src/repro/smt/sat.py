"""A CDCL SAT solver with a theory hook — the boolean core of DPLL(T).

Implements the standard modern architecture: two-watched-literal unit
propagation, first-UIP conflict analysis with clause learning, VSIDS-style
activity ordering (an indexed binary heap keeps the unassigned variables
in branching order), phase saving, and Luby restarts.  A theory object may
be attached; after every propagation fixpoint the solver feeds newly
assigned literals to it and treats a returned conflict exactly like a
falsified clause.

Literals are non-zero integers: ``+v`` / ``-v`` for variable ``v >= 1``
(DIMACS convention).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from repro.smt.proof import ProofLog


@dataclass(frozen=True)
class SolverStats:
    """Snapshot of one solver's search counters.

    Attached to every solve result so admission telemetry can tell
    *where* solver time went, not just that a solve happened.  All
    counters are cumulative over the solver's lifetime.
    """

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    theory_checks: int = 0
    theory_conflicts: int = 0
    learned_clauses: int = 0

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


class Theory(Protocol):
    """What the SAT core needs from a theory solver.

    Invariant both sides rely on: every ``on_assign`` that returns
    ``None`` records exactly one assertion in the theory and a
    conflicting one records none, so the theory's assertion stack is as
    deep as the core's list of forwarded literals and the count handed
    to ``on_backtrack`` *is* the depth to pop to.
    """

    def on_assign(self, lit: int) -> Optional[List[int]]:
        """Notify that ``lit`` became true.

        Return ``None`` if consistent, else the conflicting literals (all
        currently true); the solver learns their negation.
        """

    def on_backtrack(self, num_assigned: int) -> None:
        """Undo assertions so exactly ``num_assigned`` remain."""

    def relevant(self, var: int) -> bool:
        """Whether assignments of ``var`` must be forwarded."""

    # Theories that support proof logging additionally expose a
    # ``last_conflict_cycle`` attribute: the witness of the most recent
    # conflict, read immediately after ``on_assign`` reports it.


UNASSIGNED = 0
TRUE = 1
FALSE = -1

_RESTART_UNIT = 128


def _luby(i: int) -> int:
    """The Luby restart sequence: 1,1,2,1,1,2,4,... (``i`` is 1-based)."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


class SatSolver:
    """CDCL solver over integer literals with an optional theory."""

    def __init__(
        self,
        theory: Optional[Theory] = None,
        proof: Optional[ProofLog] = None,
    ) -> None:
        self._num_vars = 0
        self._proof = proof
        self._clauses: List[List[int]] = []
        self._watches: Dict[int, List[List[int]]] = {}
        self._values: List[int] = [UNASSIGNED]  # 1-indexed by variable
        self._levels: List[int] = [0]
        self._reasons: List[Optional[List[int]]] = [None]
        self._phase: List[bool] = [False]
        self._activity: List[float] = [0.0]
        self._activity_inc = 1.0
        # Branching order, built at solve() entry: a binary max-heap of
        # variables keyed (activity desc, var asc) that holds at least
        # every unassigned variable; _heap_pos[var] is its index there,
        # -1 when absent.
        self._heap: List[int] = []
        self._heap_pos: List[int] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._theory = theory
        # Relevant literals forwarded to the theory, as (trail_pos, lit).
        self._theory_trail: List[tuple] = []
        self._theory_head = 0  # trail entries examined so far
        self._root_conflict = False
        self.num_conflicts = 0
        self.num_decisions = 0
        self.num_restarts = 0
        self.num_propagations = 0
        self.num_theory_checks = 0
        self.num_theory_conflicts = 0
        self.num_learned = 0

    def stats(self) -> SolverStats:
        """Current search counters as an immutable snapshot."""
        return SolverStats(
            conflicts=self.num_conflicts,
            decisions=self.num_decisions,
            propagations=self.num_propagations,
            restarts=self.num_restarts,
            theory_checks=self.num_theory_checks,
            theory_conflicts=self.num_theory_conflicts,
            learned_clauses=self.num_learned,
        )

    # ------------------------------------------------------------------
    # problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate and return a fresh variable (>= 1)."""
        self._num_vars += 1
        self._values.append(UNASSIGNED)
        self._levels.append(0)
        self._reasons.append(None)
        self._phase.append(False)
        self._activity.append(0.0)
        return self._num_vars

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a clause; returns False if the formula became trivially UNSAT.

        Must be called before :meth:`solve` (no incremental clause adding
        mid-search except through learning).
        """
        seen = set()
        clause: List[int] = []
        for lit in lits:
            if abs(lit) < 1 or abs(lit) > self._num_vars:
                raise ValueError(f"literal {lit} names an unallocated variable")
            if -lit in seen:
                return True  # tautology: always satisfied
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        if not clause:
            self._root_conflict = True
            return False
        if len(clause) == 1:
            lit = clause[0]
            value = self._lit_value(lit)
            if value == FALSE:
                self._root_conflict = True
                return False
            if value == UNASSIGNED:
                self._assign(lit, None)
            return True
        self._attach(clause)
        return True

    def _attach(self, clause: List[int]) -> None:
        self._clauses.append(clause)
        self._watches.setdefault(clause[0], []).append(clause)
        self._watches.setdefault(clause[1], []).append(clause)

    # ------------------------------------------------------------------
    # assignment plumbing
    # ------------------------------------------------------------------
    def _lit_value(self, lit: int) -> int:
        value = self._values[abs(lit)]
        if value == UNASSIGNED:
            return UNASSIGNED
        return value if lit > 0 else -value

    def _assign(self, lit: int, reason: Optional[List[int]]) -> None:
        var = abs(lit)
        self._values[var] = TRUE if lit > 0 else FALSE
        self._levels[var] = self.decision_level
        self._reasons[var] = reason
        self._phase[var] = lit > 0
        self._trail.append(lit)

    @property
    def decision_level(self) -> int:
        return len(self._trail_lim)

    def _backjump(self, level: int) -> None:
        if level >= self.decision_level:
            return
        keep = self._trail_lim[level]
        for lit in reversed(self._trail[keep:]):
            var = abs(lit)
            self._values[var] = UNASSIGNED
            self._reasons[var] = None
            if self._heap_pos[var] < 0:
                self._heap.append(var)
                self._heap_up(len(self._heap) - 1)
        del self._trail[keep:]
        del self._trail_lim[level:]
        self._qhead = min(self._qhead, len(self._trail))
        if self._theory is not None:
            retained = len(self._theory_trail)
            while retained > 0 and self._theory_trail[retained - 1][0] >= keep:
                retained -= 1
            del self._theory_trail[retained:]
            self._theory.on_backtrack(retained)
            self._theory_head = min(self._theory_head, keep)

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> Optional[List[int]]:
        """BCP to fixpoint, then theory assertion; returns a conflict clause."""
        while True:
            while self._qhead < len(self._trail):
                lit = self._trail[self._qhead]
                self._qhead += 1
                conflict = self._propagate_lit(-lit)
                if conflict is not None:
                    return conflict
            theory_conflict = self._theory_advance()
            if theory_conflict is not None:
                return theory_conflict
            if self._qhead == len(self._trail):
                return None

    def _propagate_lit(self, false_lit: int) -> Optional[List[int]]:
        watchers = self._watches.get(false_lit)
        if not watchers:
            return None
        kept: List[List[int]] = []
        try:
            for idx, clause in enumerate(watchers):
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                other = clause[0]
                if self._lit_value(other) == TRUE:
                    kept.append(clause)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._lit_value(clause[k]) != FALSE:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches.setdefault(clause[1], []).append(clause)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(clause)
                if self._lit_value(other) == FALSE:
                    kept.extend(watchers[idx + 1:])
                    return clause
                self.num_propagations += 1
                self._assign(other, clause)
        finally:
            self._watches[false_lit] = kept
        return None

    def _theory_advance(self) -> Optional[List[int]]:
        if self._theory is None:
            return None
        while self._theory_head < len(self._trail):
            pos = self._theory_head
            lit = self._trail[pos]
            self._theory_head += 1
            if not self._theory.relevant(abs(lit)):
                continue
            self.num_theory_checks += 1
            conflict_lits = self._theory.on_assign(lit)
            if conflict_lits is not None:
                self.num_theory_conflicts += 1
                # All returned literals are true; their negations form a
                # falsified clause.  The theory did not record the failed
                # assertion, so its stack already matches _theory_trail.
                self._theory_head = pos
                lemma = [-l for l in conflict_lits]
                if self._proof is not None:
                    self._proof.add_lemma(
                        lemma,
                        getattr(self._theory, "last_conflict_cycle", None),
                    )
                return lemma
            self._theory_trail.append((pos, lit))
        return None

    # ------------------------------------------------------------------
    # conflict analysis
    # ------------------------------------------------------------------
    def _bump(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._activity_inc
        if activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                activity[v] *= 1e-100
            self._activity_inc *= 1e-100
            # Small activities may have underflowed into a tie, which
            # the variable number now breaks: re-establish the order.
            self._heap_build(self._heap)
        elif self._heap_pos[var] >= 0:
            self._heap_up(self._heap_pos[var])

    def _analyze(self, conflict: List[int]) -> Tuple[List[int], int]:
        """First-UIP learning; returns (learned clause, backjump level)."""
        learned: List[int] = [0]  # slot 0 for the asserting literal
        seen = set()  # variables, not a per-conflict O(vars) array
        counter = 0
        lit_iter: Optional[int] = None
        index = len(self._trail) - 1
        clause: Optional[List[int]] = conflict
        while True:
            assert clause is not None, "conflict analysis lost the reason chain"
            for lit in clause:
                if lit_iter is not None and lit == lit_iter:
                    continue
                var = abs(lit)
                if var in seen or self._levels[var] == 0:
                    continue
                seen.add(var)
                self._bump(var)
                if self._levels[var] == self.decision_level:
                    counter += 1
                else:
                    learned.append(lit)
            while abs(self._trail[index]) not in seen:
                index -= 1
            pivot = self._trail[index]
            index -= 1
            seen.discard(abs(pivot))
            counter -= 1
            if counter == 0:
                learned[0] = -pivot
                break
            clause = self._reasons[abs(pivot)]
            lit_iter = pivot
        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the clause.
        back = max(self._levels[abs(lit)] for lit in learned[1:])
        # Move one literal of that level into the second watch position.
        for k in range(1, len(learned)):
            if self._levels[abs(learned[k])] == back:
                learned[1], learned[k] = learned[k], learned[1]
                break
        return learned, back

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def _heap_build(self, variables: Sequence[int]) -> None:
        """Make ``variables`` the heap: a list sorted by the key is one."""
        activity = self._activity
        self._heap = sorted(variables, key=lambda var: (-activity[var], var))
        self._heap_pos = [-1] * (self._num_vars + 1)
        for index, var in enumerate(self._heap):
            self._heap_pos[var] = index

    def _heap_up(self, index: int) -> None:
        heap, pos, activity = self._heap, self._heap_pos, self._activity
        var = heap[index]
        key = activity[var]
        while index > 0:
            parent_index = (index - 1) >> 1
            parent = heap[parent_index]
            parent_key = activity[parent]
            if parent_key > key or (parent_key == key and parent < var):
                break
            heap[index] = parent
            pos[parent] = index
            index = parent_index
        heap[index] = var
        pos[var] = index

    def _heap_pop(self) -> int:
        """Remove and return the variable that sorts first."""
        heap, pos, activity = self._heap, self._heap_pos, self._activity
        top = heap[0]
        pos[top] = -1
        var = heap.pop()
        size = len(heap)
        if size == 0:
            return top
        key = activity[var]
        index = 0
        child_index = 1
        while child_index < size:
            child = heap[child_index]
            child_key = activity[child]
            if child_index + 1 < size:
                other = heap[child_index + 1]
                other_key = activity[other]
                if other_key > child_key or (
                    other_key == child_key and other < child
                ):
                    child_index += 1
                    child, child_key = other, other_key
            if key > child_key or (key == child_key and var < child):
                break
            heap[index] = child
            pos[child] = index
            index = child_index
            child_index = 2 * index + 1
        heap[index] = var
        pos[var] = index
        return top

    def _decide(self) -> bool:
        """Branch on the unassigned variable of highest activity, the
        lowest-numbered one on a tie; False when none is left."""
        values = self._values
        while self._heap:
            var = self._heap_pop()
            if values[var] == UNASSIGNED:
                self.num_decisions += 1
                self._trail_lim.append(len(self._trail))
                self._assign(var if self._phase[var] else -var, None)
                return True
        return False

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _conclude_unsat(self) -> bool:
        """Every UNSAT exit runs through here so the proof is closed."""
        if self._proof is not None:
            self._proof.add_empty()
        return False

    def solve(self, max_conflicts: Optional[int] = None) -> Optional[bool]:
        """Decide satisfiability.  The model is readable via :meth:`value`.

        ``max_conflicts`` bounds the search: once this call has analysed
        that many conflicts the next one ends it with ``None`` — no
        verdict, and no UNSAT proof closed.  ``None`` searches to a
        verdict.
        """
        # Built here, not as variables are allocated, so that activities
        # seeded after the formula was built are honoured.
        self._heap_build([
            var for var in range(1, self._num_vars + 1)
            if self._values[var] == UNASSIGNED
        ])
        if self._root_conflict:
            return self._conclude_unsat()
        limit = None if max_conflicts is None else (
            self.num_conflicts + max_conflicts
        )
        restart_count = 0
        conflicts_until_restart = _luby(1) * _RESTART_UNIT
        conflicts_here = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.num_conflicts += 1
                conflicts_here += 1
                if self.decision_level == 0:
                    return self._conclude_unsat()
                # A theory conflict found during re-assertion may involve
                # only literals below the current decision level; analysis
                # requires at least one current-level literal, so first
                # fall back to the conflict's own highest level.
                top = max(self._levels[abs(lit)] for lit in conflict)
                if top == 0:
                    return self._conclude_unsat()
                if limit is not None and self.num_conflicts > limit:
                    return None
                if top < self.decision_level:
                    self._backjump(top)
                learned, back_level = self._analyze(conflict)
                self.num_learned += 1
                if self._proof is not None:
                    self._proof.add_learned(learned)
                self._backjump(back_level)
                if len(learned) == 1:
                    if self._lit_value(learned[0]) == FALSE:
                        return self._conclude_unsat()
                    if self._lit_value(learned[0]) == UNASSIGNED:
                        self._assign(learned[0], None)
                else:
                    self._attach(learned)
                    self._assign(learned[0], learned)
                self._activity_inc *= 1.05
                continue
            if conflicts_here >= conflicts_until_restart:
                restart_count += 1
                self.num_restarts += 1
                conflicts_here = 0
                conflicts_until_restart = _luby(restart_count + 1) * _RESTART_UNIT
                self._backjump(0)
                continue
            if not self._decide():
                return True

    def value(self, var: int) -> bool:
        """Model value of ``var`` after a successful :meth:`solve`."""
        value = self._values[var]
        if value == UNASSIGNED:
            raise RuntimeError(f"variable {var} is unassigned; call solve() first")
        return value == TRUE
