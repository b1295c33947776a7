"""The order heap under the branching rule, against its specification.

The rule: branch on the unassigned variable of highest activity, the
lowest-numbered one on a tie.  ``SatSolver`` finds it with an indexed
binary heap; the linear scan it replaced lives on here as the reference
(``_ScanDecide``), and both are driven over the same formulas: identical
decision literals in order, identical ``SolverStats``, identical models.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import DlSmtSolver
from repro.smt.sat import UNASSIGNED, SatSolver
from repro.smt.terms import Atom

from .test_sat_advanced import _pigeonhole


class _ScanDecide:
    """The specification: first strict maximum of a scan in variable
    order.  (It never picks an activity <= -1; the solver itself never
    produces one and the drawn seeds below are non-negative.)"""

    def _decide(self):
        best = 0
        best_activity = -1.0
        for var in range(1, self._num_vars + 1):
            if (self._values[var] == UNASSIGNED
                    and self._activity[var] > best_activity):
                best = var
                best_activity = self._activity[var]
        if best == 0:
            return False
        self.num_decisions += 1
        self._trail_lim.append(len(self._trail))
        self._assign(best if self._phase[best] else -best, None)
        return True


class _Recording:
    """Log every decision literal, auditing the heap before each."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.decided = []

    def _decide(self):
        check_heap(self)
        made = super()._decide()
        if made:
            self.decided.append(self._trail[-1])
        return made


class HeapSolver(_Recording, SatSolver):
    pass


class ScanSolver(_Recording, _ScanDecide, SatSolver):
    pass


def check_heap(sat):
    """Heap order, ``pos[]`` consistency, and the membership invariant:
    every unassigned variable is in the heap."""
    heap, pos, activity = sat._heap, sat._heap_pos, sat._activity
    assert len(pos) == sat._num_vars + 1
    assert len(set(heap)) == len(heap)
    for index, var in enumerate(heap):
        assert pos[var] == index
        if index:
            parent = heap[(index - 1) >> 1]
            assert (-activity[parent], parent) < (-activity[var], var)
    members = set(heap)
    for var in range(1, sat._num_vars + 1):
        if var not in members:
            assert pos[var] == -1
            assert sat._values[var] != UNASSIGNED


def _seed_heuristics(solver, phases, activities):
    """Preload saved phases and VSIDS activities before ``solve()``
    builds its branching order; any values are sound."""
    for var, phase in phases.items():
        solver._phase[var] = phase
    for var, activity in activities.items():
        solver._activity[var] = activity


def _lockstep(run):
    """``run(cls)`` solves one formula on a SAT core of class ``cls`` and
    returns ``(core, answer)``.  The heap solver and the scan reference
    must agree decision for decision.  Returns the heap core."""
    (heap, heap_answer), (scan, scan_answer) = run(HeapSolver), run(ScanSolver)
    assert heap_answer == scan_answer
    assert heap.decided == scan.decided
    assert heap.stats() == scan.stats()
    assert heap._values == scan._values
    check_heap(heap)
    return heap


def _lockstep_cnf(build):
    def run(cls):
        solver = cls()
        build(solver)
        return solver, solver.solve()

    return _lockstep(run)


@st.composite
def _cnfs(draw):
    num_vars = draw(st.integers(1, 12))
    literals = st.integers(1, num_vars).flatmap(
        lambda var: st.sampled_from([var, -var]))
    clauses = draw(st.lists(
        st.lists(literals, min_size=1, max_size=4), max_size=40))
    # few distinct activity values, so ties (broken by variable number)
    # are as common as strict maxima
    activities = draw(st.dictionaries(
        st.integers(1, num_vars), st.sampled_from([0.0, 0.5, 1.0, 3.0])))
    phases = draw(st.dictionaries(st.integers(1, num_vars), st.booleans()))
    return num_vars, clauses, phases, activities


@settings(max_examples=300, deadline=None)
@given(_cnfs())
def test_lockstep_on_random_cnf(cnf):
    num_vars, clauses, phases, activities = cnf

    def build(solver):
        for _ in range(num_vars):
            solver.new_var()
        for clause in clauses:
            solver.add_clause(clause)
        _seed_heuristics(solver, phases, activities)

    _lockstep_cnf(build)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lockstep_on_random_difference_logic(data):
    names = [f"v{i}" for i in range(data.draw(st.integers(2, 5)))]
    pairs = [(x, y) for x in names for y in names if x != y]
    clauses = [
        [Atom(*data.draw(st.sampled_from(pairs)),
              data.draw(st.integers(-4, 4)))
         for _ in range(data.draw(st.integers(1, 3)))]
        for _ in range(data.draw(st.integers(1, 14)))
    ]

    def run(cls):
        with mock.patch("repro.smt.solver.SatSolver", cls):
            solver = DlSmtSolver()
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.check()
        assert solver._dl.num_asserted == len(solver._sat._theory_trail)
        return solver._sat, (result.sat, result.model if result.sat else None)

    _lockstep(run)


class TestNamedCases:
    def test_unsat_with_restarts(self):
        """PHP(7,6): thousands of conflicts, so every bump path and
        several restarts (``_backjump(0)``) run in lock-step."""
        heap = _lockstep_cnf(lambda solver: _pigeonhole(solver, 7, 6))
        assert heap.num_restarts >= 1

    def test_restart_reinserts_every_variable(self):
        solver = HeapSolver()
        for _ in range(9):
            solver.new_var()
        solver.add_clause([1])  # assigned at level 0: stays out
        solver._heap_build(range(2, 10))
        while solver._decide():
            pass
        assert solver._heap == []
        solver._backjump(0)
        check_heap(solver)
        assert sorted(solver._heap) == list(range(2, 10))

    def test_rescale_merges_keys_into_a_tie(self):
        """Variables 5 and 6 are seeded above the 1e100 threshold, so
        the bump of the first conflict rescales every activity by
        1e-100.  The free variables 1-4 hold 4e-250 .. 16e-250 —
        variable 4 first — and sit in the heap while that happens; all
        underflow to zero, now a tie with variable 1 first.  Only a
        rebuilt heap is still a heap (4 sat above 1 in the old one)."""

        def build(solver):
            for _ in range(6):
                solver.new_var()
            solver.add_clause([5, 6])
            solver.add_clause([5, -6])  # deciding -5 conflicts
            activities = {var: var * 4e-250 for var in range(1, 5)}
            activities.update({5: 3e100, 6: 2e100})
            _seed_heuristics(solver, {}, activities)

        heap = _lockstep_cnf(build)
        assert heap.num_conflicts == 1
        assert heap._activity_inc < 1e-50, "no rescale happened"
        assert heap._activity[1:5] == [0.0] * 4
        assert heap.decided == [-5, 6, -1, -2, -3, -4]  # 6: saved phase

    def test_seeding_after_the_formula_is_built_is_honoured(self):
        def build(solver):
            for _ in range(6):
                solver.new_var()
            solver.add_clause([1, 2, 3])
            solver.add_clause([-4, 5, 6])
            _seed_heuristics(solver, {5: True}, {5: 2.0, 3: 1.0})

        heap = _lockstep_cnf(build)
        assert heap.decided[:2] == [5, -3]

    def test_solving_twice_changes_nothing(self):
        solver = HeapSolver()
        _pigeonhole(solver, 4, 4)
        assert solver.solve()
        first = (list(solver._values), list(solver.decided), solver.stats())
        assert solver.solve()
        check_heap(solver)
        assert (solver._values, solver.decided, solver.stats()) == first

    def test_a_seeded_negative_activity_is_still_decided(self):
        """The one place the heap departs from the scan, on purpose: the
        scan's ``-1.0`` floor left such a variable unassigned and
        answered SAT without a value for it."""
        solver = HeapSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([b])
        _seed_heuristics(solver, {}, {a: -5.0})
        assert solver.solve()
        assert solver.decided == [-a]
        assert solver.value(a) is False
