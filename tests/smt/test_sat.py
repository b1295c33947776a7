"""CDCL SAT core tests (no theory attached)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt.proof import STEP_EMPTY, ProofLog
from repro.smt.sat import SatSolver, _luby


class TestLuby:
    def test_prefix(self):
        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [_luby(i) for i in range(1, 16)] == expected

    def test_powers(self):
        assert _luby(2**6 - 1) == 2**5


class TestBasics:
    def test_empty_formula_is_sat(self):
        solver = SatSolver()
        solver.new_var()
        assert solver.solve()

    def test_unit_clause(self):
        solver = SatSolver()
        v = solver.new_var()
        solver.add_clause([v])
        assert solver.solve()
        assert solver.value(v) is True

    def test_negated_unit(self):
        solver = SatSolver()
        v = solver.new_var()
        solver.add_clause([-v])
        assert solver.solve()
        assert solver.value(v) is False

    def test_contradictory_units(self):
        solver = SatSolver()
        v = solver.new_var()
        assert solver.add_clause([v])
        assert not solver.add_clause([-v])
        assert not solver.solve()

    def test_tautology_ignored(self):
        solver = SatSolver()
        v = solver.new_var()
        solver.add_clause([v, -v])
        assert solver.solve()

    def test_duplicate_literals_collapse(self):
        solver = SatSolver()
        v = solver.new_var()
        solver.add_clause([v, v, v])
        assert solver.solve()
        assert solver.value(v) is True

    def test_unallocated_literal_rejected(self):
        solver = SatSolver()
        with pytest.raises(ValueError):
            solver.add_clause([1])

    def test_value_before_solve_rejected(self):
        solver = SatSolver()
        v = solver.new_var()
        with pytest.raises(RuntimeError):
            solver.value(v)


class TestPropagationChains:
    def test_implication_chain(self):
        solver = SatSolver()
        vs = [solver.new_var() for _ in range(10)]
        solver.add_clause([vs[0]])
        for a, b in zip(vs, vs[1:]):
            solver.add_clause([-a, b])  # a -> b
        assert solver.solve()
        assert all(solver.value(v) for v in vs)

    def test_chain_with_dead_end(self):
        solver = SatSolver()
        a, b, c = (solver.new_var() for _ in range(3))
        solver.add_clause([a])
        solver.add_clause([-a, b])
        solver.add_clause([-b, c])
        solver.add_clause([-c])
        assert not solver.solve()


class TestClassicInstances:
    def test_pigeonhole_3_into_2(self):
        """PHP(3,2): 3 pigeons, 2 holes — UNSAT."""
        solver = SatSolver()
        var = {}
        for p in range(3):
            for h in range(2):
                var[(p, h)] = solver.new_var()
        for p in range(3):
            solver.add_clause([var[(p, h)] for h in range(2)])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    solver.add_clause([-var[(p1, h)], -var[(p2, h)]])
        assert not solver.solve()

    def test_pigeonhole_4_into_4_sat(self):
        solver = SatSolver()
        var = {}
        for p in range(4):
            for h in range(4):
                var[(p, h)] = solver.new_var()
        for p in range(4):
            solver.add_clause([var[(p, h)] for h in range(4)])
        for h in range(4):
            for p1 in range(4):
                for p2 in range(p1 + 1, 4):
                    solver.add_clause([-var[(p1, h)], -var[(p2, h)]])
        assert solver.solve()
        # extract assignment: every pigeon sits somewhere, no collision
        seats = {}
        for p in range(4):
            holes = [h for h in range(4) if solver.value(var[(p, h)])]
            assert holes
            seats[p] = holes[0]

    def test_xor_chain_parity_unsat(self):
        """x1 ^ x2 = 1, x2 ^ x3 = 1, x1 ^ x3 = 1 is unsatisfiable."""
        solver = SatSolver()
        x1, x2, x3 = (solver.new_var() for _ in range(3))

        def add_xor_true(a, b):
            solver.add_clause([a, b])
            solver.add_clause([-a, -b])

        add_xor_true(x1, x2)
        add_xor_true(x2, x3)
        add_xor_true(x1, x3)
        assert not solver.solve()


class TestConflictBudget:
    """PHP(3,2) needs conflicts below the root: a budget that runs out
    first ends the search with no verdict and an open proof."""

    @staticmethod
    def _pigeonhole(proof):
        solver = SatSolver(proof=proof)
        var = {(p, h): solver.new_var() for p in range(3) for h in range(2)}
        for p in range(3):
            solver.add_clause([var[(p, 0)], var[(p, 1)]])
        for h in range(2):
            for p1, p2 in itertools.combinations(range(3), 2):
                solver.add_clause([-var[(p1, h)], -var[(p2, h)]])
        return solver

    def test_zero_budget_stops_at_the_first_conflict(self):
        proof = ProofLog()
        solver = self._pigeonhole(proof)
        assert solver.solve(max_conflicts=0) is None
        assert solver.num_conflicts == 1
        assert STEP_EMPTY not in [step.kind for step in proof.steps]

    def test_a_budget_that_suffices_closes_the_proof(self):
        proof = ProofLog()
        solver = self._pigeonhole(proof)
        assert solver.solve(max_conflicts=100) is False
        assert proof.steps[-1].kind == STEP_EMPTY


def _brute_force(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        def val(lit):
            v = bits[abs(lit) - 1]
            return v if lit > 0 else not v
        if all(any(val(l) for l in clause) for clause in clauses):
            return True
    return False


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_random_3sat_matches_brute_force(data):
    num_vars = data.draw(st.integers(2, 6))
    num_clauses = data.draw(st.integers(1, 20))
    clauses = []
    for _ in range(num_clauses):
        width = data.draw(st.integers(1, 3))
        clause = [
            data.draw(st.integers(1, num_vars)) * data.draw(st.sampled_from([1, -1]))
            for _ in range(width)
        ]
        clauses.append(clause)
    solver = SatSolver()
    for _ in range(num_vars):
        solver.new_var()
    ok = True
    for clause in clauses:
        ok = solver.add_clause(clause) and ok
    result = ok and solver.solve()
    assert result == _brute_force(num_vars, clauses)
    if result:
        for clause in clauses:
            assert any(
                solver.value(abs(l)) == (l > 0) for l in clause
            ), f"clause {clause} not satisfied"


def test_larger_random_instances_agree_with_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        num_vars = rng.randint(4, 9)
        clauses = []
        for _ in range(rng.randint(5, 35)):
            width = rng.randint(2, 3)
            clauses.append([
                rng.randint(1, num_vars) * rng.choice([1, -1]) for _ in range(width)
            ])
        solver = SatSolver()
        for _ in range(num_vars):
            solver.new_var()
        ok = True
        for clause in clauses:
            ok = solver.add_clause(clause) and ok
        assert (ok and solver.solve()) == _brute_force(num_vars, clauses)
