"""Randomized push/backtrack stress for the incremental DL theory.

Interleaves assertions and backtracks, continuously cross-checking the
incremental solver against a from-scratch Bellman-Ford over the active
constraint set — the invariant DPLL(T) relies on during backjumping.
"""

import random

import pytest

from repro.smt import DlSmtSolver
from repro.smt.terms import Atom
from repro.smt.theory import DifferenceLogic


def _bf_feasible(atoms):
    names = sorted({n for a in atoms for n in (a.x, a.y)})
    dist = {n: 0 for n in names}
    for _ in range(len(names) + 1):
        changed = False
        for atom in atoms:
            candidate = dist[atom.y] + atom.c
            if candidate < dist[atom.x]:
                dist[atom.x] = candidate
                changed = True
        if not changed:
            return True
    return False


@pytest.mark.parametrize("seed", range(8))
def test_interleaved_assert_backtrack(seed):
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(6)]
    dl = DifferenceLogic()
    active = []  # mirrors the assertion stack

    for step in range(400):
        if active and rng.random() < 0.3:
            depth = rng.randint(0, len(active))
            dl.backtrack_to(depth)
            del active[depth:]
            continue
        a, b = rng.sample(names, 2)
        atom = Atom(a, b, rng.randint(-5, 8))
        conflict = dl.assert_atom(atom, token=step)
        if conflict is None:
            active.append(atom)
            assert _bf_feasible(active), f"accepted an infeasible set @step {step}"
        else:
            assert not _bf_feasible(active + [atom]), (
                f"rejected a feasible extension @step {step}"
            )
        if step % 25 == 0 and active:
            model = dl.model()
            for item in active:
                assert item.holds(model), (step, item, model)
            assert dl.check_full()

    # final state coherent
    assert dl.num_asserted == len(active)
    if active:
        model = dl.model()
        assert all(a.holds(model) for a in active)


class _DepthAudit:
    """Stands between the SAT core and the difference-logic adapter and
    checks, at every call, the invariant the adapter's ``on_backtrack``
    rests on: the theory's assertion stack is exactly as deep as the
    core's list of forwarded literals."""

    def __init__(self, solver):
        self._inner = solver._adapter
        self._sat = solver._sat
        self._dl = solver._dl
        self.calls = 0
        solver._sat._theory = self

    def _check(self):
        self.calls += 1
        assert self._dl.num_asserted == len(self._sat._theory_trail)

    def relevant(self, var):
        return self._inner.relevant(var)

    def on_assign(self, lit):
        self._check()
        return self._inner.on_assign(lit)

    def on_backtrack(self, num_assigned):
        self._inner.on_backtrack(num_assigned)
        assert num_assigned == self._dl.num_asserted
        self._check()


@pytest.mark.parametrize("seed", range(12))
def test_theory_depth_tracks_the_sat_cores_forwarded_literals(seed):
    """Random disjunctive difference formulas (SAT and UNSAT alike)
    through the full DPLL(T) loop: whatever interleaving of assertions,
    theory conflicts, back-jumps and restarts the search produces,
    ``dl.num_asserted == len(_theory_trail)`` before every assertion,
    after every backtrack and at the end."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(7)]
    solver = DlSmtSolver()
    for _ in range(45):  # dozens of conflicts each; seeds 4, 6 are SAT
        clause = []
        for _ in range(rng.randint(2, 3)):
            a, b = rng.sample(names, 2)
            clause.append(Atom(a, b, rng.randint(-8, 3)))
        solver.add_clause(clause)
    audit = _DepthAudit(solver)
    result = solver.check()
    assert result.solver_stats.conflicts > 20
    assert audit.calls > result.solver_stats.conflicts
    assert solver._dl.num_asserted == len(solver._sat._theory_trail)
