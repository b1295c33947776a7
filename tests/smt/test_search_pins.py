"""Search-order pins of the DPLL(T) solver, taken on the tree *before*
the order heap replaced the branching scan (commit 68a9f5e).

The branching rule is "highest activity, lowest variable number among
the unassigned"; how the solver finds that variable is an implementation
matter and must never show here.  Every counter and every model below is
a function of the decision sequence alone, so any drift means the order
changed — the solver is then *wrong* about its contract with the goldens
and certificates built on it, not merely slower or faster.
"""

import hashlib
import itertools
import json
import math

import pytest

from repro import experiments
from repro.core.constraints import build_constraints
from repro.core.probabilistic import expand_ect
from repro.core.reservation import prudent_reservation
from repro.smt import DlSmtSolver, diff_ge, var_ge, var_le

COUNTERS = (
    "conflicts", "decisions", "propagations", "theory_checks",
    "learned_clauses",
)


def _model_digest(model):
    return hashlib.sha256(
        json.dumps(sorted(model.items())).encode()
    ).hexdigest()


def _packing(jobs, horizon, gap):
    solver = DlSmtSolver()
    names = [f"j{i}" for i in range(jobs)]
    for name in names:
        solver.require(var_ge(name, 0))
        solver.require(var_le(name, horizon))
    for a, b in itertools.combinations(names, 2):
        solver.add_clause([diff_ge(a, b, gap), diff_ge(b, a, gap)])
    return solver


def _pool_instance(load, traffic_seed):
    """The Eq. 1-7 formula of one pinned testbed instance, built the way
    ``schedule_smt`` builds it."""
    workload = experiments.testbed_workload(load, traffic_seed)
    streams = list(workload.tct_streams)
    for ect in workload.ect_streams:
        streams.extend(expand_ect(ect, workload.topology))
    plan = prudent_reservation(streams)
    return build_constraints(workload.topology, streams, plan).solver


def _counters(result):
    stats = result.solver_stats.to_dict()
    return tuple(stats[key] for key in COUNTERS)


#: the two packings of ``bench/etsnbench/offline.py::PACKINGS``
PACKING_PINS = [
    ((30, 400, 10), (0, 720, 150, 930, 0),
     "2bd452850c066ca749915e5b9ae8a1725e29df482e495fdd6f08470d0e671da1"),
    ((5, 17, 5), (131, 220, 448, 659, 130), None),
]

#: three cheap instances of ``bench/etsnbench/offline.py::SMT_POOL``
POOL_PINS = [
    ((0.1, 10), (20, 500, 404, 1053, 20),
     "1a5cc0005b3e98a37ce6223734e2980cc6989289c446d8b34df692b3d2ce9b42"),
    ((0.1, 1), (32, 755, 651, 1566, 32),
     "3297e22315debc400ae094638d119f35b0a82ddf07f5c6567a58faf5660163b8"),
    ((0.25, 6), (18, 748, 541, 1601, 18),
     "5bf5210ac916fc4686470378952dd9b26aa2e1fb1c8b2c6254f5ad4bf2c574f1"),
]


@pytest.mark.parametrize("shape, counters, digest", PACKING_PINS)
def test_packing_search_is_pinned(shape, counters, digest):
    result = _packing(*shape).check()
    assert _counters(result) == counters
    assert result.sat == (digest is not None)
    if result.sat:
        assert _model_digest(result.model) == digest


@pytest.mark.parametrize("instance, counters, digest", POOL_PINS)
def test_pool_instance_search_is_pinned(instance, counters, digest):
    result = _pool_instance(*instance).check()
    assert result.sat
    assert _counters(result) == counters
    assert _model_digest(result.model) == digest


class _CountingList(list):
    """A list that counts element reads — the work meter for the
    branching rule, independent of the wall clock."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return list.__getitem__(self, index)


@pytest.mark.parametrize("shape", [(30, 400, 10), (60, 800, 10)])
def test_activity_reads_per_decision_are_logarithmic(shape):
    """Choosing the branching variable may read ``O(log vars)``
    activities, re-inserting a back-jumped variable likewise; a scan of
    the activity array on every decision reads ``O(vars)`` and fails
    this by an order of magnitude."""
    solver = _packing(*shape)
    sat = solver._sat
    sat._activity = _CountingList(sat._activity)
    result = solver.check()
    assert result.sat
    decisions = result.solver_stats.decisions
    assert decisions > 0
    per_decision = sat._activity.reads / decisions
    assert per_decision <= 6 * math.log2(sat._num_vars), (
        f"{per_decision:.0f} activity reads per decision "
        f"over {sat._num_vars} variables"
    )
