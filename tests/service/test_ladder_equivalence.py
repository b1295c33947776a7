"""The one-ladder refactor changed no deterministic behaviour.

The digests and per-decision strings below were recorded at the parent
commit (fast path + incremental/full/heuristic rungs, ``_race_rungs``
present) *before* ``src/`` was touched: SHA-256 of the canonical JSON of
``schedule_to_dict(service.store.schedule)`` after two scripted runs.
One letter per decision: ``f`` accepted by the constructive rung, ``F``
by the full re-solve, ``h`` by the heuristic rung, ``x`` rejected.

The ``full`` rung now repairs the batch's ring before it re-solves the
whole network, which moves other slots than the whole re-solve did, so
``LADDER_DIGEST``, ``LADDER_DECISIONS`` and the ladder's counters were
re-recorded after that change, again after the ring started from the
link where the admit's own earliest-fit failed (9a6ab19 is its
parent), again after the first ring became the streams that blocked
the admit there (5def10f is its parent), and again after it became
the admit's gap cut (d75e877 is its parent), and again when the gap
chain, grown by the stream cut where a failure names no gap cut,
became the only ring before the whole re-solve (f40bcfb is its
parent): each change moves other streams, which moves the schedule
later climbs start from.  What none
may move is a verdict: the ``*_VERDICTS`` pins, one SHA-256 over every
decision's ``(op, stream, accepted)``, were recorded at 9fc8fb9 (whole
re-solve only) before ``src/`` was touched, and pass on every commit
since.  ``python tests/service/test_ladder_equivalence.py`` prints
every pin below that a scripted run records, and the ladder's work
counts (streams placed per climb, moved per ``full`` accept).

The rest pins what the single rung driver owes: no replayed solver, the
heuristic rung as the SMT backend's fallback when the SMT search spends
its conflict budget, and a rung outcome that is a function of
(snapshot, request, budget) alone, decided on the caller's thread.
"""

import dataclasses
import hashlib
import json
import random
import sys
import threading
from pathlib import Path

if __name__ == "__main__":
    # run as a script: import ``repro`` and ``tests`` from this checkout
    _ROOT = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

import pytest

from repro.core import schedule_etsn
from repro.core.schedule import InfeasibleError, validate
from repro.experiments import line_of_rings, simulation_workload
from repro.experiments import testbed_workload as make_testbed_workload
from repro.frontend.cache import cacheable
from repro.model.stream import EctStream, Priorities, TctRequirement
from repro.model.units import milliseconds
from repro.serialization import schedule_to_dict
from repro.service import (
    RUNG_FASTPATH,
    RUNG_FULL,
    RUNG_HEURISTIC,
    AdmissionService,
    AdmitEct,
    AdmitTct,
    Remove,
    RungConfig,
    ScheduleStore,
    ServiceConfig,
    empty_schedule,
)
from repro.service import admission as admission_module
from repro.service import fastpath as fastpath_module
from tests.conftest import MTU_WIRE_NS

MIX_DIGEST = "0a6fd5aa46781f3dccc1c8c147bca78809f7313534390aaacb4b64629493423a"
MIX_DECISIONS = "f" * 35 + "x"
#: re-recorded after the ring started from the failing link, again
#: after it started from the admit's blockers, again after it started
#: from the admit's gap cut, and again when the gap chain became the
#: only ring (see the module docstring)
LADDER_DIGEST = "e6ad708e80c40519bb9651aaf91973d16cbff22bc571fc30dc86e040cccb7e28"
LADDER_DECISIONS = (
    "fffFffffffffffffFffffffffffffffffFfffffffffffFffFffFffffffffffFfffffff"
    "ffFfFffffFfFfFFffffffFffffFFffFfffffffffffffffffFfffffffffFfFfffffffff"
    "fFfffffffffffffffFffffffffFfffffFfffffffffffFffffffffFfffffffffFffFfff"
    "ffffffFffffffffffffffffffffffFFFffFffFfFfFfffffffffffffffFffffffffffff"
    "ffffffffffffffffffffffffffffffffffffffffffffFffffffffffffffffffffffFff"
    "fffFfFfffffffFfffffffffffffffFffffFfffffffffffffff"
)
#: recorded at 9fc8fb9, before the ring repair
LADDER_VERDICTS = (
    "7bd73af150632b862c4c04f8bc2b669a2c669b07ff6b2ee0de2a0471fe99d5c0"
)
#: the saturating ``LadderOps`` draw (target 400, seed 1, no warm-up):
#: verdict digest and 0-based indexes of the rejects, recorded at 9fc8fb9
SATURATING_VERDICTS = (
    "d800093b5c7814a2fb012451d67870f33bf819fdc8b9dcf19be343c2fc2229ed"
)
SATURATING_REJECTS = [
    193, 204, 206, 210, 214, 221, 223, 228, 255, 256, 259, 270, 274, 278,
    286, 289, 297, 301, 302, 303, 307, 313, 316, 326, 332, 344, 345, 351,
    359, 361, 384, 386, 387, 393, 403, 409, 411, 414, 423, 434, 442, 446,
    447, 449,
]
#: recorded at ebc3749, warm-start cache and rung retries still present;
#: without ``meta``, whose ``solver_stats`` lost the ``warm_lemmas`` key
SMT_LADDER_DIGEST = "ecf35569c2dfae7d79d631dad3f069fbad0b2f8763701c4734105a6b6835d770"
SMT_LADDER_DECISIONS = "fFfffffffffffffffffffffffffffffffffffFfffFfff"
#: seed -> (0-based indexes of the rejected operations, all others
#: accepted by the constructive rung; digest of the final schedule)
FASTPATH_PINS = {
    1: ([80, 95, 98, 131, 148, 159, 170, 187, 194, 205, 218, 307, 316, 349,
         360, 389],
        "0f939d468fea6e9584048db332546e1e5c7a6b23d73bc7c614e5f52d4d0c51b2"),
    7: ([128, 199, 250, 315, 320, 355, 364],
        "18d34585d59f22d2bfe92f0ef19ac8bb346eeca85ac060435ae6af212be3b01e"),
}
_LETTERS = {RUNG_FASTPATH: "f", RUNG_FULL: "F", RUNG_HEURISTIC: "h"}


def _tct(name, src="D1", dst="D3", period_ms=8, length=1500, share=False,
         period_ns=None, e2e_ns=None):
    return AdmitTct(TctRequirement(
        name=name, source=src, destination=dst,
        period_ns=period_ns or milliseconds(period_ms), e2e_ns=e2e_ns,
        length_bytes=length,
        priority=Priorities.SH_PL if share else Priorities.NSH_PH,
        share=share,
    ))


def _seeded_service(load):
    workload = simulation_workload(load, seed=1)
    base = schedule_etsn(workload.topology, workload.tct_streams,
                         workload.ect_streams)
    service = AdmissionService(
        ScheduleStore(base), ServiceConfig(heuristic_min_restarts=16)
    )
    return service, [d.name for d in workload.topology.devices]


def _ladder_ops(service, devices, target, seeds, operations, watch=None):
    """bench's ``LadderOps`` draw: random-pair admits, removes with
    probability ``live / (2 * target)``; ``seeds`` maps the 1-based
    operation count at which the generator is (re)seeded to its seed.
    ``watch(request, snapshot, decision)`` sees every operation with
    the schedule it was decided against."""
    live, decisions = [], []
    for count in range(1, operations + 1):
        if count in seeds:
            rng = random.Random(seeds[count])
        if live and rng.random() < len(live) / (2 * target):
            request = Remove(live[rng.randrange(len(live))])
        else:
            src, dst = rng.sample(devices, 2)
            request = _tct(
                f"a{count}", src, dst, rng.choice((5, 10, 20)),
                rng.randrange(200, 1501), rng.random() < 0.2,
            )
        snapshot = service.store.schedule
        decision = service.submit(request)
        if watch is not None:
            watch(request, snapshot, decision)
        decisions.append(decision)
        if decision.accepted and isinstance(request, Remove):
            live.remove(request.name)
        elif decision.accepted:
            live.append(request.stream_name)
    return decisions


def _letters(decisions):
    return "".join(
        _LETTERS[d.rung] if d.accepted else "x" for d in decisions
    )


def _verdicts(decisions):
    digest = hashlib.sha256()
    for d in decisions:
        digest.update(json.dumps([d.op, d.stream, d.accepted]).encode())
    return digest.hexdigest()


def _digest(service, meta=True):
    document = schedule_to_dict(service.store.schedule)
    if not meta:
        del document["meta"]
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _testbed_service(**config):
    """An SMT-backed service on the Fig. 10 testbed
    (``testbed_workload(0.25, 6)``) and its device names."""
    workload = make_testbed_workload(0.25, 6)
    base = schedule_etsn(workload.topology, workload.tct_streams,
                         workload.ect_streams)
    service = AdmissionService(
        ScheduleStore(base), ServiceConfig(backend="smt", **config)
    )
    return service, [d.name for d in workload.topology.devices]


def _fig13_mix():
    """The 36-decision mix of ``test_fig13_mix``: the service and its
    decisions."""
    service, devices = _seeded_service(0.25)
    n = len(devices)
    requests = []
    for i in range(24):
        requests.append(_tct(f"adm{i}", devices[i % n],
                             devices[(i + 5) % n], 10, 800))
        if i % 3 == 2:
            requests.append(Remove(f"adm{i - 1}"))
    for i in range(3):
        requests.append(_tct(f"share{i}", devices[(2 * i) % n],
                             devices[(2 * i + 7) % n], 20, 800, True))
    requests.append(_tct("hog", devices[0], devices[1], 5, 80 * 1500))
    return service, [service.submit(r) for r in requests]


def _first_400_ladder_ops():
    """The script of ``test_first_400_ladder_ops_at_seed_1``: the
    service and its decisions."""
    service, devices = _seeded_service(0.5)
    return service, _ladder_ops(service, devices, 60, {1: 0, 151: 1}, 400)


#: the rings a ``full`` climb may decide with, in the order it tries them
RINGS = ("none", "gap", "whole")


def _full_rings(decided):
    """Wrap ``AdmissionService._resolve`` so that ``decided`` gets the
    ``(ring, released)`` of every ``full`` rung, and
    ``_repair_ring`` so that a whole re-solve's entry also carries the
    text of the failure its chain ended on; returns the function that
    undoes both."""
    real_resolve = admission_module.AdmissionService._resolve
    real_ring = admission_module.AdmissionService._repair_ring
    ended = []

    def repair_ring(self, batch):
        try:
            return real_ring(self, batch)
        except InfeasibleError as exc:
            ended.append(str(exc))
            raise

    def resolve(self, batch, rung_name):
        ended.clear()
        try:
            return real_resolve(self, batch, rung_name)
        finally:
            if rung_name == RUNG_FULL and batch.ring is not None:
                decided.append(batch.ring + tuple(ended))

    admission_module.AdmissionService._resolve = resolve
    admission_module.AdmissionService._repair_ring = repair_ring

    def undo():
        admission_module.AdmissionService._resolve = real_resolve
        admission_module.AdmissionService._repair_ring = real_ring

    return undo


def _ladder_work(seed, operations):
    """Work counts of bench's ``LadderOps`` (150 warm-up operations at
    seed 0, then ``operations`` at ``seed``, steering towards 60 live
    streams) over the operations after the warm-up: climbs past the
    constructive rung, the streams each placed (every ``repair``
    placement, and the stream set of a whole re-solve), ``full``
    accepts, and the live streams each moved; ``rings`` maps each ring
    name to the climbs it decided (``ResolvedBatch.ring`` of the
    climb's ``full`` rung) and the live streams they released, and
    ``ended`` lists, per whole re-solve, the text of the failure the
    ring chain ended on."""
    placed = [0]
    counts = {"climbs": 0, "placed": 0, "full": 0, "moved": 0,
              "rings": {ring: [0, 0] for ring in RINGS}, "ended": []}
    watched = [0]
    decided = []
    real_repair = fastpath_module.repair
    real_whole = admission_module.schedule_heuristic

    def repair(schedule, place, *args, **kwargs):
        placed[0] += len(place)
        return real_repair(schedule, place, *args, **kwargs)

    def whole(topology, tct, ects=(), **kwargs):
        placed[0] += len(tct) + sum(e.possibilities for e in ects)
        return real_whole(topology, tct, ects, **kwargs)

    def watch(request, snapshot, decision):
        watched[0] += 1
        if watched[0] > 150 and (
            decision.rung == RUNG_FULL or RUNG_FULL in decision.attempts
        ):
            counts["climbs"] += 1
            counts["placed"] += placed[0]
            for ring, released, *ended in decided:
                counts["rings"][ring][0] += 1
                counts["rings"][ring][1] += released
                counts["ended"].extend(ended)
            if decision.accepted and decision.rung == RUNG_FULL:
                after = service.store.schedule
                counts["full"] += 1
                counts["moved"] += len({
                    name for (name, link), slots in snapshot.slots.items()
                    if name in after.streams_by_name
                    and after.slots[(name, link)] != slots
                })
        placed[0] = 0
        decided.clear()

    fastpath_module.repair = repair
    admission_module.schedule_heuristic = whole
    undo = _full_rings(decided)
    try:
        service, devices = _seeded_service(0.5)
        _ladder_ops(service, devices, 60, {1: 0, 151: seed},
                    150 + operations, watch)
    finally:
        fastpath_module.repair = real_repair
        admission_module.schedule_heuristic = real_whole
        undo()
    return counts


def _saturating_ops(watch=None):
    """The ``LadderOps`` draw at seed 1 steering towards 400 live
    streams, no warm-up (about a minute)."""
    service, devices = _seeded_service(0.5)
    return service, _ladder_ops(service, devices, 400, {1: 1}, 450, watch)


class TestPinnedToParent:
    def test_fig13_mix(self):
        """A 36-decision mix on the seeded Fig. 13 network: 24 admits
        with a remove after every third, three sharing admits and one
        infeasible hog — 35 fast-path accepts and one reject."""
        service, decisions = _fig13_mix()
        assert _letters(decisions) == MIX_DECISIONS
        assert _digest(service) == MIX_DIGEST

    def test_first_400_ladder_ops_at_seed_1(self):
        """bench's ``LadderOps`` script: 150 warm-up operations drawn at
        seed 0, then seed 1, steering towards 60 live admitted streams.
        Every ``full`` climb decides with ring 0, the gap chain or the
        whole re-solve."""
        decided = []
        undo = _full_rings(decided)
        try:
            service, decisions = _first_400_ladder_ops()
        finally:
            undo()
        assert _verdicts(decisions) == LADDER_VERDICTS
        assert _letters(decisions) == LADDER_DECISIONS
        assert _digest(service) == LADDER_DIGEST
        counters = service.metrics.to_dict()["counters"]
        assert counters["fastpath.fallthroughs"] == 44
        assert counters["rungs.full.attempts"] == 44
        assert len(decided) == 44
        assert {ring for ring, *_ in decided} <= set(RINGS)
        validate(service.store.schedule)

    def test_saturating_ladder_ops_keep_their_verdicts(self, saturated_run):
        """The ``LadderOps`` draw at seed 1 steering towards 400 live
        streams, no warm-up: the network saturates and 44 operations
        are rejected; ``full`` places 97 admits at 9fc8fb9, 101 with
        the ring repair."""
        decisions = saturated_run["decisions"]
        assert [i for i, d in enumerate(decisions)
                if not d.accepted] == SATURATING_REJECTS
        assert _verdicts(decisions) == SATURATING_VERDICTS
        assert sum(d.accepted and d.op != "remove"
                   for d in decisions) == 313
        validate(saturated_run["service"].store.schedule)

    def test_first_45_smt_ladder_ops_at_seed_7(self):
        """The ``LadderOps`` draw at seed 7 on the Fig. 10 testbed
        (``testbed_workload(0.25, 6)``), steering towards 14 live
        streams, with the SMT backend under the ``full`` rung: the 2nd,
        38th and 42nd operations defeat earliest-fit and are placed by
        one cold DPLL(T) solve each."""
        service, devices = _testbed_service()
        decisions = _ladder_ops(service, devices, 14, {1: 7}, 45)
        assert _letters(decisions) == SMT_LADDER_DECISIONS
        assert _digest(service, meta=False) == SMT_LADDER_DIGEST
        counters = service.metrics.to_dict()["counters"]
        assert counters["rungs.full.attempts"] == 3
        # the 42nd operation's search, as the published snapshot kept it
        stats = service.store.schedule.meta["solver_stats"]
        assert (stats["conflicts"], stats["decisions"],
                stats["theory_checks"]) == (461, 354804, 419871)
        validate(service.store.schedule)

    @pytest.mark.parametrize("seed", sorted(FASTPATH_PINS))
    def test_first_400_fastpath_ops(self, seed):
        """bench's ``FastpathOps`` script on ``line_of_rings(4, 4, 2)``,
        steering towards 60 live streams: grow, then remove / admit in
        turn; 5 % of the churn admits are ECT streams, each removed by
        the next operation, 5 % carry a 1 ns deadline.  Recorded before
        prudent reservation went local to the streams an edit places."""
        topology = line_of_rings(4, 4, 2)
        rings = [[d.name for d in topology.devices
                  if d.name.startswith(f"R{ring}S")] for ring in range(4)]
        service = AdmissionService(
            ScheduleStore(empty_schedule(topology)),
            ServiceConfig(rungs=(RungConfig(RUNG_FASTPATH),)),
        )
        rng = random.Random(seed)
        live, live_ect, decisions = [], [], []
        grown, remove_next = 0, True

        def tct(name, e2e_ns=None):
            src, dst = rng.sample(rng.choice(rings), 2)
            return _tct(name, src, dst, rng.choice((4, 8, 16)),
                        rng.randrange(100, 801), rng.random() < 0.15,
                        e2e_ns=e2e_ns)

        def ect(name):
            src, dst = rng.sample(rng.choice(rings), 2)
            return AdmitEct(EctStream(
                name=name, source=src, destination=dst,
                min_interevent_ns=milliseconds(16),
                length_bytes=rng.randrange(100, 801), possibilities=4,
            ))

        for count in range(1, 401):
            growing = len(live) < 60 and grown < 180
            if growing:
                grown += 1
                request = tct(f"g{count}")
            elif remove_next:
                request = Remove(live_ect[0] if live_ect
                                 else live[rng.randrange(len(live))])
            else:
                draw = rng.random()
                if draw < 0.05:
                    request = ect(f"c{count}")
                else:
                    request = tct(f"c{count}", 1 if draw < 0.10 else None)
            if not growing:
                remove_next = not remove_next
            decision = service.submit(request)
            decisions.append(decision)
            if not decision.accepted:
                continue
            if isinstance(request, Remove):
                live.remove(request.name)
                if request.name in live_ect:
                    live_ect.remove(request.name)
            else:
                live.append(request.stream_name)
                if isinstance(request, AdmitEct):
                    live_ect.append(request.stream_name)
        rejected, digest = FASTPATH_PINS[seed]
        assert _letters(decisions) == "".join(
            "x" if i in rejected else "f" for i in range(400)
        )
        assert _digest(service) == digest
        validate(service.store.schedule)


@pytest.fixture(scope="module")
def saturated_run():
    """One pass of the saturating script (about a minute), shared by
    its verdict pin and the cache case replayed from it."""
    run = {}

    def watch(request, snapshot, decision):
        if request.stream_name == "a257":
            run["a257"] = (request, snapshot, decision)

    run["service"], run["decisions"] = _saturating_ops(watch)
    return run


def test_a_reject_that_climbed_full_depends_on_the_name(saturated_run):
    """Operation 256 (``a257``) of the saturating script is rejected
    after climbing ``full``; the same requirement under a name that
    sorts first is accepted on the same snapshot.  Such a reject must
    not be replayed for a same-shaped request by the frontend cache."""
    service = saturated_run["service"]
    request, snapshot, decision = saturated_run["a257"]
    assert not decision.accepted and RUNG_FULL in decision.attempts
    twin = AdmitTct(dataclasses.replace(request.requirement, name="0a257"))
    # a fresh service over a store seeded with the snapshot
    fresh = AdmissionService(
        ScheduleStore(snapshot), ServiceConfig(heuristic_min_restarts=16)
    )
    outcome = fresh.submit(twin)
    assert outcome.accepted and outcome.rung == RUNG_FULL
    assert not cacheable(decision)


def test_a_full_accept_moves_few_live_streams():
    """A guard on the gap chain that holds on any box: over 1000
    operations of bench's ``LadderOps`` draw at seed 1, a ``full``
    accept moves 6.55 live streams on average (7.00 while the blocker,
    looser and route rings followed the gap chain, 12.23 while the
    blocker ring came first), and the gap chain decides 65 of the 67
    climbs."""
    counts = _ladder_work(1, 1000)
    assert counts["full"] > 0
    assert counts["moved"] / counts["full"] <= 9
    rings = counts["rings"]
    assert rings["gap"][0] > counts["climbs"] / 2


class TestSolverCounters:
    def test_counters_sum_the_solves_that_ran(self, monkeypatch):
        """The first five ``LadderOps`` at seed 7 on the Fig. 10
        testbed: the 2nd climbs to one certified SMT solve, the three
        after it are constructive accepts of a snapshot whose ``meta``
        still carries that solve's stats and certificate — which must
        not be counted again."""
        ran = []
        real = admission_module.schedule_etsn

        def recorded(*args, **kwargs):
            result = real(*args, **kwargs)
            ran.append(result.meta)
            return result

        monkeypatch.setattr(admission_module, "schedule_etsn", recorded)
        service, devices = _testbed_service(certify=True, rungs=(
            RungConfig(RUNG_FASTPATH), RungConfig(RUNG_FULL),
        ))
        decisions = _ladder_ops(service, devices, 14, {1: 7}, 5)
        assert _letters(decisions) == "fFfff"
        assert len(ran) == 1
        counters = service.metrics.to_dict()["counters"]
        assert counters["solver.decisions"] == sum(
            meta["solver_stats"]["decisions"] for meta in ran
        )
        assert counters["certificates.verified_sat"] == sum(
            bool(meta["certificate"]["verified"]) for meta in ran
        )


def _saturated(service):
    """Three seeds leave one free slot on SW1->D3; the probe's earliest
    fit there busts its deadline and no necessary condition trips, so
    the constructive rung is inconclusive and the climb goes on."""
    period = 4 * MTU_WIRE_NS
    for i in range(3):
        assert service.submit(_tct(f"s{i}", period_ns=period)).accepted
    return _tct("probe", src="D2", period_ns=period,
                e2e_ns=3 * MTU_WIRE_NS)


class TestNoReplayedSolver:
    def test_heuristic_backend_reject_never_runs_the_heuristic_rung(
        self, star_topology
    ):
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology))
        )
        decision = service.submit(_saturated(service))
        assert not decision.accepted
        assert decision.reason.startswith("all ladder rungs failed")
        assert set(decision.attempts) == {RUNG_FASTPATH, RUNG_FULL}
        counters = service.metrics.to_dict()["counters"]
        assert counters.get("rungs.heuristic.attempts", 0) == 0

    def test_heuristic_rung_decides_after_an_smt_budget_runs_out(
        self, monkeypatch
    ):
        """The 2nd ``LadderOps`` operation at seed 7 on the testbed
        needs 72 conflicts; at a budget of 50 the SMT ``full`` rung
        gives up without a verdict and the heuristic rung places it."""
        monkeypatch.setattr(admission_module, "_SMT_MAX_CONFLICTS", 50)
        service, devices = _testbed_service()
        decision = _ladder_ops(service, devices, 14, {1: 7}, 2)[1]
        assert decision.accepted
        assert decision.rung == RUNG_HEURISTIC
        assert decision.attempts[RUNG_FULL].endswith(
            "the budget of 50 conflicts ran out"
        )
        counters = service.metrics.to_dict()["counters"]
        assert counters["rungs.full.failures"] == 1


class TestWorkBudget:
    """A re-solve rung counts work, not seconds: its outcome is a
    function of (snapshot, request, budget), decided on the caller's
    thread."""

    def test_a_budget_exhausting_script_replays_exactly(self, monkeypatch):
        monkeypatch.setattr(admission_module, "_SMT_MAX_CONFLICTS", 50)
        runs = []
        for _ in range(2):
            service, devices = _testbed_service()
            runs.append([
                dataclasses.replace(decision, latency_ms=0.0)
                for decision in _ladder_ops(service, devices, 14, {1: 7}, 5)
            ])
        assert sum("conflicts ran out" in d.attempts.get(RUNG_FULL, "")
                   for d in runs[0]) == 2
        assert runs[0] == runs[1]

    def test_a_spent_budget_is_never_certified(self, monkeypatch):
        monkeypatch.setattr(admission_module, "_SMT_MAX_CONFLICTS", 0)
        raised = []
        real = admission_module.schedule_etsn

        def recorded(*args, **kwargs):
            try:
                return real(*args, **kwargs)
            except InfeasibleError as exc:
                raised.append(type(exc))
                raise

        monkeypatch.setattr(admission_module, "schedule_etsn", recorded)
        service, devices = _testbed_service(certify=True)
        decision = _ladder_ops(service, devices, 14, {1: 7}, 2)[1]
        assert decision.rung == RUNG_HEURISTIC
        assert raised == [InfeasibleError]
        assert "proof" not in decision.attempts[RUNG_FULL]
        counters = service.metrics.to_dict()["counters"]
        assert "certificates.verified_unsat" not in counters

    def test_full_climbs_run_on_the_callers_thread(
        self, star_topology, monkeypatch
    ):
        ran = []
        for name in ("schedule_heuristic", "schedule_etsn"):
            def recorded(*args, _name=name,
                         _real=getattr(admission_module, name), **kwargs):
                ran.append((_name, threading.get_ident()))
                return _real(*args, **kwargs)

            monkeypatch.setattr(admission_module, name, recorded)
        threads = threading.active_count()
        heuristic = AdmissionService(
            ScheduleStore(empty_schedule(star_topology))
        )
        assert not heuristic.submit(_saturated(heuristic)).accepted
        smt, devices = _testbed_service()
        assert _ladder_ops(smt, devices, 14, {1: 7}, 2)[1].rung == RUNG_FULL
        assert set(ran) == {
            ("schedule_heuristic", threading.get_ident()),
            ("schedule_etsn", threading.get_ident()),
        }
        assert threading.active_count() == threads


class TestRungValidation:
    @pytest.mark.parametrize("rungs", [
        (),
        (RungConfig("ful"),),
        (RungConfig(RUNG_FULL), RungConfig(RUNG_FULL)),
        (RungConfig(RUNG_FULL), RungConfig(RUNG_FASTPATH)),
    ])
    def test_unknown_or_empty_ladder_is_a_config_error(
        self, star_topology, rungs
    ):
        with pytest.raises(ValueError, match="ServiceConfig.rungs"):
            AdmissionService(
                ScheduleStore(empty_schedule(star_topology)),
                config=ServiceConfig(rungs=rungs),
            )


if __name__ == "__main__":
    # prints every pin the scripts above record, in the form they are
    # written in (the saturating script takes about a minute), then the
    # ladder's work counts at seeds 1, 7 and 42 over as many operations
    # after the warm-up as the first argument says (default 250): per
    # seed the climbs, per ring the climbs it decided and the mean live
    # streams it released, and for each whole re-solve the failure the
    # ring chain ended on
    service, decisions = _fig13_mix()
    print("MIX_DIGEST", _digest(service))
    print("MIX_DECISIONS", _letters(decisions))
    service, decisions = _first_400_ladder_ops()
    counters = service.metrics.to_dict()["counters"]
    print("LADDER_DIGEST", _digest(service))
    print("LADDER_DECISIONS", _letters(decisions))
    print("LADDER_VERDICTS", _verdicts(decisions))
    for name in ("fastpath.fallthroughs", "rungs.full.attempts"):
        print(name, counters[name])
    _, decisions = _saturating_ops()
    print("SATURATING_VERDICTS", _verdicts(decisions))
    print("SATURATING_REJECTS",
          [i for i, d in enumerate(decisions) if not d.accepted])
    print("saturating admits accepted",
          sum(d.accepted and d.op != "remove" for d in decisions))
    operations = int(sys.argv[1]) if len(sys.argv) > 1 else 250
    for seed in (1, 7, 42):
        counts = _ladder_work(seed, operations)
        climbs, full = max(counts["climbs"], 1), max(counts["full"], 1)
        print(f"seed {seed}: {operations} operations, {counts['climbs']} "
              f"climbs placing {counts['placed'] / climbs:.2f} streams "
              f"each, {counts['full']} full accepts moving "
              f"{counts['moved'] / full:.2f} live streams each")
        print("  decided by ring: " + ", ".join(
            f"{ring} {decided} ({released / max(decided, 1):.2f} released)"
            for ring, (decided, released) in counts["rings"].items()
        ))
        for text in counts["ended"]:
            print(f"  whole re-solve after: {text}")
