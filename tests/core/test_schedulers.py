"""Scheduler backend tests: SMT and heuristic must both produce valid
schedules, agree on feasibility, and realize the paper's Fig. 6 features."""

import hashlib
import json

import pytest

from repro.core import heuristic, incremental
from repro.core.heuristic import schedule_heuristic
from repro.core.schedule import InfeasibleError, validate
from repro.core.smt_scheduler import schedule_smt
from repro.experiments import simulation_workload
from repro.model.stream import EctStream, Priorities, Stream, StreamType
from repro.model.units import milliseconds
from tests.conftest import MTU_WIRE_NS

BACKENDS = [schedule_smt, schedule_heuristic]


def _tct(topo, name, src, dst, share=False, length=1500, period=None, e2e=None):
    period = period or milliseconds(4)
    priority = Priorities.SH_PL if share else Priorities.NSH_PL
    return Stream(
        name=name, path=tuple(topo.shortest_path(src, dst)),
        e2e_ns=e2e or period, priority=priority, length_bytes=length,
        period_ns=period, share=share,
    )


@pytest.mark.parametrize("backend", BACKENDS, ids=["smt", "heuristic"])
class TestBothBackends:
    def test_single_stream(self, star_topology, backend):
        s = _tct(star_topology, "t1", "D1", "D3")
        schedule = backend(star_topology, [s])
        validate(schedule)
        assert schedule.scheduled_latency_ns("t1") <= s.e2e_ns

    def test_two_streams_share_a_link(self, star_topology, backend):
        a = _tct(star_topology, "a", "D1", "D3")
        b = _tct(star_topology, "b", "D2", "D3")
        schedule = backend(star_topology, [a, b])
        validate(schedule)

    def test_paper_example_schedules(self, paper_example, backend):
        topo, s1, s2 = paper_example
        schedule = backend(topo, [s1], [s2])
        validate(schedule)
        # 5 possibilities + the TCT stream
        assert len(schedule.streams) == 6
        # prudent reservation added at least one extra on the shared link
        extras = [s for s in schedule.link_slots(("SW1", "D3")) if s.extra]
        assert extras

    def test_possibilities_meet_their_budgets(self, paper_example, backend):
        topo, s1, s2 = paper_example
        schedule = backend(topo, [s1], [s2])
        for ps in schedule.probabilistic_streams():
            assert schedule.scheduled_latency_ns(ps.name) <= ps.e2e_ns

    def test_superposition_slots_exist(self, paper_example, backend):
        """E-TSN's defining relaxation: some probabilistic slot shares its
        time with another slot on the link (a sibling possibility or a
        shared TCT slot) — which classical Qbv scheduling would forbid."""
        from repro.core.schedule import periodic_overlap

        topo, s1, s2 = paper_example
        schedule = backend(topo, [s1], [s2])
        slots = schedule.link_slots(("SW1", "D3"))
        prob_slots = [s for s in slots if s.stream.startswith("s2#")]
        assert prob_slots
        overlapping = 0
        for p in prob_slots:
            for other in slots:
                if other is p:
                    continue
                if periodic_overlap(
                    p.offset_ns, p.duration_ns, p.period_ns,
                    other.offset_ns, other.duration_ns, other.period_ns,
                ):
                    overlapping += 1
                    break
        assert overlapping > 0

    def test_infeasible_when_link_overcommitted(self, star_topology, backend):
        # two streams, each needing >half the period on the same link
        period = 2 * MTU_WIRE_NS + 1000
        a = _tct(star_topology, "a", "D1", "D3", length=2 * 1500, period=period)
        b = _tct(star_topology, "b", "D2", "D3", length=2 * 1500, period=period)
        with pytest.raises(InfeasibleError):
            backend(star_topology, [a, b])

    def test_infeasible_tight_deadline(self, two_switch_topology, backend):
        # e2e below the unavoidable 3-hop store-and-forward time
        s = _tct(two_switch_topology, "t", "D1", "D4",
                 e2e=2 * MTU_WIRE_NS, period=milliseconds(4))
        with pytest.raises(InfeasibleError):
            backend(two_switch_topology, [s])

    def test_multihop_pipeline(self, two_switch_topology, backend):
        s = _tct(two_switch_topology, "t", "D1", "D4", length=2 * 1500)
        schedule = backend(two_switch_topology, [s])
        validate(schedule)
        # store-and-forward: at least 3 hops of full wire time
        assert schedule.scheduled_latency_ns("t") >= 3 * MTU_WIRE_NS

    def test_mixed_periods(self, star_topology, backend):
        a = _tct(star_topology, "a", "D1", "D3", period=milliseconds(4))
        b = _tct(star_topology, "b", "D2", "D3", period=milliseconds(8))
        c = _tct(star_topology, "c", "D1", "D2", period=milliseconds(16))
        schedule = backend(star_topology, [a, b, c])
        validate(schedule)
        assert schedule.hyperperiod_ns == milliseconds(16)

    def test_ect_only_no_tct(self, star_topology, backend):
        ect = EctStream("e", "D2", "D3", min_interevent_ns=milliseconds(16),
                        length_bytes=1500, possibilities=4)
        schedule = backend(star_topology, [], [ect])
        validate(schedule)
        assert len(schedule.probabilistic_streams()) == 4

    def test_meta_backend_tag(self, star_topology, backend):
        s = _tct(star_topology, "t1", "D1", "D3")
        schedule = backend(star_topology, [s])
        assert schedule.meta["backend"] in ("smt", "heuristic")


class TestBackendAgreement:
    """Feasibility verdicts of the two backends must agree."""

    def test_agree_on_feasible_paper_example(self, paper_example):
        topo, s1, s2 = paper_example
        a = schedule_smt(topo, [s1], [s2])
        b = schedule_heuristic(topo, [s1], [s2])
        validate(a)
        validate(b)

    def test_agree_on_borderline_packing(self, star_topology):
        # five MTU streams through SW1->D3, one frame-slot of slack for
        # the store-and-forward pipeline: tight but feasible
        period = 6 * MTU_WIRE_NS
        streams = [
            _tct(star_topology, f"s{i}", "D1" if i % 2 else "D2", "D3",
                 period=period)
            for i in range(5)
        ]
        a = schedule_smt(star_topology, streams)
        b = schedule_heuristic(star_topology, streams)
        validate(a)
        validate(b)

    def test_agree_on_infeasible_packing(self, star_topology):
        # six MTU streams exactly tile the period on SW1->D3, leaving no
        # room for the first hop to precede: infeasible for both
        period = 6 * MTU_WIRE_NS
        streams = [
            _tct(star_topology, f"s{i}", "D1" if i % 2 else "D2", "D3",
                 period=period)
            for i in range(6)
        ]
        with pytest.raises(InfeasibleError):
            schedule_smt(star_topology, streams)
        with pytest.raises(InfeasibleError):
            schedule_heuristic(star_topology, streams)


class TestScheduleModel:
    def test_stream_lookup(self, star_topology):
        s = _tct(star_topology, "t1", "D1", "D3")
        schedule = schedule_heuristic(star_topology, [s])
        assert schedule.stream("t1").name == "t1"
        with pytest.raises(KeyError):
            schedule.stream("nope")

    def test_link_slots_sorted(self, paper_example):
        topo, s1, s2 = paper_example
        schedule = schedule_heuristic(topo, [s1], [s2])
        slots = schedule.link_slots(("SW1", "D3"))
        assert slots == sorted(slots, key=lambda f: (f.offset_ns, f.stream, f.index))

    def test_describe_contains_streams(self, paper_example):
        topo, s1, s2 = paper_example
        schedule = schedule_heuristic(topo, [s1], [s2])
        text = schedule.describe()
        assert "s1" in text and "s2#ps1" in text and "extra" in text


#: ``schedule_heuristic``'s reject of ``simulation_workload(0.9, seed)``
#: at its default budget: each instance uses up all 92 restarts
SPENT_BUDGET_REJECTS = {
    1: "tct29: frame 5 lower bound 19985160 beyond window max 19948560 "
       "on ('SW4', 'D11')",
    3: "tct20: frame 3 lower bound 9954440 beyond window max 9876960 "
       "on ('SW2', 'SW3')",
    5: "tct31: frame 3 lower bound 4882840 beyond window max 4882640 "
       "on ('SW2', 'SW3')",
    8: "tct5: frame 4 lower bound 4953940 beyond window max 4892160 "
       "on ('SW3', 'SW4')",
    9: "tct22: frame 3 lower bound 9985160 beyond window max 9876960 "
       "on ('SW2', 'SW3')",
}
#: SHA-256 of the slot table, in table order, of the tied pair whose
#: one restart promotes ``c`` (``_tied(..., "c")``, ``max_restarts=1``)
PROMOTED_SLOTS = (
    "f04f8128fd197c4bbe536aed11b22297a41949591be3606bc8cf94be99d72eed"
)


def _slot_digest(schedule):
    table = [[list(slot) for slot in slots] for slots in schedule.slots.values()]
    return hashlib.sha256(json.dumps(table).encode()).hexdigest()


class TestHeuristicOrderAndVerdictText:
    """The re-solve's placement order breaks ``(period, e2e)`` ties by
    name, and its reject says how many restarts ran and why it stopped.
    The texts and slots pinned here were recorded before the restart
    loop and the online repair came to share one placement loop."""

    def _tied(self, topo, first):
        # D1->D3 and D2->D3 meet on SW1->D3: the short frame placed
        # first leaves room for the long one inside 250 us, not the
        # other way round
        period = 250_000
        return [_tct(topo, first, "D1", "D3", length=800, period=period),
                _tct(topo, "b", "D2", "D3", length=1200, period=period)]

    def test_one_pass_verdict_depends_on_the_name_tie_break(
        self, star_topology
    ):
        validate(schedule_heuristic(
            star_topology, self._tied(star_topology, "a"), max_restarts=0
        ))
        with pytest.raises(InfeasibleError,
                           match="the budget of 0 restarts ran out"):
            schedule_heuristic(
                star_topology, self._tied(star_topology, "c"),
                max_restarts=0,
            )
        # a restart promotes the stream that failed, and then it fits
        promoted = schedule_heuristic(
            star_topology, self._tied(star_topology, "c"), max_restarts=1
        )
        validate(promoted)
        assert _slot_digest(promoted) == PROMOTED_SLOTS

    def test_reject_reports_the_restarts_that_ran(self, star_topology):
        hog = _tct(star_topology, "hog", "D1", "D3", length=80 * 1500,
                   period=milliseconds(5))
        with pytest.raises(InfeasibleError) as info:
            schedule_heuristic(star_topology, [hog], max_restarts=128)
        message = str(info.value)
        assert "stopped after 0 of 128 restarts: hog failed at the head" \
            in message
        assert "after 128 restarts" not in message

    @pytest.mark.parametrize("seed", sorted(SPENT_BUDGET_REJECTS))
    def test_a_spent_budget_names_the_last_failure(self, seed):
        workload = simulation_workload(0.9, seed)
        with pytest.raises(InfeasibleError) as info:
            schedule_heuristic(
                workload.topology, workload.tct_streams,
                workload.ect_streams,
            )
        assert str(info.value) == (
            "heuristic scheduler: could not place all 44 streams; the "
            "budget of 92 restarts ran out (last failure: "
            f"{SPENT_BUDGET_REJECTS[seed]})"
        )

    def test_a_spent_budget_takes_no_stream_cut(self, monkeypatch):
        """The stream cut is the online repair's failure witness; a
        restart only needs the name of the stream that failed."""
        cuts = []

        def counting(*args):
            cuts.append(args[0].name)
            return ()

        for module in (heuristic, incremental):
            monkeypatch.setattr(module, "_stream_cut", counting)
        workload = simulation_workload(0.9, 1)
        with pytest.raises(InfeasibleError, match="92 restarts ran out"):
            schedule_heuristic(
                workload.topology, workload.tct_streams,
                workload.ect_streams,
            )
        assert cuts == []
