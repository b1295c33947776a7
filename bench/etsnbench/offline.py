"""The two offline workloads: the paper pipeline on the Fig. 13 network
(``offline_fig13``) and the faithful SMT backend (``offline_smt``)."""

from __future__ import annotations

import itertools
import random
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.check.proof import verify_certificate
from repro.cnc.qcc import deployment_from_schedule
from repro.core import (
    InfeasibleError,
    audit_gcl,
    build_gcl,
    expand_ect,
    prudent_reservation,
    schedule_etsn,
    validate,
)
from repro.core.constraints import build_constraints
from repro.experiments import simulation_workload, testbed_workload
from repro.model.stream import StreamError
from repro.sim import SimConfig, TsnSimulation
from repro.smt import DlSmtSolver, diff_ge, var_ge, var_le

from etsnbench.core import (
    NO_SPAN,
    Outcome,
    SpanRecorder,
    closed_loop_bins,
    finish_traced,
    import_seconds,
    self_rss_mb,
    timed_setup,
)

# ----------------------------------------------------------------------
# offline_fig13
# ----------------------------------------------------------------------
#: the paper's three network loads (Figs. 14-16).
LOADS = (0.25, 0.5, 0.75)
#: simulated time of the short run that closes every pipeline.
PIPELINE_SIM_NS = 40_000_000
#: pipelines per traced run at ``--seconds 10`` (fixed, so that counts
#: and ``accept_frac`` repeat exactly for a seed).
TRACED_PIPELINES = 36
#: simulated milliseconds of each long simulation per ``--seconds``.
LONG_SIM_MS_PER_SECOND = 150


def _fig13_instances(seed: int) -> Iterator[Tuple[float, int]]:
    """The endless (load, traffic seed) stream of one benchmark seed."""
    rng = random.Random(seed)
    for index in itertools.count():
        yield LOADS[index % len(LOADS)], rng.randrange(1, 2 ** 31)


def _generate(load: float, traffic_seed: int):
    try:
        return simulation_workload(load, traffic_seed)
    except StreamError:
        # the drawn population cannot reach this load with any payload:
        # not an instance of the problem, draw the next one
        return None


def _ect_worst_ns(schedule, report, outcome: Outcome) -> int:
    """Worst simulated ECT latency, checked against the formal bound."""
    worst = 0
    for ect in schedule.ect_streams:
        latencies = report.recorder.latencies(ect.name)
        if not latencies:
            continue
        bound = schedule.ect_guarantee_ns(ect.name)
        worst = max(worst, max(latencies))
        outcome.check(
            max(latencies) <= bound,
            f"ECT {ect.name}: simulated {max(latencies)} ns exceeds the "
            f"guaranteed {bound} ns",
        )
    return worst


def _pipeline(workload, traffic_seed: int, outcome: Outcome,
              spans: Optional[SpanRecorder] = None):
    """One paper pipeline: schedule -> validate -> GCL -> audit -> a
    short simulation.  Returns the schedule, or ``None`` when the
    heuristic finds the instance unschedulable (a valid verdict)."""

    def stage(name: str):
        return spans.span(name) if spans is not None else NO_SPAN

    topology = workload.topology
    try:
        with stage("core.schedule_heuristic"):
            schedule = schedule_etsn(
                topology, workload.tct_streams, workload.ect_streams
            )
    except InfeasibleError:
        return None
    with stage("core.validate"):
        validate(schedule)
    with stage("core.build_gcl"):
        gcl = build_gcl(schedule, mode="etsn")
    with stage("core.audit_gcl"):
        audit_gcl(schedule, gcl)
    with stage("sim.build"):
        simulation = TsnSimulation(
            schedule, gcl,
            SimConfig(duration_ns=PIPELINE_SIM_NS, seed=traffic_seed),
        )
    with stage("sim.run"):
        report = simulation.run()
    _ect_worst_ns(schedule, report, outcome)
    return schedule


def _fig13_setup():
    """Everything before the first measured pipeline: one warm-up
    instance through every stage (fills the routing and ``may_overlap``
    caches a long-lived process would have)."""
    workload = simulation_workload(0.5, 1)
    _pipeline(workload, 1, Outcome())
    return workload


def _run_pipelines(seed: int, outcome: Outcome, seconds: Optional[float],
                   limit: Optional[int],
                   spans: Optional[SpanRecorder] = None):
    """Run pipelines for ``seconds`` or up to ``limit`` of them.

    Returns the walls of the pipelines that ran (an instance the
    heuristic finds unschedulable has no pipeline: it costs ten times a
    schedulable one and is counted in ``accept_frac``, not timed), the
    number of instances tried, and one schedule per load (the first
    schedulable instance of each)."""
    walls: List[float] = []
    instances = 0
    kept: Dict[float, object] = {}
    spent = 0.0
    for load, traffic_seed in _fig13_instances(seed):
        if limit is not None and instances >= limit:
            break
        if seconds is not None and spent >= seconds:
            break
        if spans is not None:
            spans.next_op()
            with spans.span("op"):
                started = time.perf_counter()
                with spans.span("traffic.generate"):
                    workload = _generate(load, traffic_seed)
                if workload is None:
                    continue
                schedule = _run_one(workload, traffic_seed, outcome, spans)
                wall = time.perf_counter() - started
        else:
            workload = _generate(load, traffic_seed)
            if workload is None:
                continue
            started = time.perf_counter()
            schedule = _run_one(workload, traffic_seed, outcome, None)
            wall = time.perf_counter() - started
        spent += wall
        instances += 1
        if schedule is not None:
            walls.append(wall)
            kept.setdefault(load, schedule)
    return walls, instances, kept


def _run_one(workload, traffic_seed, outcome, spans):
    outcome.attempted += 1
    try:
        return _pipeline(workload, traffic_seed, outcome, spans)
    except Exception as exc:  # noqa: BLE001 - any stage failing is a failed op
        outcome.failed += 1
        outcome.problems.append(
            f"pipeline (traffic seed {traffic_seed}) failed: "
            f"{type(exc).__name__}: {exc}"
        )
        return None


def offline_fig13(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    if not trace:
        import_s = import_seconds(["repro", "repro.experiments"])
        _, setup_s = timed_setup(_fig13_setup)
        walls, instances, _ = _run_pipelines(seed, outcome, seconds, None)
        outcome.put("setup_s", import_s + setup_s)
        outcome.steady_metrics(closed_loop_bins(walls))
        outcome.put("peak_rss_mb", self_rss_mb())
        outcome.notes["instances"] = instances
        outcome.notes["schedulable"] = len(walls)
        return outcome

    _fig13_setup()
    count = max(3, round(TRACED_PIPELINES * seconds / 10))
    started = time.perf_counter()
    plain_walls, _, _ = _run_pipelines(seed, Outcome(), None, count)
    plain_s = time.perf_counter() - started
    outcome.tail_metric(closed_loop_bins(plain_walls))
    spans = SpanRecorder()
    started = time.perf_counter()
    walls, instances, kept = _run_pipelines(
        seed, outcome, None, count, spans
    )
    traced_s = time.perf_counter() - started
    # the layers the pipeline calls only indirectly, timed on the side
    for schedule in kept.values():
        with spans.span("core.prudent_reservation", shadow=True):
            prudent_reservation(schedule.streams)
        with spans.span("cnc.deployment", shadow=True):
            deployment_from_schedule(schedule, mode="etsn")

    # the long simulations behind Figs. 14-16: one schedule per load
    duration_ns = int(LONG_SIM_MS_PER_SECOND * seconds * 1_000_000)
    events = lost = 0
    run_s = 0.0
    worst_ns = 0
    for load in LOADS:
        schedule = kept.get(load)
        if schedule is None:
            continue
        gcl = build_gcl(schedule, mode="etsn")
        simulation = TsnSimulation(
            schedule, gcl, SimConfig(duration_ns=duration_ns, seed=seed)
        )
        started = time.perf_counter()
        report = simulation.run()
        run_s += time.perf_counter() - started
        events += report.num_events
        lost += report.frames_lost
        worst_ns = max(worst_ns, _ect_worst_ns(schedule, report, outcome))
    outcome.check(events > 0, "no long simulation ran")

    for name, span, per in (
        ("traffic.generate_ms_p50", "traffic.generate", 1e6),
        ("core.schedule_heuristic_ms_p50", "core.schedule_heuristic", 1e6),
        ("core.validate_ms_p50", "core.validate", 1e6),
        ("core.build_gcl_ms_p50", "core.build_gcl", 1e6),
        ("core.audit_gcl_ms_p50", "core.audit_gcl", 1e6),
        ("core.prudent_reservation_us_p50", "core.prudent_reservation", 1e3),
        ("sim.build_ms_p50", "sim.build", 1e6),
        ("cnc.deployment_ms_p50", "cnc.deployment", 1e6),
    ):
        outcome.put(name, *spans.p50(span, per))
    outcome.put("sim.run_s", run_s)
    outcome.put("sim.events", events)
    outcome.put("sim.frames_lost", lost)
    outcome.put("sim_events_per_s", events / run_s if run_s else 0.0)
    outcome.put("ect_latency_max_us", worst_ns / 1e3)
    outcome.put("accept_frac", len(walls) / instances, instances)
    finish_traced(outcome, spans, plain_s, traced_s, "offline_fig13")
    return outcome


# ----------------------------------------------------------------------
# offline_smt
# ----------------------------------------------------------------------
#: (load, traffic seed, measured solve seconds) of the pinned instance
#: pool on the Fig. 10 testbed.  Solve time of this backend varies a
#: hundredfold between traffic seeds (0.04-12 s at load 0.25), so a
#: per-run random draw cannot give a steady number in a ten-second run;
#: the pool is fixed, ``--seed`` decides the order and which instance is
#: solved again with a proof.  Sorted by cost: a short run takes a
#: prefix.
SMT_POOL = (
    (0.1, 10, 0.02), (0.1, 1, 0.03), (0.1, 4, 0.03), (0.1, 6, 0.03),
    (0.1, 12, 0.04), (0.25, 6, 0.04), (0.1, 7, 0.05), (0.1, 8, 0.05),
    (0.1, 3, 0.08), (0.1, 5, 0.11), (0.1, 2, 0.15), (0.1, 9, 0.19),
    (0.1, 11, 0.19), (0.25, 9, 0.52), (0.25, 12, 0.67), (0.25, 3, 0.73),
    (0.25, 11, 0.87),
)
#: the two pure-solver packing instances of
#: ``benchmarks/test_smt_solver_perf.py``: (jobs, horizon, gap, sat?).
PACKINGS = ((30, 400, 10, True), (5, 17, 5, False))
#: solver counters that repeat exactly and may carry a count claim.
SOLVER_COUNTERS = (
    "conflicts", "decisions", "propagations", "theory_checks",
    "learned_clauses",
)


def _smt_pool(seed: int, seconds: float):
    """The pool prefix that fits half of ``seconds``, in seed order."""
    budget = seconds / 2
    chosen, spent = [], 0.0
    for entry in SMT_POOL:
        if len(chosen) >= 3 and spent + entry[2] > budget:
            break
        chosen.append(entry)
        spent += entry[2]
    rng = random.Random(seed)
    # the instance solved twice comes from the cheap half, so that the
    # draw does not shift the run's totals
    proof = chosen[rng.randrange((len(chosen) + 1) // 2)]
    rng.shuffle(chosen)
    return chosen, chosen.index(proof)


def _packing(jobs: int, horizon: int, gap: int, proof: bool = False):
    solver = DlSmtSolver(proof=proof)
    names = [f"j{i}" for i in range(jobs)]
    for name in names:
        solver.require(var_ge(name, 0))
        solver.require(var_le(name, horizon))
    for a, b in itertools.combinations(names, 2):
        solver.add_clause([diff_ge(a, b, gap), diff_ge(b, a, gap)])
    return solver.check()


def _check_packing(result, jobs, gap, sat, outcome: Outcome) -> None:
    if result.sat != sat:
        outcome.failed += 1
        outcome.problems.append(
            f"packing({jobs} jobs) answered sat={result.sat}, "
            f"expected {sat}"
        )
    elif sat:
        values = sorted(result.model[f"j{i}"] for i in range(jobs))
        if any(b - a < gap for a, b in zip(values, values[1:])):
            outcome.failed += 1
            outcome.problems.append(
                f"packing({jobs} jobs): the model overlaps two jobs"
            )


def _smt_solve(workload, outcome: Outcome, proof: bool = False):
    """One faithful Eq. 1-7 solve; the schedule must validate (and the
    certificate verify) or the operation counts as failed."""
    outcome.attempted += 1
    try:
        schedule = schedule_etsn(
            workload.topology, workload.tct_streams, workload.ect_streams,
            backend="smt", proof=proof,
        )
        validate(schedule)
        if proof and not schedule.meta["certificate"]["verified"]:
            raise AssertionError("certificate did not verify")
    except Exception as exc:  # noqa: BLE001 - the pool is feasible by choice
        outcome.failed += 1
        outcome.problems.append(
            f"SMT solve failed: {type(exc).__name__}: {exc}"
        )
        return None
    return schedule


def _smt_pass(workloads, outcome: Outcome,
              spans: Optional[SpanRecorder] = None):
    """One pass over the pool and the packings.  Returns per-solve
    walls and the summed solver counters."""
    walls: List[float] = []
    counters = dict.fromkeys(SOLVER_COUNTERS, 0)

    def timed(call):
        if spans is not None:
            spans.next_op()
            with spans.span("op"):
                started = time.perf_counter()
                with spans.span("smt.schedule"):
                    value = call()
                walls.append(time.perf_counter() - started)
        else:
            started = time.perf_counter()
            value = call()
            walls.append(time.perf_counter() - started)
        return value

    for workload in workloads:
        schedule = timed(lambda: _smt_solve(workload, outcome))
        if schedule is not None:
            stats = schedule.meta["solver_stats"]
            for key in SOLVER_COUNTERS:
                counters[key] += stats[key]
    for jobs, horizon, gap, sat in PACKINGS:
        outcome.attempted += 1
        result = timed(lambda: _packing(jobs, horizon, gap))
        _check_packing(result, jobs, gap, sat, outcome)
        stats = result.solver_stats.to_dict()
        for key in SOLVER_COUNTERS:
            counters[key] += stats[key]
    return walls, counters


def _proof_overhead(workload, outcome: Outcome) -> float:
    """Solve one instance plain and again with ``proof=True`` (the
    certificate must verify); returns proof wall over plain wall.  Kept
    out of the passes, so that every pass is the same work."""
    started = time.perf_counter()
    _smt_solve(workload, outcome)
    plain_s = time.perf_counter() - started
    started = time.perf_counter()
    _smt_solve(workload, outcome, proof=True)
    return (time.perf_counter() - started) / plain_s


def _smt_setup(pool):
    workloads = [testbed_workload(load, tseed) for load, tseed, _ in pool]
    # warm-up: the smallest instance end to end
    smallest = min(range(len(pool)), key=lambda index: pool[index][2])
    _smt_solve(workloads[smallest], Outcome())
    return workloads


def offline_smt(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    pool, proof_index = _smt_pool(seed, seconds)
    if not trace:
        import_s = import_seconds(
            ["repro", "repro.experiments", "repro.smt"]
        )
        workloads, setup_s = timed_setup(lambda: _smt_setup(pool))
        # every pass is the same work, so the passes are the chunks
        passes: List[List[float]] = []
        while sum(map(sum, passes)) < seconds:
            passes.append(_smt_pass(workloads, outcome)[0])
        _proof_overhead(workloads[proof_index], outcome)
        _check_unsat_proof(outcome)
        outcome.put("setup_s", import_s + setup_s)
        outcome.steady_metrics([(sum(walls), walls) for walls in passes],
                               repeats=True)
        outcome.put("peak_rss_mb", self_rss_mb())
        return outcome

    workloads = _smt_setup(pool)
    started = time.perf_counter()
    plain_walls, _ = _smt_pass(workloads, Outcome())
    plain_s = time.perf_counter() - started
    outcome.tail_metric([(sum(plain_walls), plain_walls)], repeats=True)
    spans = SpanRecorder()
    started = time.perf_counter()
    _, counters = _smt_pass(workloads, outcome, spans)
    traced_s = time.perf_counter() - started
    # the layers inside schedule_smt, re-run on the side with their own
    # spans (the solve runs twice in a traced pass: that is the cost of
    # timing it from outside)
    for workload in workloads:
        streams = list(workload.tct_streams)
        for ect in workload.ect_streams:
            streams.extend(expand_ect(ect, workload.topology))
        with spans.span("core.prudent_reservation", shadow=True):
            plan = prudent_reservation(streams)
        with spans.span("smt.build_constraints", shadow=True):
            system = build_constraints(workload.topology, streams, plan)
        with spans.span("smt.solve", shadow=True):
            system.solver.check()
    check_ms = _check_unsat_proof(outcome)
    outcome.put("smt.solve_s_p50", *spans.p50("smt.solve", 1e9))
    outcome.put("smt.build_constraints_ms_p50",
                *spans.p50("smt.build_constraints", 1e6))
    outcome.put("core.prudent_reservation_us_p50",
                *spans.p50("core.prudent_reservation", 1e3))
    for key, value in counters.items():
        outcome.put(f"smt.{key}", value)
    outcome.put("smt.proof_overhead_ratio",
                _proof_overhead(workloads[proof_index], outcome))
    outcome.put("smt.proof_check_ms", check_ms)
    finish_traced(outcome, spans, plain_s, traced_s, "offline_smt")
    return outcome


def _check_unsat_proof(outcome: Outcome) -> float:
    """Replay the UNSAT packing's certificate through the independent
    checker; returns the checker's wall in ms."""
    jobs, horizon, gap, _ = PACKINGS[1]
    result = _packing(jobs, horizon, gap, proof=True)
    started = time.perf_counter()
    try:
        steps = verify_certificate(result.certificate)
        outcome.check(steps > 0, "UNSAT certificate replayed zero steps")
    except Exception as exc:  # noqa: BLE001 - a failed check fails the run
        outcome.problems.append(
            f"UNSAT certificate did not verify: {type(exc).__name__}: {exc}"
        )
    return (time.perf_counter() - started) * 1e3
