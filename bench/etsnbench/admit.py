"""The two in-process admission workloads: ``admit_fastpath`` (the
common case on a large store) and ``admit_ladder`` (a saturated network
where the solver rungs do the work).  Closed loop, one caller."""

from __future__ import annotations

import random
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core import schedule_etsn, validate
from repro.core.incremental import (
    add_ect_stream,
    add_shared_tct_stream,
    add_tct_stream,
    remove_stream,
)
from repro.core.schedule import (
    InfeasibleError,
    ScheduleError,
    validate_delta,
)
from repro.experiments import line_of_rings, simulation_workload
from repro.model.stream import (
    EctStream,
    Priorities,
    StreamType,
    TctRequirement,
)
from repro.service import (
    AdmissionService,
    AdmitEct,
    AdmitTct,
    RUNG_INCREMENTAL,
    Remove,
    RungConfig,
    ScheduleStore,
    ServiceConfig,
    canonical_shape,
    empty_schedule,
    fastpath,
)

from etsnbench.core import (
    Outcome,
    SpanRecorder,
    closed_loop_bins,
    finish_traced,
    import_seconds,
    median,
    percentile,
    self_rss_mb,
    timed_setup,
)

MS = 1_000_000
RUNGS = ("fastpath", "incremental", "full", "heuristic", "rejected")
#: every n-th traced operation also runs the layers' public functions
#: on the pinned snapshot (shadow spans); a full ``validate`` (40 ms on
#: 1200 streams) only on every fifth of those.
SHADOW_EVERY = 10
SHADOW_VALIDATE_EVERY = 50

#: request kinds (what the generator meant, for the oracle).
GROW, ADMIT, ECT, DESIGNED_REJECT, REMOVE = (
    "grow", "admit", "ect", "designed_reject", "remove",
)


def _tct(name, source, destination, period_ms, length, share, e2e_ns=None):
    return AdmitTct(TctRequirement(
        name=name, source=source, destination=destination,
        period_ns=period_ms * MS, length_bytes=length, e2e_ns=e2e_ns,
        priority=Priorities.SH_PL if share else Priorities.NSH_PH,
        share=share,
    ))


# ----------------------------------------------------------------------
# request generators
# ----------------------------------------------------------------------
class FastpathOps:
    """Ring-local admits on ``line_of_rings(4, 4, 2)``.

    *grow*: admit until ``target`` streams are live.  *churn*: remove a
    random live stream, then admit a fresh one; 5 % of churn admits are
    ECT streams and 5 % carry an impossible 1 ns deadline (designed
    rejects, answered by the e2e floor).  An admitted ECT stream is the
    next one removed: left to pile up, ECT streams make every later
    sharing admit on their links dearer, and the run drifts by however
    many the seed happened to keep."""

    def __init__(self, topology, seed: int, target: int) -> None:
        self._rng = random.Random(seed)
        self._rings = [
            [d.name for d in topology.devices
             if d.name.startswith(f"R{ring}S")]
            for ring in range(4)
        ]
        self.target = target
        self.live: List[str] = []
        self.grown = 0
        self._count = 0
        self._remove_next = True
        self._live_ect: List[str] = []

    @property
    def growing(self) -> bool:
        return len(self.live) < self.target and self.grown < 3 * self.target

    def next(self) -> Tuple[str, object]:
        rng = self._rng
        self._count += 1
        if self.growing:
            self.grown += 1
            return GROW, self._admit(f"g{self._count}")
        remove = self._remove_next and self.live
        self._remove_next = not self._remove_next
        if remove:
            name = (self._live_ect[0] if self._live_ect
                    else self.live[rng.randrange(len(self.live))])
            return REMOVE, Remove(name)
        draw = rng.random()
        name = f"c{self._count}"
        if draw < 0.05:
            source, destination = rng.sample(rng.choice(self._rings), 2)
            return ECT, AdmitEct(EctStream(
                name=name, source=source, destination=destination,
                min_interevent_ns=16 * MS,
                length_bytes=rng.randrange(100, 801), possibilities=4,
            ))
        if draw < 0.10:
            return DESIGNED_REJECT, self._admit(name, e2e_ns=1)
        return ADMIT, self._admit(name)

    def _admit(self, name: str, e2e_ns: Optional[int] = None):
        rng = self._rng
        source, destination = rng.sample(rng.choice(self._rings), 2)
        return _tct(
            name, source, destination, rng.choice((4, 8, 16)),
            rng.randrange(100, 801), rng.random() < 0.15, e2e_ns,
        )

    def observe(self, kind: str, request, decision) -> None:
        if not decision.accepted:
            return
        if kind == REMOVE:
            self.live.remove(request.name)
            if request.name in self._live_ect:
                self._live_ect.remove(request.name)
        else:
            self.live.append(request.stream_name)
            if kind == ECT:
                self._live_ect.append(request.stream_name)


class LadderOps:
    """Random-pair admits on the seeded Fig. 13 network, with removes
    that pull the live count back to ``target`` (remove probability
    ``live / (2 * target)``), so the network hovers where about a tenth
    of the admits defeat earliest-fit and climb to the re-solve rung."""

    def __init__(self, topology, seed: int, target: int) -> None:
        self._rng = random.Random(seed)
        self._devices = [d.name for d in topology.devices]
        self.target = target
        self.live: List[str] = []
        self._count = 0

    def reseed(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def next(self) -> Tuple[str, object]:
        rng = self._rng
        self._count += 1
        if self.live and rng.random() < len(self.live) / (2 * self.target):
            return REMOVE, Remove(self.live[rng.randrange(len(self.live))])
        source, destination = rng.sample(self._devices, 2)
        return ADMIT, _tct(
            f"a{self._count}", source, destination,
            rng.choice((5, 10, 20)), rng.randrange(200, 1501),
            rng.random() < 0.2,
        )

    def observe(self, kind: str, request, decision) -> None:
        if kind == REMOVE:
            if decision.accepted:
                self.live.remove(request.name)
        elif decision.accepted:
            self.live.append(request.stream_name)


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
@dataclass
class _Op:
    kind: str
    wall_s: float
    rung: str          # a RUNGS member
    latency_ms: float  # the program's own Decision.latency_ms
    climbed: bool      # a reject that went past the fast path


def _judge(kind: str, decision, outcome: Outcome) -> None:
    """The per-operation oracle behind ``failed``."""
    if kind == DESIGNED_REJECT:
        ok = (not decision.accepted
              and "e2e-floor" in (decision.reason or "")
              + " ".join(decision.attempts.values()))
        why = "a 1 ns deadline must be rejected by the e2e floor"
    elif kind == REMOVE:
        ok = decision.accepted
        why = "removing a live stream must be accepted"
    else:
        ok = decision.accepted or bool(decision.reason)
        why = "a reject must carry a reason"
    if not ok:
        outcome.failed += 1
        outcome.problems.append(
            f"{kind} {decision.stream}: {why} (got accepted="
            f"{decision.accepted}, reason={decision.reason!r})"
        )


def _shadow_calls(spans: SpanRecorder, schedule, request, scratch,
                  full_validate: bool) -> None:
    """Re-run the layers one admission goes through, each under its own
    span, on the snapshot the service decided against."""
    with spans.span("service.canonical_shape", shadow=True):
        canonical_shape(request)
    with spans.span("service.fastpath_evaluate", shadow=True):
        fastpath.evaluate(schedule, [request])
    try:
        if isinstance(request, Remove):
            with spans.span("core.remove", shadow=True):
                result = remove_stream(
                    schedule, request.name, validate_result=False
                )
            changed = set()
        elif isinstance(request, AdmitEct):
            with spans.span("core.add_ect", shadow=True):
                result = add_ect_stream(
                    schedule, request.ect, validate_result=False
                )
            changed = {s.name for s in result.streams
                       if s.parent == request.ect.name}
        else:
            stream = request.requirement.resolve(schedule.topology)
            with spans.span("service.screen_route", shadow=True):
                fastpath.screen_route(stream)
            if stream.share and schedule.ect_streams:
                with spans.span("core.add_shared_tct", shadow=True):
                    result = add_shared_tct_stream(
                        schedule, stream, validate_result=False
                    )
            else:
                with spans.span("core.add_tct", shadow=True):
                    result = add_tct_stream(
                        schedule, stream, validate_result=False
                    )
            changed = {stream.name}
        with spans.span("core.validate_delta", shadow=True):
            validate_delta(result, changed)
        if full_validate:
            with spans.span("core.validate", shadow=True):
                validate(result)
    except (InfeasibleError, ScheduleError, KeyError, ValueError):
        # the request has no placement (or a designed reject failed its
        # deadline check): nothing further to time
        return
    with spans.span("service.store_publish", shadow=True):
        scratch.publish(result)


def _drive(service: AdmissionService, ops, outcome: Outcome,
           seconds: Optional[float], limit: Optional[int],
           spans: Optional[SpanRecorder] = None,
           shadow_full: bool = False) -> List[_Op]:
    """Submit generated requests one at a time until ``seconds`` of
    submit wall are spent or ``limit`` operations past the grow phase
    are done; never stops inside the grow phase."""
    done: List[_Op] = []
    spent = 0.0
    steady = 0
    scratch = ScheduleStore(service.store.schedule, history_limit=0)
    while True:
        if not getattr(ops, "growing", False):
            if limit is not None and steady >= limit:
                break
            if seconds is not None and spent >= seconds:
                break
        kind, request = ops.next()
        steady += kind != GROW
        outcome.attempted += 1
        if spans is None:
            started = time.perf_counter()
            decision = service.submit(request)
            wall = time.perf_counter() - started
        else:
            spans.next_op()
            snapshot = service.store.snapshot()
            with spans.span("op"):
                started = time.perf_counter()
                with spans.span("service.submit"):
                    decision = service.submit(request)
                wall = time.perf_counter() - started
                if len(done) % SHADOW_EVERY == 0:
                    _shadow_calls(
                        spans, snapshot.schedule, request, scratch,
                        full_validate=len(done) % SHADOW_VALIDATE_EVERY == 0,
                    )
                if shadow_full and decision.rung == "full":
                    _shadow_resolve(spans, service.store.schedule)
        spent += wall
        _judge(kind, decision, outcome)
        ops.observe(kind, request, decision)
        done.append(_Op(
            kind=kind, wall_s=wall,
            rung=decision.rung if decision.accepted else "rejected",
            latency_ms=decision.latency_ms,
            climbed=(not decision.accepted and bool(
                set(decision.attempts) - {"fastpath", "screen"}
            )),
        ))
    return done


def _shadow_resolve(spans: SpanRecorder, schedule) -> None:
    """What the full rung just did, under its own span: re-solve the
    published stream set from scratch."""
    tct = [s for s in schedule.streams if s.type == StreamType.DET]
    with spans.span("core.schedule_heuristic", shadow=True):
        schedule_etsn(schedule.topology, tct, schedule.ect_streams)


def _check_store(service: AdmissionService, outcome: Outcome) -> None:
    try:
        validate(service.store.schedule)
    except Exception as exc:  # noqa: BLE001 - a bad final schedule fails the run
        outcome.problems.append(
            f"final schedule does not validate: {type(exc).__name__}: {exc}"
        )


def _end_to_end(outcome: Outcome, steady_ops: List[_Op],
                setup_s: float, tail_per_bin: int = 30) -> None:
    walls = [op.wall_s for op in steady_ops]
    outcome.put("setup_s", setup_s)
    outcome.steady_metrics(
        closed_loop_bins(walls),
        latency_chunks=closed_loop_bins(walls, tail_per_bin),
    )
    _whole_run_p99(outcome.notes, walls)
    outcome.put("peak_rss_mb", self_rss_mb())


def _whole_run_p99(notes: Dict, walls: List[float]) -> None:
    """The plain p99 over the whole phase, beside the binned tail: it
    is what a user calls p99, but one slow episode of the machine moves
    it, so it carries no bound."""
    if len(walls) >= 1000:
        notes["latency_p99_ms (whole phase, n=%d)" % len(walls)] = round(
            percentile(walls, 0.99) * 1e3, 4
        )


def _service_layer(outcome: Outcome, done: List[_Op],
                   service: AdmissionService) -> None:
    """``service.*`` from what the program already emits."""
    by_rung: Dict[str, List[float]] = defaultdict(list)
    for op in done:
        by_rung[op.rung].append(op.latency_ms)
    total_ms = sum(op.latency_ms for op in done)
    for rung in RUNGS:
        latencies = by_rung.get(rung, [])
        outcome.put(f"service.rung_share.{rung}", len(latencies) / len(done))
        outcome.put(f"service.rung_ms_p50.{rung}",
                    median(latencies) if latencies else 0.0, len(latencies))
        outcome.put(f"service.rung_wall_share.{rung}",
                    sum(latencies) / total_ms if total_ms else 0.0)
    climbs = [op.wall_s for op in done if op.climbed]
    outcome.put("service.reject_climb_s_max", max(climbs, default=0.0),
                len(climbs))
    counters = service.metrics.to_dict()["counters"]
    outcome.put("service.cas_retries", counters.get("batches.rebased", 0))
    admits = [op for op in done
              if op.kind in (GROW, ADMIT, ECT)]
    accepted = sum(1 for op in admits if op.rung != "rejected")
    outcome.put("accept_frac", accepted / len(admits), len(admits))


_SHADOW_METRICS = (
    ("core.add_tct_us_p50", "core.add_tct"),
    ("core.add_shared_tct_us_p50", "core.add_shared_tct"),
    ("core.add_ect_us_p50", "core.add_ect"),
    ("core.remove_us_p50", "core.remove"),
    ("core.validate_delta_us_p50", "core.validate_delta"),
    ("service.fastpath_evaluate_us_p50", "service.fastpath_evaluate"),
    ("service.screen_route_us_p50", "service.screen_route"),
    ("service.canonical_shape_us_p50", "service.canonical_shape"),
    ("service.store_publish_us_p50", "service.store_publish"),
)


def _shadow_layer(outcome: Outcome, spans: SpanRecorder) -> None:
    for name, span in _SHADOW_METRICS:
        outcome.put(name, *spans.p50(span, 1e3))
    outcome.put("core.validate_ms_p50", *spans.p50("core.validate", 1e6))


# ----------------------------------------------------------------------
# admit_fastpath
# ----------------------------------------------------------------------
#: live streams at the end of *grow*, per ``--seconds`` (1200 at 10 s).
FASTPATH_TARGET_PER_SECOND = 120
#: churn operations of a traced replay, per ``--seconds``.
FASTPATH_TRACED_CHURN_PER_SECOND = 30


#: the re-solve rungs are configured off here.  About one churn admit
#: in a thousand (an ECT stream whose constructive placement fails)
#: would otherwise re-solve all 1200 streams — 0.5 s and 10 MiB more
#: peak memory, in some runs and not in others.  With only the
#: incremental rung left (which the fast path subsumes) it is a
#: structured reject; the ladder is ``admit_ladder``'s business.
FASTPATH_CONFIG = ServiceConfig(rungs=(RungConfig(RUNG_INCREMENTAL),))


def _fastpath_setup():
    topology = line_of_rings(4, 4, 2)
    service = AdmissionService(
        ScheduleStore(empty_schedule(topology)), FASTPATH_CONFIG
    )
    # warm-up on a throw-away store: routes and overlap caches fill
    warm = AdmissionService(
        ScheduleStore(empty_schedule(topology)), FASTPATH_CONFIG
    )
    ops = FastpathOps(topology, 0, 8)
    _drive(warm, ops, Outcome(), None, 32)
    return topology, service


def admit_fastpath(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    target = max(8, round(FASTPATH_TARGET_PER_SECOND * seconds))
    if not trace:
        import_s = import_seconds(["repro", "repro.experiments"])
        (topology, service), setup_s = timed_setup(_fastpath_setup)
        ops = FastpathOps(topology, seed, target)
        done = _drive(service, ops, outcome, seconds, None)
        _check_store(service, outcome)
        # the end-to-end numbers are those of the steady live count;
        # what *grow* costs shows in core.add_tct_growth_ratio
        churn = [op for op in done if op.kind != GROW]
        _end_to_end(outcome, churn or done, import_s + setup_s)
        outcome.notes["grow_ops"] = len(done) - len(churn)
        outcome.notes["grow_s"] = round(
            sum(op.wall_s for op in done if op.kind == GROW), 3
        )
        return outcome

    churn_ops = max(8, round(FASTPATH_TRACED_CHURN_PER_SECOND * seconds))
    topology, service = _fastpath_setup()
    started = time.perf_counter()
    plain = _drive(service, FastpathOps(topology, seed, target), Outcome(),
                   None, churn_ops)
    plain_s = time.perf_counter() - started
    _, service = _fastpath_setup()
    spans = SpanRecorder()
    started = time.perf_counter()
    done = _drive(service, FastpathOps(topology, seed, target), outcome,
                  None, churn_ops, spans)
    traced_s = time.perf_counter() - started
    outcome.check(len(done) == len(plain),
                  "traced replay ran a different number of operations")
    outcome.tail_metric(closed_loop_bins(
        [op.wall_s for op in plain if op.kind != GROW]
    ))
    _check_store(service, outcome)
    _service_layer(outcome, done, service)
    _shadow_layer(outcome, spans)
    outcome.put("core.add_tct_growth_ratio", _growth_ratio(spans, done))
    finish_traced(outcome, spans, plain_s, traced_s, "admit_fastpath")
    return outcome


def _growth_ratio(spans: SpanRecorder, done: List[_Op]) -> float:
    """p50 of ``add_tct_stream`` in the last decile of *grow* over the
    first decile: how much dearer one placement got as the store grew."""
    grow_ops = sum(1 for op in done if op.kind == GROW)
    samples = [
        (op, end - start)
        for _, _, op, name, start, end, _ in spans.rows
        if name == "core.add_tct" and op <= grow_ops
    ]
    samples.sort()
    decile = max(1, len(samples) // 10)
    if len(samples) < 2:
        return 0.0
    first = median([ns for _, ns in samples[:decile]])
    last = median([ns for _, ns in samples[-decile:]])
    return last / first if first else 0.0


# ----------------------------------------------------------------------
# admit_ladder
# ----------------------------------------------------------------------
#: traffic seed of the seeding schedule.  Pinned: the share of admits
#: that defeat earliest-fit swings between 4 % and 12 % from one seeded
#: base to the next, which no ten-second run averages out; ``--seed``
#: draws the request stream.
LADDER_BASE_TRAFFIC_SEED = 1
#: live admitted streams the remove probability steers towards.
LADDER_TARGET = 60
#: warm-up operations before the measured phase: a fixed count (not
#: "until the target is live", whose hitting time swung set-up between
#: 0.5 and 1.7 s), enough to bring the live count close to the target.
LADDER_WARMUP_OPS = 150
#: operations of a traced replay, per ``--seconds``.
LADDER_TRACED_OPS_PER_SECOND = 100
#: the slow mode (rung full) is the top ~14 % of the decisions: latency
#: bins of 250 put the tail at p95, inside it; bins of ~100 would put it
#: at p90, on the edge between the two modes.
LADDER_TAIL_PER_BIN = 250


def _ladder_setup(seed: int):
    workload = simulation_workload(0.5, LADDER_BASE_TRAFFIC_SEED)
    base = schedule_etsn(
        workload.topology, workload.tct_streams, workload.ect_streams
    )
    service = AdmissionService(
        ScheduleStore(base), ServiceConfig(heuristic_min_restarts=16)
    )
    # the warm-up stream is the same for every seed, so that set-up
    # costs the same; the measured stream continues from its live set
    ops = LadderOps(workload.topology, 0, LADDER_TARGET)
    for _ in range(LADDER_WARMUP_OPS):
        kind, request = ops.next()
        ops.observe(kind, request, service.submit(request))
    ops.reseed(seed)
    return service, ops


def admit_ladder(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    if not trace:
        import_s = import_seconds(["repro", "repro.experiments"])
        (service, ops), setup_s = timed_setup(lambda: _ladder_setup(seed))
        done = _drive(service, ops, outcome, seconds, None)
        _check_store(service, outcome)
        _end_to_end(outcome, done, import_s + setup_s, LADDER_TAIL_PER_BIN)
        return outcome

    count = max(20, round(LADDER_TRACED_OPS_PER_SECOND * seconds))
    service, ops = _ladder_setup(seed)
    started = time.perf_counter()
    plain = _drive(service, ops, Outcome(), None, count)
    plain_s = time.perf_counter() - started
    service, ops = _ladder_setup(seed)
    spans = SpanRecorder()
    started = time.perf_counter()
    done = _drive(service, ops, outcome, None, count, spans,
                  shadow_full=True)
    traced_s = time.perf_counter() - started
    outcome.check(len(done) == len(plain),
                  "traced replay ran a different number of operations")
    _check_store(service, outcome)
    _service_layer(outcome, done, service)
    _shadow_layer(outcome, spans)
    outcome.put("core.schedule_heuristic_ms_p50",
                *spans.p50("core.schedule_heuristic", 1e6))
    plain_walls = [op.wall_s for op in plain]
    outcome.put("latency_p99_ms", percentile(plain_walls, 0.99) * 1e3,
                len(plain))
    outcome.tail_metric(closed_loop_bins(plain_walls, LADDER_TAIL_PER_BIN))
    finish_traced(outcome, spans, plain_s, traced_s, "admit_ladder")
    return outcome
