"""The online admission-control runtime (paper Sec. VII-C, made a service).

:class:`AdmissionService` turns the single-operation primitives of
:mod:`repro.core.incremental` into a sustained request-serving runtime:

* requests (admit TCT / admit ECT / remove) are **batched** when their
  stream sets are disjoint, so one validation pass amortizes over the
  whole batch;
* every solve climbs a **fallback ladder** — the constructive rung
  (:mod:`repro.service.fastpath`: ring 0, the batch placed earliest-fit
  around the frozen schedule once per climb, or a conclusive analytic
  reject that ends the climb), then a re-solve with the configured
  backend, then — for the SMT backend — a re-solve with
  :func:`schedule_heuristic`; each re-solve rung is one cold attempt
  on the caller's thread, bounded by work, not time.  A heuristic
  re-solve first grows one *ring* (deterministic streams re-placed
  with the batch around the frozen rest) from the cut ring 0's
  failure names — the streams whose release frees one gap of its
  failing window, or lets the failing stream in along its route — by
  the cut of each ring that fails, and re-solves the whole network
  only when that chain ends; TCT and ECT admits climb alike;
* an infeasible request is a **structured rejection**
  (:class:`~repro.service.requests.Decision`), never an exception
  escaping the service;
* accepted batches publish a new snapshot to the
  :class:`~repro.service.store.ScheduleStore` (readers keep their old
  version) and optionally emit an 802.1Qcc
  :class:`~repro.cnc.qcc.Deployment`;
* counters and latency histograms for every step live in an embedded
  :class:`~repro.service.metrics.MetricsRegistry`;
* with a :class:`~repro.obs.trace.Tracer` attached, every batch opens a
  span, every request inside it gets a child span stamped with its
  outcome, and every ladder rung attempt records a ``admission.rung``
  span wrapping the actual ``solve`` — the request → rung → solve
  chain ``repro trace summarize`` aggregates.  SMT solves additionally
  fold their :class:`~repro.smt.sat.SolverStats` into ``solver.*``
  counters.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.check.locks import OrderedLock
from repro.check.proof import CertificateError
from repro.cnc.qcc import Deployment, deployment_from_schedule
from repro.core.baselines import schedule_etsn
from repro.core.heuristic import _tightness, schedule_heuristic
from repro.core.probabilistic import possibility_names
from repro.core.schedule import (
    CertifiedInfeasibleError,
    InfeasibleError,
    NetworkSchedule,
    ScheduleError,
    validate,
)
from repro.model.stream import Stream, StreamError, StreamType
from repro.obs.trace import NULL_TRACER, Tracer
from repro.service import fastpath as fastpath_module
from repro.service.fastpath import (
    RUNG_FASTPATH,
    ConclusiveReject,
    ResolvedBatch,
)
from repro.service.metrics import MetricsRegistry
from repro.service.requests import (
    AdmissionRequest,
    AdmitEct,
    AdmitTct,
    Decision,
    Remove,
)
from repro.service.store import ScheduleStore, StaleVersionError

#: Ladder rung names, in climb order.  ``RUNG_FASTPATH`` (re-exported
#: from :mod:`repro.service.fastpath`) is the constructive rung, no
#: search.  ``RUNG_FULL`` re-solves with ``ServiceConfig.backend``;
#: ``RUNG_HEURISTIC`` re-solves with the heuristic scheduler and is
#: skipped when that is what ``RUNG_FULL`` already ran.
RUNG_FULL = "full"
RUNG_HEURISTIC = "heuristic"
#: Deprecated alias of ``RUNG_FASTPATH`` for ``bench/``; a later
#: benchmark PR drops it together with the ``incremental`` column of
#: ``bench/``'s rung tables.
RUNG_INCREMENTAL = RUNG_FASTPATH

#: Most conflicts one SMT re-solve may analyse before it gives up with a
#: plain :class:`InfeasibleError` (no proof, so never certified).  The
#: largest SMT solve of the tier-1 suite takes 833; a whole-network
#: SMT re-solve on ``admit_ladder``'s Fig. 13 state reaches 1000 after
#: about 14 s of search.  DESIGN.md has the measurements.
_SMT_MAX_CONFLICTS = 1000

#: How often a batch may rebase onto a fresh snapshot after losing the
#: publish CAS race to another writer sharing the store, before it is
#: rejected with reason ``"cas_exhausted"``.
MAX_REBASE_ATTEMPTS = 8

#: Rejection reason after the rebase budget is spent.
REASON_CAS_EXHAUSTED = "cas_exhausted"


@dataclass(frozen=True)
class RungConfig:
    """One ladder rung.

    A rung is attempted once: the backends are deterministic functions
    of (snapshot, request), and each bounds its own search — the ring
    repair by the live streams its chain can release, the heuristic
    re-solve by its restarts, the SMT re-solve by
    ``_SMT_MAX_CONFLICTS`` — so an infeasible verdict, a spent budget
    or an unexpected solver error is recorded and the climb moves on.
    """

    name: str


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one admission service instance."""

    #: backend for the full re-solve rung ("heuristic" or "smt").
    backend: str = "heuristic"
    #: floor of a heuristic re-solve's restart budget (the scheduler's
    #: own default is ``2 * streams + 4``).
    heuristic_min_restarts: int = 128
    #: largest number of requests validated as one batch.
    max_batch: int = 8
    #: build an 802.1Qcc Deployment (GCL + talker offsets) per accepted
    #: batch; off by default to keep the admission hot path lean.
    emit_deployments: bool = False
    #: run the full-rung SMT solve with proof logging and have the
    #: independent checker (:mod:`repro.check`) verify every verdict:
    #: UNSAT proofs replay before a rejection is final, SAT models are
    #: evaluated against the original constraints before a schedule
    #: publishes.  The constructive rung then fully validates what it
    #: accepts and never rejects on its own — its analytic rejects
    #: climb on to the proof-logging solver.  Requires ``backend='smt'``.
    certify: bool = False
    rungs: Tuple[RungConfig, ...] = (
        RungConfig(RUNG_FASTPATH),
        RungConfig(RUNG_FULL),
        RungConfig(RUNG_HEURISTIC),
    )


#: ``fastpath.*`` counter bumped per constructive-rung verdict.
_FASTPATH_COUNTERS = {
    fastpath_module.ACCEPT: "fastpath.accepts",
    fastpath_module.REJECT: "fastpath.rejects",
    fastpath_module.INCONCLUSIVE: "fastpath.fallthroughs",
}


def _effective_rungs(config: ServiceConfig) -> Tuple[RungConfig, ...]:
    """The rungs a climb runs, from a validated ``config.rungs``.

    With ``backend='heuristic'`` the heuristic rung would replay the
    full rung — the same deterministic scheduler under the same restart
    budget — so it goes.
    """
    order = (RUNG_FASTPATH, RUNG_FULL, RUNG_HEURISTIC)
    names = [rung.name for rung in config.rungs]
    if not names or names != [name for name in order if name in names]:
        raise ValueError(
            f"ServiceConfig.rungs must name some of {RUNG_FASTPATH!r}, "
            f"{RUNG_FULL!r}, {RUNG_HEURISTIC!r}, each once and in that "
            f"order (got {names!r})"
        )
    if config.backend == "heuristic" and RUNG_FULL in names:
        names = [name for name in names if name != RUNG_HEURISTIC]
    return tuple(rung for rung in config.rungs if rung.name in names)


@dataclass
class _Batch:
    """One ladder attempt over a compatible request group."""

    requests: List[AdmissionRequest]
    batch_id: int


class AdmissionService:
    """Serves admit/remove requests against a :class:`ScheduleStore`."""

    def __init__(
        self,
        store: ScheduleStore,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.perf_counter,
        on_deploy: Optional[Callable[[Deployment], None]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._store = store
        self._config = config or ServiceConfig()
        if self._config.certify and self._config.backend != "smt":
            raise ValueError(
                "ServiceConfig.certify requires backend='smt' "
                f"(got {self._config.backend!r})"
            )
        self._metrics = metrics if metrics is not None else store.metrics
        self._clock = clock
        self._on_deploy = on_deploy
        # Disabled tracing is the no-op singleton, not None: the spans
        # below cost one call each either way, no branching on hot paths.
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._request_spans: Dict[int, object] = {}
        self._write_lock = OrderedLock("AdmissionService._write_lock")
        self._request_counter = 0
        self._batch_counter = 0
        self._last_deployment: Optional[Deployment] = None
        self._rungs = _effective_rungs(self._config)

    # -- public surface ------------------------------------------------
    @property
    def store(self) -> ScheduleStore:
        return self._store

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    @property
    def tracer(self) -> Tracer:
        return self._tracer

    @property
    def last_deployment(self) -> Optional[Deployment]:
        return self._last_deployment

    def metrics_json(self, indent: Optional[int] = None) -> str:
        return self._metrics.to_json(indent=indent)

    def submit(self, request: AdmissionRequest) -> Decision:
        """Decide one request immediately."""
        return self.submit_many([request])[0]

    def submit_many(
        self, requests: Sequence[AdmissionRequest]
    ) -> List[Decision]:
        """Decide a request stream, batching compatible neighbours.

        Consecutive requests whose stream names are disjoint are solved
        and validated as one batch (bounded by ``max_batch``); a batch
        that fails every rung is splintered and re-tried one request at
        a time, so an infeasible newcomer cannot drag its batch-mates
        down with it.
        """
        decisions: List[Decision] = []
        with self._write_lock:
            for batch in self._coalesce(requests):
                decisions.extend(self._process_batch(batch))
        if self._tracer.enabled:
            # silent span loss was invisible before: surface the ring's
            # eviction count so `repro metrics` shows the blind spot
            self._metrics.gauge("tracer.spans_dropped").set(
                self._tracer.dropped
            )
        return decisions

    # -- batching ------------------------------------------------------
    def _coalesce(
        self, requests: Sequence[AdmissionRequest]
    ) -> List[_Batch]:
        batches: List[_Batch] = []
        current: List[AdmissionRequest] = []
        names: set = set()
        for request in requests:
            clash = request.stream_name in names
            if current and (clash or len(current) >= self._config.max_batch):
                batches.append(self._new_batch(current))
                current, names = [], set()
            current.append(request)
            names.add(request.stream_name)
        if current:
            batches.append(self._new_batch(current))
        return batches

    def _new_batch(self, requests: List[AdmissionRequest]) -> _Batch:
        # reached only from submit_many, under _write_lock
        self._batch_counter += 1  # repro: lint-ok[lock-discipline]
        return _Batch(requests=list(requests), batch_id=self._batch_counter)

    # -- batch processing ----------------------------------------------
    def _process_batch(self, batch: _Batch) -> List[Decision]:
        with self._tracer.span(
            "admission.batch",
            batch_id=batch.batch_id,
            size=len(batch.requests),
        ) as batch_span:
            spans: Dict[int, object] = {}
            if self._tracer.enabled:
                for request in batch.requests:
                    spans[id(request)] = self._tracer.start_span(
                        "admission.request", parent=batch_span,
                        op=request.op, stream=request.stream_name,
                    )
            outer = self._request_spans
            # reached only from submit_many, under _write_lock
            self._request_spans = spans  # repro: lint-ok[lock-discipline]
            try:
                return self._process_batch_traced(batch)
            finally:
                self._request_spans = outer  # repro: lint-ok[lock-discipline]
                # Requests decided by a splintered or rebased sub-batch
                # got their outcome on the sub-batch's span; close the
                # superseded batch-level span without one.
                for span in spans.values():
                    self._tracer.finish(span)

    def _process_batch_traced(self, batch: _Batch) -> List[Decision]:
        """Decide a batch, rebasing onto fresh snapshots a bounded
        number of times when the publish CAS loses to another writer.

        The write lock makes a conflict unreachable from this service
        instance, but the store may be shared between services; bounding
        the loop keeps a pathologically contended store from recursing
        without limit — the batch is rejected with
        :data:`REASON_CAS_EXHAUSTED` instead.
        """
        for attempt in range(MAX_REBASE_ATTEMPTS):
            decisions = self._attempt_batch(batch)
            if decisions is not None:
                return decisions
            self._metrics.counter("batches.rebased").inc()
            self._tracer.event(
                "admission.cas_retry", attempt=attempt + 1,
                batch_id=batch.batch_id,
            )
        self._metrics.counter("batches.rebase_exhausted").inc()
        self._tracer.event(
            "admission.cas_exhausted", attempts=MAX_REBASE_ATTEMPTS,
            batch_id=batch.batch_id,
        )
        return [
            self._decide(
                request, batch, accepted=False,
                reason=REASON_CAS_EXHAUSTED,
            )
            for request in batch.requests
        ]

    def _attempt_batch(self, batch: _Batch) -> Optional[List[Decision]]:
        """One snapshot -> solve -> publish attempt; ``None`` on a lost
        CAS race (the caller rebases)."""
        started = self._clock()
        self._metrics.counter("batches.total").inc()
        self._metrics.histogram("batch.size").observe(len(batch.requests))

        snapshot = self._store.snapshot()
        viable: List[AdmissionRequest] = []
        rejected: Dict[int, Decision] = {}
        for position, request in enumerate(batch.requests):
            problem = self._screen(request, snapshot.schedule, viable)
            if problem is None:
                viable.append(request)
            else:
                rejected[position] = self._decide(
                    request, batch, accepted=False, reason=problem,
                    latency_ms=0.0,
                )

        outcome, attempts, reason = (
            self._climb_ladder(snapshot.schedule, viable)
            if viable else (None, {}, None)
        )

        if viable and outcome is None and len(viable) > 1:
            # Amortization failed for the group: decide each request on
            # its own so feasible batch-mates are not dragged down.
            self._metrics.counter("batches.splintered").inc()
            decisions_by_request = {}
            for request in viable:
                decisions_by_request[id(request)] = self._process_batch(
                    self._new_batch([request])
                )[0]
            ordered: List[Decision] = []
            for position, request in enumerate(batch.requests):
                if position in rejected:
                    ordered.append(rejected[position])
                else:
                    ordered.append(decisions_by_request[id(request)])
            return ordered

        latency_ms = (self._clock() - started) * 1e3
        version: Optional[int] = None
        rung: Optional[str] = None
        if outcome is not None:
            rung, schedule = outcome
            try:
                version = self._store.publish(
                    schedule, expected_version=snapshot.version
                ).version
            except StaleVersionError:
                # Lost the CAS race to a writer sharing the store:
                # signal the bounded rebase loop to retry on a fresh
                # snapshot.
                return None
            self._emit_deployment(schedule)

        ordered = []
        for position, request in enumerate(batch.requests):
            if position in rejected:
                ordered.append(rejected[position])
            elif outcome is not None:
                ordered.append(self._decide(
                    request, batch, accepted=True, rung=rung,
                    latency_ms=latency_ms, store_version=version,
                    batch_size=len(viable), attempts=attempts,
                ))
            else:
                ordered.append(self._decide(
                    request, batch, accepted=False, reason=reason,
                    latency_ms=latency_ms, batch_size=len(viable),
                    attempts=attempts,
                ))
        return ordered

    def _decide(
        self,
        request: AdmissionRequest,
        batch: _Batch,
        accepted: bool,
        rung: Optional[str] = None,
        reason: Optional[str] = None,
        latency_ms: float = 0.0,
        store_version: Optional[int] = None,
        batch_size: int = 1,
        attempts: Optional[Dict[str, str]] = None,
    ) -> Decision:
        # _decide runs inside batch processing, under _write_lock
        self._request_counter += 1  # repro: lint-ok[lock-discipline]
        self._metrics.counter("requests.total").inc()
        self._metrics.counter(
            "requests.admitted" if accepted else "requests.rejected"
        ).inc()
        self._metrics.counter(
            f"decisions.{rung if accepted else 'rejected'}"
        ).inc()
        self._metrics.histogram("latency.decision_ms").observe(latency_ms)
        if not accepted:
            # rejections get their own latency distribution: a reject
            # that climbs the whole ladder is the worst case the
            # constructive rung's conclusive verdicts are meant to cut
            self._metrics.histogram("latency.rejected_ms").observe(
                latency_ms
            )
        span = self._request_spans.pop(id(request), None)
        if span is not None:
            span.set(
                request_id=self._request_counter, accepted=accepted,
                rung=rung, reason=reason, store_version=store_version,
            )
            self._tracer.finish(span)
        return Decision(
            request_id=self._request_counter,
            op=request.op,
            stream=request.stream_name,
            accepted=accepted,
            rung=rung,
            reason=reason,
            latency_ms=latency_ms,
            store_version=store_version,
            batch_id=batch.batch_id,
            batch_size=batch_size,
            attempts=dict(attempts or {}),
        )

    # -- request screening ---------------------------------------------
    def _screen(
        self,
        request: AdmissionRequest,
        schedule: NetworkSchedule,
        batch_so_far: Sequence[AdmissionRequest],
    ) -> Optional[str]:
        """Cheap structural checks before any solver runs.

        Returns a rejection reason, or ``None`` when the request is
        worth a solve.
        """
        name = request.stream_name
        pending = {n for r in batch_so_far for n in claimed_names(r)}
        scheduled = schedule.streams_by_name.get(name)
        is_ect = any(e.name == name for e in schedule.ect_streams)
        if isinstance(request, (AdmitTct, AdmitEct)):
            if is_ect:
                return f"stream name {name!r} already in use"
            for taken in claimed_names(request):
                if taken in schedule.streams_by_name or taken in pending:
                    return f"stream name {taken!r} already in use"
            try:
                if isinstance(request, AdmitTct):
                    request.requirement.resolve(schedule.topology)
                else:
                    request.ect.route(schedule.topology)
            except (StreamError, ValueError, KeyError) as exc:
                return f"unroutable request: {exc}"
            return None
        if isinstance(request, Remove):
            is_tct = (
                scheduled is not None and scheduled.type == StreamType.DET
            )
            if not (is_ect or is_tct):
                return f"no stream named {name!r} to remove"
            if name in pending:
                return f"stream {name!r} already touched by this batch"
            return None
        return f"unsupported request type {type(request).__name__}"

    # -- the fallback ladder -------------------------------------------
    def _climb_ladder(
        self, schedule: NetworkSchedule, batch: Sequence[AdmissionRequest]
    ) -> Tuple[
        Optional[Tuple[str, NetworkSchedule]], Dict[str, str], Optional[str]
    ]:
        """Run the rungs in order until one places the batch.

        Returns ``((rung name, new schedule), attempts, None)`` on
        success or ``(None, attempts, reason)`` with per-rung failure
        reasons.  A conclusive analytic reject ends the climb — a
        necessary condition failed, no later rung could succeed — and
        its witness is the reason.  The batch is resolved once; ring 0
        is placed by the first rung that needs it.
        """
        resolved = ResolvedBatch(schedule, batch)
        solvers = {
            RUNG_FASTPATH: lambda: self._construct(resolved),
            RUNG_FULL: lambda: self._resolve(resolved, RUNG_FULL),
            RUNG_HEURISTIC: lambda: self._resolve(resolved, RUNG_HEURISTIC),
        }
        attempts: Dict[str, str] = {}
        for rung in self._rungs:
            try:
                result = self._run_rung(
                    rung, solvers[rung.name], attempts, resolved
                )
            except ConclusiveReject as exc:
                return None, attempts, str(exc)
            if result is not None:
                return (rung.name, result), attempts, None
        detail = "; ".join(f"{rung}: {why}" for rung, why in attempts.items())
        return None, attempts, f"all ladder rungs failed ({detail})"

    def _run_rung(
        self,
        rung: RungConfig,
        solver: Callable[[], NetworkSchedule],
        attempts: Dict[str, str],
        batch: ResolvedBatch,
    ) -> Optional[NetworkSchedule]:
        def count(what: str) -> None:
            self._metrics.counter(f"rungs.{rung.name}.{what}").inc()

        count("attempts")
        started = self._clock()
        try:
            with self._tracer.span(
                "admission.rung", rung=rung.name
            ) as rung_span:
                try:
                    with self._tracer.span("solve", rung=rung.name):
                        result = solver()
                except (InfeasibleError, ScheduleError, StreamError,
                        ValueError) as exc:
                    count("failures")
                    attempts[rung.name] = str(exc)
                    rung_span.set(
                        outcome="infeasible",
                        **self._ring_attributes(batch),
                    )
                    if isinstance(exc, CertifiedInfeasibleError):
                        # the rejection's UNSAT proof replayed cleanly
                        self._metrics.counter(
                            "certificates.verified_unsat"
                        ).inc()
                        rung_span.set(certified=True)
                    if isinstance(exc, ConclusiveReject):
                        rung_span.set(conclusive=True)
                        raise
                except Exception as exc:  # noqa: BLE001 - keep the service up
                    count("errors")
                    attempts[rung.name] = f"{type(exc).__name__}: {exc}"
                    rung_span.set(outcome="error")
                    if isinstance(exc, CertificateError):
                        # a verdict failed independent checking: a
                        # solver bug — surfaced loudly, never silently
                        # admitted
                        self._metrics.counter("certificates.failed").inc()
                        rung_span.set(certified=False)
                else:
                    count("successes")
                    rung_span.set(
                        outcome="success",
                        **self._ring_attributes(batch),
                    )
                    if rung.name != RUNG_FASTPATH:
                        # a constructive accept runs no solver; its
                        # meta is the snapshot's, stats and all
                        self._harvest_solver_stats(result)
                    return result
        finally:
            self._metrics.histogram(
                f"latency.rung.{rung.name}_ms"
            ).observe((self._clock() - started) * 1e3)
        return None

    @staticmethod
    def _ring_attributes(batch: ResolvedBatch) -> Dict[str, object]:
        """The span attributes of the ring a re-solve rung decided with:
        its name and how many live streams it released (none before a
        re-solve rung ran)."""
        if batch.ring is None:
            return {}
        ring, released = batch.ring
        return {"ring": ring, "released": released}

    def _harvest_solver_stats(self, result: NetworkSchedule) -> None:
        """Fold a solve's SMT search counters into the service metrics.

        The SMT backend records its :class:`~repro.smt.sat.SolverStats`
        snapshot in ``schedule.meta``; the heuristic backends have no
        CDCL core and contribute nothing here.
        """
        stats = result.meta.get("solver_stats")
        if isinstance(stats, dict):
            for key, value in stats.items():
                if isinstance(value, int) and not isinstance(value, bool):
                    self._metrics.counter(f"solver.{key}").inc(value)
        certificate = result.meta.get("certificate")
        if isinstance(certificate, dict) and certificate.get("verified"):
            self._metrics.counter("certificates.verified_sat").inc()

    # rung 1: ring 0 around the frozen schedule ------------------------
    def _construct(self, batch: ResolvedBatch) -> NetworkSchedule:
        result = fastpath_module.decide(batch)
        verdict = result.verdict
        if verdict == fastpath_module.REJECT and self._config.certify:
            # every certified rejection carries a replayed UNSAT proof
            verdict = fastpath_module.INCONCLUSIVE
        self._metrics.counter(_FASTPATH_COUNTERS[verdict]).inc()
        if verdict == fastpath_module.ACCEPT:
            if self._config.certify:
                validate(result.schedule)
            return result.schedule
        if verdict == fastpath_module.REJECT:
            raise ConclusiveReject(result.reason)
        raise InfeasibleError(result.reason) from result.failure

    # rungs 2/3: repair the batch's ring, or re-solve the target stream
    # set from scratch --------------------------------------------------
    def _resolve(
        self, batch: ResolvedBatch, rung_name: str
    ) -> NetworkSchedule:
        """Repair a ring, or re-solve the whole network; ``batch.ring``
        records which ring decided and how many live streams it
        released (``whole`` releases every one)."""
        batch.ring = None
        if batch.error is not None:
            raise batch.error
        schedule = batch.schedule
        backend = (
            self._config.backend if rung_name == RUNG_FULL else "heuristic"
        )
        if backend == "heuristic":
            try:
                ring, released, result = self._repair_ring(batch)
                if self._config.certify:
                    validate(result)
            except (InfeasibleError, ScheduleError):
                pass  # the whole re-solve below decides
            else:
                # a repair runs no solver: the snapshot's search stats
                # and certificate are not this result's to report
                result.meta.pop("solver_stats", None)
                result.meta.pop("certificate", None)
                result.meta["resolved_by"] = rung_name
                batch.ring = (ring, released)
                return result
        batch.ring = ("whole", sum(
            s.name not in batch.removed for s in schedule.streams
        ))
        ects = [
            e for e in schedule.ect_streams if e.name not in batch.removed
        ] + batch.ects
        # probabilistic possibilities are regenerated from the ECT specs
        # by the solver, so only the deterministic population carries over
        tct = [
            s for s in schedule.streams
            if s.type == StreamType.DET and s.name not in batch.removed
        ] + batch.tct
        if backend == "heuristic":
            restarts = max(
                self._config.heuristic_min_restarts,
                2 * (len(tct) + sum(e.possibilities for e in ects)) + 4,
            )
            result = schedule_heuristic(
                schedule.topology, tct, ects, max_restarts=restarts
            )
        else:
            result = schedule_etsn(
                schedule.topology, tct, ects, backend=backend,
                proof=self._config.certify,
                max_conflicts=_SMT_MAX_CONFLICTS,
            )
        result.meta["resolved_by"] = rung_name
        return result

    def _repair_ring(
        self, batch: ResolvedBatch
    ) -> Tuple[str, int, NetworkSchedule]:
        """Re-place the batch with a *ring* of released deterministic
        streams, grown from where placement failed:

        1. none — ring 0, the constructive rung's own attempt, placed
           once per climb; its failure names the stream F that did not
           fit and F's cut (``gap``: the gap cut of F's failing frame,
           or F's stream cut when the frame has none — see
           :class:`InfeasibleError`);
        2. gap — the streams of that cut that are live, deterministic,
           not sharers of the batch's ECT (every ring re-places those
           first) and looser than F (a greater ``(period, e2e, name)``,
           placed after F as a whole re-solve would place them); when
           the ring fails, the looser streams the new failure's cut
           names join and the ring is tried again — an ejection chain
           that ends when a failure adds no new stream, so it is
           bounded by the live looser streams.

        Each ring is re-placed with the batch around the frozen rest
        (:meth:`ResolvedBatch.place`), and when the chain ends its last
        failure hands the batch to the whole re-solve.  Live
        probabilistic slots stay frozen, so every live ECT keeps its
        guarantee.  The result is checked like a constructive accept:
        ``validate_delta`` over what moved and a full ``validate``
        under ``certify``.  Returns the ring's name (``none`` or
        ``gap``), how many live streams it released, and the schedule.
        """
        by_name = batch.schedule.streams_by_name
        admits = {stream.name: stream for stream in batch.tct}
        frozen = batch.removed | {stream.name for stream in batch.sharers}

        def looser_of(failure: Exception) -> List[Stream]:
            stream = getattr(failure, "stream", None)
            failed = admits.get(stream) or by_name.get(stream)
            if failed is None:
                return []
            bound = _tightness(failed)
            return [
                by_name[name] for name in getattr(failure, "gap", ())
                if name in by_name and by_name[name].type == StreamType.DET
                and name not in frozen
                and _tightness(by_name[name]) > bound
            ]

        def attempt(ring: List[Stream]) -> Tuple[
            Optional[NetworkSchedule], Optional[Exception]
        ]:
            try:
                return batch.place(ring), None
            except (InfeasibleError, ScheduleError) as exc:
                # a copy, without the traceback that holds the batch
                return None, copy.copy(exc)

        result, failure = attempt([])
        if result is not None:
            return "none", 0, result
        ring = looser_of(failure)
        while ring:
            result, failure = attempt(ring)
            if result is not None:
                return "gap", len(ring), result
            names = {s.name for s in ring}
            ring += [s for s in looser_of(failure) if s.name not in names]
            if len(ring) == len(names):
                break
        # a copy: raised, ``failure`` would form a cycle with this frame
        raise copy.copy(failure)

    # -- deployment emission -------------------------------------------
    def _emit_deployment(self, schedule: NetworkSchedule) -> None:
        if not self._config.emit_deployments:
            return
        if not schedule.streams and not schedule.ect_streams:
            # Retiring the last stream leaves nothing to program into the
            # switches; there is no GCL for an empty schedule.
            self._metrics.counter("deployments.skipped_empty").inc()
            return
        deployment = deployment_from_schedule(schedule)
        # deployments are emitted from the publish path, under _write_lock
        self._last_deployment = deployment  # repro: lint-ok[lock-discipline]
        self._metrics.counter("deployments.emitted").inc()
        if self._on_deploy is not None:
            self._on_deploy(deployment)


def claimed_names(request: AdmissionRequest) -> List[str]:
    """The names ``request`` takes or touches: its own and, as an ECT is
    scheduled under its possibilities' names, an ECT admit's of those."""
    if isinstance(request, AdmitEct):
        return [request.stream_name] + possibility_names(request.ect)
    return [request.stream_name]


def empty_schedule(topology) -> NetworkSchedule:
    """A zero-stream schedule to seed a store for a fresh network."""
    topology.validate()
    schedule = NetworkSchedule(
        topology=topology, streams=[], slots={}, ect_streams=[], meta={}
    )
    validate(schedule)
    return schedule
