"""The cluster coordinator: sharded multi-tenant admission.

One :class:`ClusterCoordinator` fronts a fleet of per-shard
:class:`~repro.service.admission.AdmissionService` +
:class:`~repro.service.store.ScheduleStore` pairs, one per shard of a
:class:`~repro.cluster.partition.NetworkPartition`.  Every request is
decided on the caller's thread:

* **Shard-local requests** (the common case — industrial cells mostly
  talk within themselves) are routed to their shard and admitted under
  that shard's lock, one shard sub-batch after the other.  The shards
  share one GIL, so a thread pool over them bought no parallelism, only
  a hand-off per sub-batch.
* **Cross-shard requests** split into per-shard route segments at the
  partition's boundary links and run lock → solve → publish: take every
  involved shard's lock in sorted shard-name order (the one global lock
  order, so concurrent callers cannot deadlock), solve each segment
  against its shard's live schedule, and publish every shard with an
  ``expected_version`` CAS — or nothing, when any segment fails.  The
  locks are held throughout, so a stale version can only come from a
  writer that bypassed the coordinator; the shards already published
  are then rolled back and the request is rejected as
  ``cross_shard_cas_exhausted``.
* The **merged global view** (:meth:`ClusterCoordinator.global_schedule`)
  stitches the per-shard snapshots back into one
  :class:`~repro.core.schedule.NetworkSchedule` over the global
  topology; :meth:`ClusterCoordinator.audit` runs GCL synthesis plus
  :func:`~repro.core.gcl_audit.audit_gcl` on the stitched result, so a
  half-committed cross-shard stream can never hide.

Timing across a boundary is store-and-forward: each shard times its
segment on its own axis and the border switch buffers until the next
shard's slot opens (the per-domain stitching used by cycle-based
TSN deployments).  A cross-shard stream's end-to-end budget is split
across its segments proportionally to hop count (the splits sum exactly
to the budget), so each shard validates its segment against a share of
the deadline rather than the whole of it.  Per-link gate consistency —
what the audit checks — holds exactly, because every directed link is
scheduled by exactly one shard.  Cross-shard **ECT** admission is
rejected as a structured decision (reason
``cross_shard_ect_unsupported``): splitting an event's probabilistic
possibilities across independently-timed shards has no sound semantics
in the paper's model.  A route that leaves a shard and re-enters it
(possible with shortest paths on ring-containing topologies) is
rejected as ``reentrant_route_unsupported``: two disjoint sub-paths in
one shard cannot be expressed as a single source→destination
sub-admit.

Stream names are unique **cluster-wide**, not merely per shard: an
admit claims its name (an ECT admit also its possibilities' names, under
which it is scheduled) under the coordinator lock and is rejected with
``name_in_use`` when any shard already holds one (or a concurrent admit
is in flight for it) — otherwise two same-named streams on different
shards would corrupt the stitched global view and a ``Remove`` would
retire both.

All traffic for a shard must flow through the coordinator: its
per-shard locks are what make a cross-shard publish all-or-nothing,
and its name claims are what keep stream names unique across shards.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.gcl import NetworkGcl, build_gcl
from repro.core.gcl_audit import audit_gcl
from repro.core.schedule import NetworkSchedule
from repro.model.stream import Stream, StreamError, TctRequirement
from repro.model.topology import TopologyError
from repro.check.sanitizer import make_lock
from repro.obs.events import NULL_EVENT_LOG, EventLog
from repro.obs.export import cluster_to_prometheus
from repro.obs.trace import NULL_TRACER, Tracer
from repro.service import fastpath as fastpath_module
from repro.service.admission import (
    AdmissionService,
    ServiceConfig,
    claimed_names,
    empty_schedule,
)
from repro.service.metrics import MetricsRegistry
from repro.service.requests import (
    AdmissionRequest,
    AdmitEct,
    AdmitTct,
    Decision,
    Remove,
)
from repro.service.store import (
    ScheduleStore,
    StaleVersionError,
    StoreSnapshot,
)
from repro.cluster.partition import NetworkPartition, partition_topology

#: Decision.rung value for accepted cross-shard requests.
RUNG_TWOPHASE = "twophase"

#: Structured rejection reasons the coordinator itself produces.
REASON_CROSS_ECT = "cross_shard_ect_unsupported"
REASON_UNROUTABLE = "unroutable"
REASON_UNKNOWN_STREAM = "unknown_stream"
REASON_NAME_IN_USE = "name_in_use"
REASON_REENTRANT = "reentrant_route_unsupported"
#: a cross-shard publish found a shard's version moved under its lock
REASON_CAS_EXHAUSTED = "cross_shard_cas_exhausted"


class _Rejected(Exception):
    """A cross-shard request rejected before any shard is locked."""


@dataclass
class _ShardRuntime:
    """One shard's store/service pair and the lock the coordinator holds
    while it writes to the shard's store."""

    shard_name: str
    store: ScheduleStore
    service: AdmissionService
    lock: threading.Lock


@dataclass(frozen=True)
class _Placement:
    """Where one request goes: its shards, or an immediate rejection."""

    shards: Tuple[str, ...] = ()
    reject_reason: Optional[str] = None

    @property
    def is_local(self) -> bool:
        return len(self.shards) == 1 and self.reject_reason is None


class ClusterCoordinator:
    """Routes admission traffic across a sharded store fleet."""

    def __init__(
        self,
        topology=None,
        partition: Optional[NetworkPartition] = None,
        shard_count: int = 4,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        events: Optional[EventLog] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if partition is None:
            if topology is None:
                raise ValueError("need a topology or a partition")
            partition = partition_topology(topology, shard_count)
        self._partition = partition
        self._config = config or ServiceConfig()
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        # One tracer and one event journal are shared by the coordinator
        # and every shard service, so a cross-shard admission is a single
        # trace and the journal interleaves all shards chronologically.
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._events = events if events is not None else NULL_EVENT_LOG
        self._clock = clock
        self._runtimes: Dict[str, _ShardRuntime] = {}
        for shard in partition.shards:
            store = ScheduleStore(empty_schedule(shard.topology))
            self._runtimes[shard.name] = _ShardRuntime(
                shard_name=shard.name,
                store=store,
                service=AdmissionService(
                    store, config=self._config, tracer=self._tracer,
                    events=self._events,
                ),
                lock=make_lock(
                    "_ShardRuntime.lock",
                    group="cluster.shards", key=shard.name,
                ),
            )
        self._metrics.gauge("cluster.shards").set(len(partition.shards))
        self._lock = make_lock("ClusterCoordinator._lock")
        self._request_counter = 0
        #: names claimed by admits between placement and decision,
        #: guarded by ``_lock`` — closes the window in which two admits
        #: of one wave (or of two concurrent callers) could land the
        #: same name on two shards.
        self._inflight_names: set = set()

    # -- public surface ------------------------------------------------
    @property
    def partition(self) -> NetworkPartition:
        return self._partition

    @property
    def metrics(self) -> MetricsRegistry:
        """Cluster-level metrics (``cluster.*``); per-shard service and
        store metrics live on each shard's own registry."""
        return self._metrics

    @property
    def tracer(self) -> Tracer:
        return self._tracer

    @property
    def events(self) -> EventLog:
        return self._events

    def prometheus(self, namespace: str = "repro") -> str:
        """One Prometheus exposition for the whole cluster.

        Every shard registry's samples carry a ``shard`` label (per-rung
        admission latency per shard, ready to scrape); the coordinator's
        own ``cluster.*`` series ride along unlabelled.
        """
        return cluster_to_prometheus(
            {
                name: runtime.store.metrics.to_dict()
                for name, runtime in self._runtimes.items()
            },
            cluster_snapshot=self._metrics.to_dict(),
            namespace=namespace,
        )

    def shard_service(self, name: str) -> AdmissionService:
        return self._runtime(name).service

    def shard_store(self, name: str) -> ScheduleStore:
        return self._runtime(name).store

    def shard_names(self) -> List[str]:
        return [shard.name for shard in self._partition.shards]

    def submit(self, request: AdmissionRequest) -> Decision:
        """Decide one request (shard-local or cross-shard)."""
        return self.submit_many([request])[0]

    def submit_many(
        self, requests: Sequence[AdmissionRequest]
    ) -> List[Decision]:
        """Decide a request batch on the caller's thread.

        Decisions come back in submission order.  Each shard's local
        requests go to its service as one sub-batch, keeping their
        relative order; cross-shard requests run after the local wave,
        one at a time.  A repeated stream name splits the batch into
        sequential waves, so a remove (or re-admit) sees the effect of
        the earlier request it follows.
        """
        started = self._clock()
        with self._tracer.span(
            "cluster.batch", size=len(requests)
        ) as batch_span:
            decisions: List[Optional[Decision]] = [None] * len(requests)
            local_total = cross_total = 0
            for wave in self._waves(requests):
                local, cross = self._run_wave(requests, wave, decisions)
                local_total += local
                cross_total += cross
            batch_span.set(local=local_total, cross=cross_total)
        self._metrics.histogram("cluster.latency.batch_ms").observe(
            (self._clock() - started) * 1e3
        )
        if self._tracer.enabled:
            self._metrics.gauge("tracer.spans_dropped").set(
                self._tracer.dropped
            )
        if self._events.enabled:
            self._metrics.gauge("events.dropped").set(self._events.dropped)
        return [d for d in decisions if d is not None]

    @staticmethod
    def _waves(requests: Sequence[AdmissionRequest]) -> List[List[int]]:
        """Split a batch into waves at repeated stream names.

        Placement consults live shard state (a remove routes to the
        shards holding the stream), so a request naming a stream an
        earlier batch-mate touches must wait until that wave lands.
        """
        waves: List[List[int]] = []
        current: List[int] = []
        names: set = set()
        for index, request in enumerate(requests):
            if request.stream_name in names:
                waves.append(current)
                current, names = [], set()
            current.append(index)
            names.add(request.stream_name)
        if current:
            waves.append(current)
        return waves

    def _run_wave(
        self,
        requests: Sequence[AdmissionRequest],
        wave: List[int],
        decisions: List[Optional[Decision]],
    ) -> Tuple[int, int]:
        """Place and decide one wave; returns (local, cross) counts."""
        by_shard: Dict[str, List[int]] = {}
        cross: List[int] = []
        claimed: List[str] = []
        try:
            for index in wave:
                request = requests[index]
                self._metrics.counter("cluster.requests_total").inc()
                if isinstance(request, (AdmitTct, AdmitEct)):
                    names = claimed_names(request)
                    problem = self._claim_names(names)
                    if problem is not None:
                        self._metrics.counter(
                            "cluster.rejected_name_in_use"
                        ).inc()
                        decisions[index] = self._reject(request, problem)
                        continue
                    claimed.extend(names)
                placement = self._place(request)
                if placement.reject_reason is not None:
                    decisions[index] = self._reject(
                        request, placement.reject_reason
                    )
                elif placement.is_local:
                    by_shard.setdefault(placement.shards[0], []).append(index)
                else:
                    cross.append(index)

            for shard_name, indices in by_shard.items():
                self._metrics.counter(
                    "cluster.requests_local"
                ).inc(len(indices))
                runtime = self._runtimes[shard_name]
                started = self._clock()
                with self._tracer.span(
                    "cluster.shard_batch", shard=shard_name,
                    size=len(indices),
                ):
                    with runtime.lock:
                        answers = runtime.service.submit_many(
                            [requests[i] for i in indices]
                        )
                self._metrics.histogram(
                    "cluster.latency.shard_batch_ms"
                ).observe((self._clock() - started) * 1e3)
                for i, decision in zip(indices, answers):
                    decisions[i] = decision

            for index in cross:
                self._metrics.counter("cluster.requests_cross").inc()
                decisions[index] = self._submit_cross(requests[index])
        finally:
            # claims cover placement through publish; once the wave's
            # decisions are in, the stores themselves hold the names
            if claimed:
                with self._lock:
                    self._inflight_names.difference_update(claimed)
        return sum(len(v) for v in by_shard.values()), len(cross)

    def global_schedule(self) -> NetworkSchedule:
        """Stitch the per-shard snapshots into one global schedule.

        Cross-shard streams reappear whole: their per-shard segment
        streams chain back together at the border switches, and the
        merged slot table keys every directed link exactly once (each
        is scheduled by exactly one shard).
        """
        snapshots = {
            name: runtime.store.snapshot()
            for name, runtime in self._runtimes.items()
        }
        slots: Dict[Tuple[str, Tuple[str, str]], List] = {}
        by_name: Dict[str, List[Stream]] = {}
        ect_streams: List = []
        for name in sorted(snapshots):
            schedule = snapshots[name].schedule
            for key, frame_slots in schedule.slots.items():
                slots[key] = list(frame_slots)
            for stream in schedule.streams:
                by_name.setdefault(stream.name, []).append(stream)
            ect_streams.extend(schedule.ect_streams)
        streams = [
            _stitch_segments(name, segments)
            for name, segments in by_name.items()
        ]
        return NetworkSchedule(
            topology=self._partition.topology,
            streams=streams,
            slots=slots,
            ect_streams=ect_streams,
            meta={
                "cluster": {
                    "shard_versions": {
                        name: snapshots[name].version for name in snapshots
                    }
                }
            },
        )

    def audit(self, mode: Optional[str] = None) -> Optional[NetworkGcl]:
        """Synthesize and audit the GCL of the stitched global view.

        Raises :class:`~repro.core.gcl_audit.GclAuditError` if any gate
        program contradicts the stitched schedule — the invariant an
        aborted cross-shard publish must never break.  Returns ``None`` while the
        cluster is empty (there is no GCL for an empty schedule).

        The audit covers per-link gate consistency, which is exact
        (every directed link is scheduled by one shard).  Whole-path
        latency is *not* re-validated here: segments across a border
        run on independent shard time axes under store-and-forward
        hand-over, so adjacent-link ordering does not hold across
        borders by construction; each segment's deadline share was
        already validated by its shard at admission.
        """
        schedule = self.global_schedule()
        if not schedule.streams and not schedule.ect_streams:
            return None
        gcl = build_gcl(schedule, mode=mode or self._config.gcl_mode)
        audit_gcl(schedule, gcl)
        self._metrics.counter("cluster.audits").inc()
        return gcl

    def status(self) -> Dict:
        """JSON-able cluster summary: shards, versions, populations."""
        shards = {}
        for shard in self._partition.shards:
            runtime = self._runtimes[shard.name]
            snapshot = runtime.store.snapshot()
            shards[shard.name] = {
                "version": snapshot.version,
                "streams": len(snapshot.schedule.streams),
                "ect_streams": len(snapshot.schedule.ect_streams),
                "switches": list(shard.switches),
                "devices": list(shard.devices),
                "border_nodes": list(shard.border_nodes),
            }
        return {
            "shards": shards,
            "boundary_links": [list(k) for k in self._partition.boundary_links],
            "metrics": self._metrics.to_dict(),
        }

    def shutdown(self) -> None:
        """Nothing to release: the coordinator owns no threads.  Kept
        so callers written against the pooled coordinator still run."""

    # -- placement -----------------------------------------------------
    def _place(self, request: AdmissionRequest) -> _Placement:
        if isinstance(request, Remove):
            holders = tuple(
                name for name, runtime in sorted(self._runtimes.items())
                if self._holds_stream(runtime, request.name)
            )
            if not holders:
                return _Placement(reject_reason=REASON_UNKNOWN_STREAM)
            return _Placement(shards=holders)
        try:
            if isinstance(request, AdmitTct):
                requirement = request.requirement
                path = self._partition.topology.shortest_path(
                    requirement.source, requirement.destination
                )
            elif isinstance(request, AdmitEct):
                path = list(request.ect.route(self._partition.topology))
            else:
                return _Placement(
                    reject_reason=(
                        f"unsupported request type {type(request).__name__}"
                    )
                )
        except (TopologyError, ValueError, KeyError) as exc:
            return _Placement(reject_reason=f"{REASON_UNROUTABLE}: {exc}")
        order = [s.shard for s in self._partition.split_route(path)]
        shards = tuple(dict.fromkeys(order))
        if isinstance(request, AdmitEct) and len(shards) > 1:
            self._metrics.counter("cluster.rejected_cross_ect").inc()
            return _Placement(reject_reason=REASON_CROSS_ECT)
        if len(order) != len(shards):
            # the route left a shard and came back (shortest paths can
            # do that on ring-containing topologies); two disjoint
            # sub-paths in one shard cannot be expressed as a single
            # source->destination sub-admit, so reject rather than
            # mis-solve
            self._metrics.counter("cluster.rejected_reentrant").inc()
            return _Placement(reject_reason=REASON_REENTRANT)
        return _Placement(shards=shards)

    def _claim_names(self, names: Sequence[str]) -> Optional[str]:
        """Atomically claim the names an admit takes, cluster-wide: its
        own and, for an ECT, its possibilities' (all or none).

        Returns a rejection reason when any shard already holds one of
        them or another in-flight admit claimed it; on ``None`` they
        stay claimed until the wave releases them.
        """
        with self._lock:
            for name in names:
                if name in self._inflight_names:
                    return (
                        f"{REASON_NAME_IN_USE}: stream name {name!r} has "
                        f"a concurrent admit in flight"
                    )
                for shard_name, runtime in sorted(self._runtimes.items()):
                    if self._holds_stream(runtime, name):
                        return (
                            f"{REASON_NAME_IN_USE}: stream name {name!r} "
                            f"is already admitted on {shard_name}"
                        )
            self._inflight_names.update(names)
            return None

    @staticmethod
    def _holds_stream(runtime: _ShardRuntime, name: str) -> bool:
        schedule = runtime.store.schedule
        return name in schedule.streams_by_name or any(
            e.name == name for e in schedule.ect_streams
        )

    # -- cross-shard path ----------------------------------------------
    def _submit_cross(self, request: AdmissionRequest) -> Decision:
        """Admit or remove one cross-shard stream on every involved
        shard or on none: lock → solve → publish.

        The involved shards' locks are taken in sorted shard-name order
        and held until every shard has published, so each segment is
        solved against the live schedule its publish will replace.  A
        failing segment publishes nothing.  A stale version means a
        writer bypassed the coordinator (see :meth:`shard_service`):
        the shards already published are rolled back under the same
        locks and the request is rejected.
        """
        started = self._clock()
        attempts: Dict[str, str] = {}
        try:
            per_shard = self._split(request, attempts)
        except _Rejected as exc:
            return self._reject(request, str(exc), attempts=attempts)
        shards = sorted(per_shard)
        snapshots: Dict[str, StoreSnapshot] = {}
        solved: Dict[str, NetworkSchedule] = {}
        published: Dict[str, int] = {}
        reason: Optional[str] = None
        held: List[_ShardRuntime] = []
        try:
            for name in sorted(per_shard):  # sorted: the global lock order
                runtime = self._runtimes[name]
                runtime.lock.acquire()
                held.append(runtime)
            with self._tracer.span(
                "cluster.prepare", shards=",".join(shards)
            ) as span:
                for runtime in held:
                    name = runtime.shard_name
                    snapshots[name] = runtime.store.snapshot()
                    # the segment's rung and solve spans nest beneath
                    # it: the trace shows which shard each solve ran for
                    with self._tracer.span("cluster.segment", shard=name):
                        outcome, tried = runtime.service.solve_against(
                            snapshots[name].schedule, per_shard[name]
                        )
                    for rung, why in tried.items():
                        attempts[f"{name}.{rung}"] = why
                    if outcome is None:
                        why = "; ".join(
                            f"{rung}: {why}" for rung, why in tried.items()
                        ) or "sub-solve failed"
                        span.set(outcome="infeasible", shard=name)
                        self._abort(why, phase="prepare", shard=name,
                                    shards=shards)
                        reason = f"{name}: {why}"
                        break
                    attempts[f"{name}.rung"], solved[name] = outcome
                else:
                    span.set(outcome="prepared")
            if reason is None:
                with self._tracer.span(
                    "cluster.commit", shards=",".join(shards)
                ) as span:
                    for runtime in held:
                        name = runtime.shard_name
                        try:
                            published[name] = runtime.store.publish(
                                solved[name],
                                expected_version=snapshots[name].version,
                            ).version
                        except StaleVersionError:
                            self._metrics.counter(
                                "cluster.twophase.commit_conflicts"
                            ).inc()
                            span.set(outcome="stale", shard=name)
                            self._rollback(published, snapshots)
                            self._abort("stale_version", phase="commit",
                                        shard=name, shards=shards)
                            reason = REASON_CAS_EXHAUSTED
                            break
                    else:
                        span.set(outcome="committed")
        finally:
            for runtime in reversed(held):
                runtime.lock.release()
        self._metrics.histogram("cluster.latency.cross_ms").observe(
            (self._clock() - started) * 1e3
        )
        if reason is not None:
            return self._reject(request, reason, attempts=attempts)
        return self._decide_cross(request, published, attempts)

    def _split(
        self, request: AdmissionRequest, attempts: Dict[str, str]
    ) -> Dict[str, List[AdmissionRequest]]:
        """Each involved shard's sub-requests.

        Raises :class:`_Rejected` when the request fails before any
        shard is locked.  Placement sends only ``AdmitTct`` and
        ``Remove`` here (a cross-shard ECT is rejected earlier).
        """
        if isinstance(request, Remove):
            return {
                name: [request]
                for name, runtime in sorted(self._runtimes.items())
                if self._holds_stream(runtime, request.name)
            }
        # Screen the *global* route first: the wire-time floor over the
        # whole path is a necessary condition however the e2e budget is
        # split across shard segments (store-and-forward can only add
        # latency), so a conclusive reject here saves locking and
        # solving every involved shard.
        reason = None
        try:
            stream = request.requirement.resolve(self._partition.topology)
            reason = fastpath_module.screen_route(stream)
        except (StreamError, ValueError, KeyError):
            pass  # routing problems get their structured reason below
        if reason is not None:
            self._metrics.counter("cluster.fastpath_rejects").inc()
            attempts["fastpath"] = reason
            raise _Rejected(reason)
        return self._segment_requests(request.requirement, attempts)

    def _segment_requests(
        self, requirement: TctRequirement, attempts: Dict[str, str]
    ) -> Dict[str, List[AdmissionRequest]]:
        """Split a TCT requirement into one segment admit per shard.

        Each segment keeps the stream's name, period, length and
        priority; the endpoints and the deadline change — a segment
        starts and ends on this shard's devices or border switches,
        and the stream's end-to-end budget is split across segments
        proportionally to hop count.  The shares sum exactly to the
        budget, so independently-timed segments that each meet their
        share keep the stitched stream inside its deadline up to the
        store-and-forward hand-over at the borders; the split is
        recorded in the decision's ``attempts["e2e_split"]`` so the
        caveat is visible to the caller.
        """
        path = self._partition.topology.shortest_path(
            requirement.source, requirement.destination
        )
        segments = self._partition.split_route(path)
        e2e = (requirement.e2e_ns if requirement.e2e_ns is not None
               else requirement.period_ns)
        total_hops = sum(len(segment.links) for segment in segments)
        budgets = [
            e2e * len(segment.links) // total_hops for segment in segments
        ]
        budgets[-1] += e2e - sum(budgets)  # rounding dust: exact sum
        if min(budgets) <= 0:
            raise _Rejected(
                f"e2e budget {e2e}ns cannot cover {len(segments)} shard "
                f"segments over {total_hops} hops"
            )
        attempts["e2e_split"] = " + ".join(
            f"{segment.shard}:{budget}ns"
            for segment, budget in zip(segments, budgets)
        ) + " (store-and-forward at borders)"
        return {
            segment.shard: [AdmitTct(replace(
                requirement,
                source=segment.source,
                destination=segment.destination,
                e2e_ns=budget,
            ))]
            for segment, budget in zip(segments, budgets)
        }

    def _rollback(
        self,
        published: Dict[str, int],
        snapshots: Dict[str, StoreSnapshot],
    ) -> None:
        """Republish each published shard's pre-commit schedule.

        The shard locks are still held, so the expected version is
        exactly what this commit created and the CAS cannot fail; a
        failure here would mean a second bypassing write and is raised
        rather than papered over.
        """
        with self._tracer.span(
            "cluster.rollback", shards=",".join(published)
        ):
            for name in reversed(list(published)):
                snapshot = snapshots[name]
                self._runtimes[name].store.publish(
                    snapshot.schedule, expected_version=published[name]
                )
                if self._events.enabled:
                    self._events.emit(
                        "twophase.rollback", shard=name,
                        rolled_back_version=published[name],
                        restored_version=snapshot.version,
                    )
                self._metrics.counter("cluster.twophase.rollbacks").inc()

    def _abort(self, reason: str, **attributes) -> None:
        self._metrics.counter("cluster.twophase.aborts").inc()
        if self._events.enabled:
            self._events.emit("twophase.abort", reason=reason, **attributes)

    # -- decisions -----------------------------------------------------
    def _next_request_id(self) -> int:
        with self._lock:
            self._request_counter += 1
            return self._request_counter

    def _reject(
        self,
        request: AdmissionRequest,
        reason: str,
        attempts: Optional[Dict[str, str]] = None,
    ) -> Decision:
        self._metrics.counter("cluster.rejected").inc()
        self._emit_decision(request, accepted=False, reason=reason)
        return Decision(
            request_id=self._next_request_id(),
            op=request.op,
            stream=request.stream_name,
            accepted=False,
            reason=reason,
            attempts=dict(attempts or {}),
        )

    def _decide_cross(
        self,
        request: AdmissionRequest,
        versions: Dict[str, int],
        attempts: Dict[str, str],
    ) -> Decision:
        if request.op == "remove":
            self._metrics.counter("cluster.removed_cross").inc()
        else:
            self._metrics.counter("cluster.admitted_cross").inc()
        self._emit_decision(
            request, accepted=True, rung=RUNG_TWOPHASE,
            shards=sorted(versions),
        )
        return Decision(
            request_id=self._next_request_id(),
            op=request.op,
            stream=request.stream_name,
            accepted=True,
            rung=RUNG_TWOPHASE,
            store_version=max(versions.values()) if versions else None,
            batch_size=len(versions),
            attempts=dict(attempts),
        )

    def _emit_decision(self, request, accepted, reason=None, rung=None,
                       shards=None) -> None:
        """Journal a coordinator-level verdict (cross commits, cluster
        rejects); shard-local verdicts are journalled by their shard's
        AdmissionService."""
        if not self._events.enabled:
            return
        context = self._tracer.current_context()
        attributes = {
            "request": request.stream_name, "op": request.op,
            "accepted": accepted, "scope": "cluster",
        }
        if reason is not None:
            attributes["reason"] = reason
        if rung is not None:
            attributes["rung"] = rung
        if shards is not None:
            attributes["shards"] = shards
        self._events.emit(
            "admission.decision",
            trace_id=getattr(context, "trace_id", None),
            span_id=getattr(context, "span_id", None),
            **attributes,
        )

    # -- internals -----------------------------------------------------
    def _runtime(self, name: str) -> _ShardRuntime:
        try:
            return self._runtimes[name]
        except KeyError:
            raise ValueError(f"no shard named {name!r}") from None


def _stitch_segments(name: str, segments: List[Stream]) -> Stream:
    """Chain a cross-shard stream's per-shard segments back together.

    Segments arrive in arbitrary shard order; the head is the one whose
    source no other segment delivers to, and each next segment starts
    where the previous one ended (the border switch).
    """
    if len(segments) == 1:
        return segments[0]
    ends = {segment.path[-1].dst for segment in segments}
    heads = [s for s in segments if s.path[0].src not in ends]
    if len(heads) != 1:
        raise ValueError(
            f"stream {name!r}: segments do not chain "
            f"({[(s.source, s.destination) for s in segments]})"
        )
    chain = [heads[0]]
    by_source = {s.path[0].src: s for s in segments if s is not heads[0]}
    while by_source:
        tail = chain[-1].path[-1].dst
        nxt = by_source.pop(tail, None)
        if nxt is None:
            raise ValueError(
                f"stream {name!r}: no segment continues from {tail!r}"
            )
        chain.append(nxt)
    path = tuple(link for segment in chain for link in segment.path)
    # per-segment deadlines were carved from the stream's budget and
    # sum back to it exactly (see ClusterCoordinator._segment_requests)
    return replace(
        chain[0],
        path=path,
        e2e_ns=sum(segment.e2e_ns for segment in chain),
    )
