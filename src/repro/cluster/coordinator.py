"""The cluster coordinator: a partitioned view over one admission store.

One :class:`ClusterCoordinator` holds one
:class:`~repro.service.store.ScheduleStore` and one
:class:`~repro.service.admission.AdmissionService` over the whole
topology of a :class:`~repro.cluster.partition.NetworkPartition`, and
decides every request on the caller's thread.  The paper states its
guarantees (Eqs. 1–7) on one network time axis computed by one CNC,
and that is the axis the store keeps: a route that crosses a shard
border — or leaves a shard and comes back — is an ordinary admit, timed
end to end by the same ladder as a shard-local one, and a cross-shard
ECT is admitted like any other.  Stream names are unique network-wide
because the service's screen claims them store-wide.

The partition is what the view adds: every directed link has one owning
shard (its source's, where the egress gate sits), each request is
counted as ``cluster.requests_local`` or ``cluster.requests_cross`` by
the shards its route crosses, and :meth:`ClusterCoordinator.status`
reports each shard's stream population off the links it owns.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.gcl import NetworkGcl, build_gcl
from repro.core.gcl_audit import audit_gcl
from repro.core.schedule import NetworkSchedule, validate
from repro.model.topology import TopologyError
from repro.obs.export import to_prometheus
from repro.obs.trace import NULL_TRACER, Tracer
from repro.service.admission import (
    AdmissionService,
    ServiceConfig,
    empty_schedule,
)
from repro.service.metrics import MetricsRegistry
from repro.service.requests import (
    AdmissionRequest,
    AdmitEct,
    AdmitTct,
    Decision,
)
from repro.service.store import ScheduleStore
from repro.cluster.partition import NetworkPartition, partition_topology


class ClusterCoordinator:
    """Admission over a partitioned network: one store, per-shard views."""

    def __init__(
        self,
        topology=None,
        partition: Optional[NetworkPartition] = None,
        shard_count: int = 4,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if partition is None:
            if topology is None:
                raise ValueError("need a topology or a partition")
            partition = partition_topology(topology, shard_count)
        self._partition = partition
        self._config = config or ServiceConfig()
        # one registry holds the store's, the service's and the
        # coordinator's own cluster.* series
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._clock = clock
        self._store = ScheduleStore(
            empty_schedule(partition.topology), metrics=self._metrics
        )
        self._service = AdmissionService(
            self._store, config=self._config, clock=clock,
            tracer=self._tracer,
        )
        self._metrics.gauge("cluster.shards").set(len(partition.shards))

    # -- public surface ------------------------------------------------
    @property
    def partition(self) -> NetworkPartition:
        return self._partition

    @property
    def store(self) -> ScheduleStore:
        """The one store every shard's view reads."""
        return self._store

    @property
    def metrics(self) -> MetricsRegistry:
        """The store's, the service's and the ``cluster.*`` series."""
        return self._metrics

    @property
    def tracer(self) -> Tracer:
        return self._tracer

    def prometheus(self, namespace: str = "repro") -> str:
        """One Prometheus exposition: the admission series and the
        ``cluster.*`` series share one registry."""
        return to_prometheus(self._metrics, namespace=namespace)

    def shard_store(self, name: str) -> ScheduleStore:
        """The store shard ``name`` reads: the one store."""
        self._partition.shard(name)  # raises PartitionError if unknown
        return self._store

    def shard_names(self) -> List[str]:
        return [shard.name for shard in self._partition.shards]

    def submit(self, request: AdmissionRequest) -> Decision:
        """Decide one request."""
        return self.submit_many([request])[0]

    def submit_many(
        self, requests: Sequence[AdmissionRequest]
    ) -> List[Decision]:
        """Decide a request batch on the caller's thread, in order.

        Each request is counted as local or cross-shard, then the batch
        goes to the one admission service, which batches compatible
        neighbours and splits the batch at a repeated stream name.
        """
        started = self._clock()
        with self._tracer.span(
            "cluster.batch", size=len(requests)
        ) as batch_span:
            cross = sum(1 for request in requests if self._crosses(request))
            local = len(requests) - cross
            self._metrics.counter("cluster.requests_total").inc(len(requests))
            self._metrics.counter("cluster.requests_local").inc(local)
            self._metrics.counter("cluster.requests_cross").inc(cross)
            batch_span.set(local=local, cross=cross)
            decisions = self._service.submit_many(requests)
        self._metrics.histogram("cluster.latency.batch_ms").observe(
            (self._clock() - started) * 1e3
        )
        return decisions

    def global_schedule(self) -> NetworkSchedule:
        """The published schedule over the whole topology."""
        return self._store.schedule

    def audit(self, mode: str = "etsn") -> Optional[NetworkGcl]:
        """Validate the global schedule and audit its GCL.

        Runs the full :func:`~repro.core.schedule.validate` (Eqs. 1–7,
        whole paths) and then GCL synthesis plus
        :func:`~repro.core.gcl_audit.audit_gcl`; raises
        :class:`~repro.core.schedule.ScheduleError` or
        :class:`~repro.core.gcl_audit.GclAuditError` on a violation.
        Returns ``None`` while nothing is admitted (there is no GCL for
        an empty schedule).
        """
        schedule = self._store.schedule
        validate(schedule)
        if not schedule.streams and not schedule.ect_streams:
            return None
        gcl = build_gcl(schedule, mode=mode)
        audit_gcl(schedule, gcl)
        self._metrics.counter("cluster.audits").inc()
        return gcl

    def status(self) -> Dict:
        """JSON-able cluster summary: shards, versions, populations.

        A shard's ``streams`` / ``ect_streams`` count what crosses at
        least one link the shard owns.
        """
        snapshot = self._store.snapshot()
        schedule = snapshot.schedule
        owner = self._partition.owner_of_link
        streams: Dict[str, int] = {}
        ects: Dict[str, int] = {}
        for stream in schedule.streams:
            for shard in {owner(link.key) for link in stream.path}:
                streams[shard] = streams.get(shard, 0) + 1
        for ect in schedule.ect_streams:
            route = ect.route(schedule.topology)
            for shard in {owner(link.key) for link in route}:
                ects[shard] = ects.get(shard, 0) + 1
        return {
            "shards": {
                shard.name: {
                    "version": snapshot.version,
                    "streams": streams.get(shard.name, 0),
                    "ect_streams": ects.get(shard.name, 0),
                    "switches": list(shard.switches),
                    "devices": list(shard.devices),
                    "border_nodes": list(shard.border_nodes),
                }
                for shard in self._partition.shards
            },
            "boundary_links": [list(k) for k in self._partition.boundary_links],
            "metrics": self._metrics.to_dict(),
        }

    def shutdown(self) -> None:
        """Nothing to release: the coordinator owns no threads."""

    # -- internals -----------------------------------------------------
    def _crosses(self, request: AdmissionRequest) -> bool:
        """Whether ``request``'s route has links in more than one shard.

        An admit is routed over the topology; a remove takes the path of
        the live stream it names.  A request without a route (unknown
        endpoints, no such stream) counts as local.
        """
        schedule = self._store.schedule
        name = request.stream_name
        try:
            if isinstance(request, AdmitTct):
                requirement = request.requirement
                path = schedule.topology.shortest_path(
                    requirement.source, requirement.destination
                )
            elif isinstance(request, AdmitEct):
                path = request.ect.route(schedule.topology)
            elif name in schedule.streams_by_name:
                path = schedule.streams_by_name[name].path
            else:
                path = next((
                    e.route(schedule.topology)
                    for e in schedule.ect_streams if e.name == name
                ), ())
        except (TopologyError, ValueError, KeyError):
            return False
        return bool(path) and len(self._partition.shards_for_route(path)) > 1
