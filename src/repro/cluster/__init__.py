"""Sharded multi-tenant admission over partitioned TSN networks.

The layer between the single-node admission service and the solvers:
:mod:`repro.cluster.partition` cuts the network into switch-cluster
shards, and :mod:`repro.cluster.coordinator` runs one admission service
per shard, deciding each request on its caller's thread — a
shard-local request under its shard's lock, a cross-shard request
under every involved shard's lock (taken in sorted order), solved
segment by segment and published to all of them or to none.
"""

from repro.cluster.coordinator import (
    REASON_CAS_EXHAUSTED,
    REASON_CROSS_ECT,
    REASON_NAME_IN_USE,
    REASON_REENTRANT,
    REASON_UNKNOWN_STREAM,
    REASON_UNROUTABLE,
    RUNG_TWOPHASE,
    ClusterCoordinator,
)
from repro.cluster.partition import (
    NetworkPartition,
    PartitionError,
    RouteSegment,
    Shard,
    partition_by_assignment,
    partition_topology,
)

__all__ = [
    "ClusterCoordinator",
    "NetworkPartition",
    "PartitionError",
    "REASON_CAS_EXHAUSTED",
    "REASON_CROSS_ECT",
    "REASON_NAME_IN_USE",
    "REASON_REENTRANT",
    "REASON_UNKNOWN_STREAM",
    "REASON_UNROUTABLE",
    "RUNG_TWOPHASE",
    "RouteSegment",
    "Shard",
    "partition_by_assignment",
    "partition_topology",
]
