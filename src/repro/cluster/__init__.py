"""Partitioned admission over one network-wide schedule.

:mod:`repro.cluster.partition` cuts the network into switch-cluster
shards and gives every directed link one owning shard;
:mod:`repro.cluster.coordinator` is a view over one admission service
and one store on the whole topology, so a cross-shard route is an
ordinary admit timed end to end, and the shards are what the view
reports traffic and populations by.
"""

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.partition import (
    NetworkPartition,
    PartitionError,
    Shard,
    partition_by_assignment,
    partition_topology,
)

__all__ = [
    "ClusterCoordinator",
    "NetworkPartition",
    "PartitionError",
    "Shard",
    "partition_by_assignment",
    "partition_topology",
]
