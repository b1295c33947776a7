"""Topology partitioning for the cluster view.

E-TSN's admission problem decomposes along the network: prudent
reservation (paper Alg. 1) is per-link, and the SMT formulation only
couples frames that traverse a common egress port.  This module cuts
the switch graph into **shards** — connected switch clusters plus their
attached devices — and gives every directed link one owning shard, so
traffic and stream populations can be reported per shard.

The partitioner is a deterministic multi-seed region growing over the
switch graph: seeds are spread greedily by hop distance (a farthest-
point heuristic), then every switch joins its nearest seed.  Nearest-
seed regions are connected, and on the line/ring/tree shapes industrial
TSN deploys on, the cut lands on the few inter-region trunk links — the
min-cut the TAS survey identifies as the natural decomposition seam.

A boundary link joins two shards.  Its directed half is owned by the
shard of its *source* node — the egress gate lives there — so every
directed link in the network has exactly one owner, and a shard's
**border nodes** are the foreign ends of the boundary links leaving it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.model.topology import Link, Topology


class PartitionError(ValueError):
    """Raised for impossible shard counts or malformed assignments."""


@dataclass(frozen=True)
class Shard:
    """One admission domain: a switch cluster and its devices.

    border_nodes
        Foreign nodes one boundary link away, owned by other shards.
    """

    name: str
    switches: Tuple[str, ...]
    devices: Tuple[str, ...]
    border_nodes: Tuple[str, ...]

    @property
    def nodes(self) -> Tuple[str, ...]:
        """Owned nodes only (border nodes excluded)."""
        return self.switches + self.devices


class NetworkPartition:
    """The shard decomposition of one network.

    Owns the global topology, the shard list, the node -> shard owner
    map, and the boundary-link set; answers the questions the
    coordinator asks (which shard owns a node or link, which shards a
    route touches).
    """

    def __init__(self, topology: Topology, shards: Sequence[Shard]) -> None:
        self._topology = topology
        self._shards: Tuple[Shard, ...] = tuple(shards)
        if not self._shards:
            raise PartitionError("a partition needs at least one shard")
        self._owner: Dict[str, str] = {}
        for shard in self._shards:
            for node in shard.nodes:
                if node in self._owner:
                    raise PartitionError(
                        f"node {node!r} assigned to both "
                        f"{self._owner[node]!r} and {shard.name!r}"
                    )
                self._owner[node] = shard.name
        unassigned = [
            n.name for n in topology.nodes if n.name not in self._owner
        ]
        if unassigned:
            raise PartitionError(f"nodes without a shard: {unassigned}")
        self._boundary: Tuple[Tuple[str, str], ...] = tuple(sorted(
            link.key for link in topology.links
            if self._owner[link.src] != self._owner[link.dst]
        ))

    # -- queries -------------------------------------------------------
    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def shards(self) -> Tuple[Shard, ...]:
        return self._shards

    @property
    def boundary_links(self) -> Tuple[Tuple[str, str], ...]:
        """Directed links whose endpoints live in different shards."""
        return self._boundary

    def shard(self, name: str) -> Shard:
        for shard in self._shards:
            if shard.name == name:
                return shard
        raise PartitionError(f"no shard named {name!r}")

    def owner_of(self, node: str) -> str:
        try:
            return self._owner[node]
        except KeyError:
            raise PartitionError(f"unknown node {node!r}") from None

    def owner_of_link(self, key: Tuple[str, str]) -> str:
        """The shard scheduling a directed link: its source's owner."""
        return self.owner_of(key[0])

    def shards_for_route(self, path: Sequence[Link]) -> List[str]:
        """Shards a route touches, in traversal order, deduplicated.

        Each directed link counts for the shard owning its source (where
        the egress gate sits), so a route from shard A into shard B
        touches B from the link after the boundary link on, and a route
        that leaves A and comes back names A once.
        """
        if not path:
            raise PartitionError("an empty route touches no shard")
        seen: List[str] = []
        for link in path:
            shard = self.owner_of_link(link.key)
            if shard not in seen:
                seen.append(shard)
        return seen

    def describe(self) -> str:
        """One-line-per-shard text rendering, for logs and the CLI."""
        lines = [
            f"Partition: {len(self._shards)} shards, "
            f"{len(self._boundary)} boundary links"
        ]
        for shard in self._shards:
            lines.append(
                f"  {shard.name}: switches {', '.join(shard.switches)}; "
                f"{len(shard.devices)} devices; "
                f"borders {', '.join(shard.border_nodes) or '-'}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# partitioners
# ----------------------------------------------------------------------
def partition_topology(
    topology: Topology,
    shard_count: int,
    seeds: Optional[Sequence[str]] = None,
) -> NetworkPartition:
    """Cut ``topology`` into ``shard_count`` connected switch clusters.

    Seeds default to a farthest-point spread over the switch graph
    (deterministic: ties break on insertion order); pass explicit seed
    switch names to pin the regions.  Devices follow the shard of their
    first attached switch.
    """
    topology.validate()
    switches = [n.name for n in topology.switches]
    if shard_count < 1:
        raise PartitionError(f"shard count must be >= 1, got {shard_count}")
    if shard_count > len(switches):
        raise PartitionError(
            f"cannot cut {len(switches)} switches into {shard_count} shards"
        )
    if seeds is None:
        seeds = _spread_seeds(topology, switches, shard_count)
    else:
        seeds = list(seeds)
        if len(seeds) != shard_count:
            raise PartitionError(
                f"need {shard_count} seeds, got {len(seeds)}"
            )
        for seed in seeds:
            if seed not in switches:
                raise PartitionError(f"seed {seed!r} is not a switch")
    assignment = _nearest_seed(topology, switches, seeds)
    return partition_by_assignment(topology, assignment)


def partition_by_assignment(
    topology: Topology, assignment: Dict[str, int]
) -> NetworkPartition:
    """Build a partition from an explicit ``switch -> shard index`` map.

    Devices follow their first attached switch; shard names are
    ``shard<i>`` for each index present in the assignment.
    """
    switches = {n.name for n in topology.switches}
    if set(assignment) != switches:
        missing = sorted(switches - set(assignment))
        extra = sorted(set(assignment) - switches)
        raise PartitionError(
            f"assignment must cover every switch exactly "
            f"(missing {missing}, not switches {extra})"
        )
    owner: Dict[str, int] = dict(assignment)
    for device in topology.devices:
        attached = [
            nbr for nbr in topology.neighbors(device.name)
            if topology.node(nbr).is_switch
        ]
        if not attached:
            raise PartitionError(
                f"device {device.name!r} has no attached switch"
            )
        owner[device.name] = assignment[attached[0]]
    boundary = [
        link for link in topology.links if owner[link.src] != owner[link.dst]
    ]
    return NetworkPartition(topology, [
        _build_shard(topology, f"shard{index}", index, owner, boundary)
        for index in sorted(set(assignment.values()))
    ])


def _spread_seeds(
    topology: Topology, switches: List[str], count: int
) -> List[str]:
    """Farthest-point seed spread over the switch graph."""
    seeds = [switches[0]]
    while len(seeds) < count:
        distance = _multi_source_hops(topology, switches, seeds)
        # the switch farthest from every existing seed; unreachable
        # switches (disconnected switch graph) are the farthest of all
        farthest = max(
            switches,
            key=lambda s: (distance.get(s, len(switches) + 1), -switches.index(s)),
        )
        if farthest in seeds:
            raise PartitionError(
                f"switch graph too small or degenerate for {count} seeds"
            )
        seeds.append(farthest)
    return seeds


def _multi_source_hops(
    topology: Topology, switches: List[str], sources: Sequence[str]
) -> Dict[str, int]:
    """Hop distance to the nearest source, over switch-switch links."""
    switch_set = set(switches)
    distance = {seed: 0 for seed in sources}
    frontier = list(sources)
    hops = 0
    while frontier:
        hops += 1
        next_frontier: List[str] = []
        for here in frontier:
            for nbr in topology.neighbors(here):
                if nbr in switch_set and nbr not in distance:
                    distance[nbr] = hops
                    next_frontier.append(nbr)
        frontier = next_frontier
    return distance


def _nearest_seed(
    topology: Topology, switches: List[str], seeds: Sequence[str]
) -> Dict[str, int]:
    """Assign each switch to its nearest seed (ties: lower shard index).

    Runs one BFS per seed in index order over a shared ``claimed`` map,
    expanding all seeds in lockstep so regions stay connected.
    """
    claimed: Dict[str, int] = {seed: index for index, seed in enumerate(seeds)}
    switch_set = set(switches)
    frontiers: List[List[str]] = [[seed] for seed in seeds]
    while any(frontiers):
        for index, frontier in enumerate(frontiers):
            next_frontier: List[str] = []
            for here in frontier:
                for nbr in topology.neighbors(here):
                    if nbr in switch_set and nbr not in claimed:
                        claimed[nbr] = index
                        next_frontier.append(nbr)
            frontiers[index] = next_frontier
    unreached = [s for s in switches if s not in claimed]
    for switch in unreached:  # disconnected switch graph: join shard 0
        claimed[switch] = 0
    return claimed


def _build_shard(
    topology: Topology,
    name: str,
    index: int,
    owner: Dict[str, int],
    boundary: Sequence[Link],
) -> Shard:
    """Shard ``index``'s nodes by role, in global insertion order, and
    its border nodes: the far ends of the boundary links leaving it."""
    switches = tuple(
        n.name for n in topology.switches if owner[n.name] == index
    )
    devices = tuple(
        n.name for n in topology.devices if owner[n.name] == index
    )
    borders: List[str] = []
    for link in boundary:
        if owner[link.src] == index and link.dst not in borders:
            borders.append(link.dst)
    return Shard(name, switches, devices, tuple(borders))
