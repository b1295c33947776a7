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

Each shard's sub-topology contains its own switches and devices plus
one-hop **border ghosts**: foreign nodes adjacent across a boundary
link.  Ghosts are dead ends (only the boundary link reaches them), so
shard-local routing can never sneak through a neighbouring shard, but a
cross-shard route segment can legally terminate on one.  The directed
half of a boundary link is owned by the shard of its *source* node —
the egress gate lives there — so every directed link in the network has
exactly one owner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.model.topology import Link, Topology, TopologyError


class PartitionError(ValueError):
    """Raised for impossible shard counts or malformed assignments."""


@dataclass(frozen=True)
class Shard:
    """One admission domain: a switch cluster and its devices.

    topology
        Private sub-topology: the shard's own nodes, every link between
        them, and the boundary links with their foreign endpoints added
        as dead-end border ghosts.
    border_nodes
        The ghost nodes — present in ``topology`` but owned elsewhere.
    """

    name: str
    switches: Tuple[str, ...]
    devices: Tuple[str, ...]
    border_nodes: Tuple[str, ...]
    topology: Topology

    @property
    def nodes(self) -> Tuple[str, ...]:
        """Owned nodes only (ghosts excluded)."""
        return self.switches + self.devices


@dataclass(frozen=True)
class RouteSegment:
    """A maximal run of one route's links owned by a single shard."""

    shard: str
    links: Tuple[Link, ...]

    @property
    def source(self) -> str:
        return self.links[0].src

    @property
    def destination(self) -> str:
        return self.links[-1].dst


class NetworkPartition:
    """The shard decomposition of one network.

    Owns the global topology, the shard list, the node -> shard owner
    map, and the boundary-link set; answers the routing questions the
    coordinator asks (which shard owns a node or link, how a route
    splits into per-shard segments).
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

    def split_route(self, path: Sequence[Link]) -> List[RouteSegment]:
        """Cut a link path into maximal single-owner segments, in order.

        Each directed link goes to the shard owning its source (where
        the egress gate sits), so a route crossing from shard A to
        shard B is cut *after* the boundary link: A's segment ends on
        B's border switch (a ghost in A's sub-topology) and B's segment
        starts there.
        """
        if not path:
            raise PartitionError("cannot split an empty route")
        segments: List[RouteSegment] = []
        current: List[Link] = []
        owner: Optional[str] = None
        for link in path:
            shard = self.owner_of_link(link.key)
            if owner is not None and shard != owner:
                segments.append(RouteSegment(owner, tuple(current)))
                current = []
            owner = shard
            current.append(link)
        segments.append(RouteSegment(owner, tuple(current)))  # type: ignore[arg-type]
        return segments

    def shards_for_route(self, path: Sequence[Link]) -> List[str]:
        """Shards a route touches, in traversal order, deduplicated."""
        seen: List[str] = []
        for segment in self.split_route(path):
            if segment.shard not in seen:
                seen.append(segment.shard)
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
    indices = sorted(set(assignment.values()))
    members: Dict[int, List[str]] = {index: [] for index in indices}
    for switch in (n.name for n in topology.switches):  # insertion order
        members[assignment[switch]].append(switch)
    device_owner: Dict[str, int] = {}
    for device in topology.devices:
        attached = [
            nbr for nbr in topology.neighbors(device.name)
            if topology.node(nbr).is_switch
        ]
        if not attached:
            raise PartitionError(
                f"device {device.name!r} has no attached switch"
            )
        device_owner[device.name] = assignment[attached[0]]
    shards = []
    for index in indices:
        owned = set(members[index])
        owned.update(d for d, i in device_owner.items() if i == index)
        shards.append(_build_shard(topology, f"shard{index}", owned))
    return NetworkPartition(topology, shards)


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


def _build_shard(topology: Topology, name: str, owned: set) -> Shard:
    """Sub-topology = owned nodes + intra links + boundary ghosts."""
    sub = Topology()
    switches: List[str] = []
    devices: List[str] = []
    for node in topology.nodes:  # global insertion order, deterministic
        if node.name not in owned:
            continue
        if node.is_switch:
            sub.add_switch(node.name)
            switches.append(node.name)
        else:
            sub.add_device(node.name)
            devices.append(node.name)
    ghosts: List[str] = []
    seen_pairs: set = set()
    for link in topology.links:
        pair = frozenset(link.key)
        if pair in seen_pairs:
            continue
        inside = [end for end in link.key if end in owned]
        if not inside:
            continue
        seen_pairs.add(pair)
        for end in link.key:
            if end not in owned and end not in ghosts:
                # foreign endpoint of a boundary link: a dead-end ghost
                ghost = topology.node(end)
                if ghost.is_switch:
                    sub.add_switch(end)
                else:
                    sub.add_device(end)
                ghosts.append(end)
        sub.add_link(
            link.src, link.dst,
            bandwidth_bps=link.bandwidth_bps,
            propagation_ns=link.propagation_ns,
            time_unit_ns=link.time_unit_ns,
        )
    try:
        sub.validate()
    except TopologyError as exc:
        raise PartitionError(f"shard {name!r} is not viable: {exc}") from exc
    return Shard(
        name=name,
        switches=tuple(switches),
        devices=tuple(devices),
        border_nodes=tuple(ghosts),
        topology=sub,
    )
