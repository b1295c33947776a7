"""Topology partitioning: shard coverage, boundary links, the shards a
route touches."""

from itertools import groupby

import pytest

from repro.cluster import (
    NetworkPartition,
    PartitionError,
    Shard,
    partition_by_assignment,
    partition_topology,
)
from repro.experiments import line_of_rings, simulation_topology


@pytest.fixture
def chain():
    """Fig. 13 chain, cut between SW2 and SW3 (seeds at the ends)."""
    topo = simulation_topology()
    return topo, partition_topology(topo, 2, seeds=["SW1", "SW4"])


class TestPartitioning:
    def test_two_way_chain_cut(self, chain):
        topo, partition = chain
        assert [s.name for s in partition.shards] == ["shard0", "shard1"]
        assert partition.shard("shard0").switches == ("SW1", "SW2")
        assert partition.shard("shard1").switches == ("SW3", "SW4")
        # devices follow their attached switch
        assert partition.owner_of("D1") == "shard0"
        assert partition.owner_of("D12") == "shard1"
        # the single trunk is the cut, both directions
        assert partition.boundary_links == (("SW2", "SW3"), ("SW3", "SW2"))

    def test_every_node_owned_exactly_once(self, chain):
        topo, partition = chain
        owners = [partition.owner_of(n.name) for n in topo.nodes]
        assert len(owners) == len(topo.nodes)

    def test_directed_link_owned_by_source_shard(self, chain):
        _, partition = chain
        assert partition.owner_of_link(("SW2", "SW3")) == "shard0"
        assert partition.owner_of_link(("SW3", "SW2")) == "shard1"

    def test_line_of_rings_cuts_on_trunks(self):
        topo = line_of_rings(rings=4, ring_size=3, devices_per_switch=1)
        seeds = [f"R{r}S1" for r in range(4)]
        partition = partition_topology(topo, 4, seeds=seeds)
        assert len(partition.shards) == 4
        for shard in partition.shards:
            # each shard is exactly one ring
            rings = {name[:2] for name in shard.switches}
            assert len(rings) == 1
        # 3 trunks x 2 directions
        assert len(partition.boundary_links) == 6
        for src, dst in partition.boundary_links:
            assert src.endswith("S0") and dst.endswith("S0")

    def test_ghosts_are_dead_ends(self, chain):
        _, partition = chain
        # a shard's border nodes are the far ends of its boundary links
        assert partition.shard("shard0").border_nodes == ("SW3",)
        assert partition.shard("shard1").border_nodes == ("SW2",)

    def test_describe_mentions_every_shard(self, chain):
        _, partition = chain
        text = partition.describe()
        assert "2 shards" in text
        assert "shard0" in text and "shard1" in text


class TestRouteSplitting:
    def test_local_route_is_one_segment(self, chain):
        topo, partition = chain
        path = topo.shortest_path("D1", "D4")
        assert partition.shards_for_route(path) == ["shard0"]

    def test_cross_route_cut_after_boundary_link(self, chain):
        topo, partition = chain
        path = topo.shortest_path("D1", "D12")
        assert partition.shards_for_route(path) == ["shard0", "shard1"]
        # the cut is after the boundary link: SW2 -> SW3 is shard0's
        # egress, and shard1 starts at its border switch SW3
        owners = [partition.owner_of_link(link.key) for link in path]
        boundary = [link.key for link in path].index(("SW2", "SW3"))
        assert owners[:boundary + 1] == ["shard0"] * (boundary + 1)
        assert set(owners[boundary + 1:]) == {"shard1"}

    def test_reentrant_route_names_each_shard_once(self):
        """A -> B -> A: a route that leaves a shard and comes back."""
        topo = line_of_rings(rings=3, ring_size=3, devices_per_switch=1)
        # ring 1 is shard1; rings 0 and 2, on either side of it, shard0
        partition = partition_by_assignment(topo, {
            n.name: int(n.name.startswith("R1")) for n in topo.switches
        })
        path = topo.shortest_path("R0S1D0", "R2S1D0")
        runs = [shard for shard, _ in groupby(
            partition.owner_of_link(link.key) for link in path
        )]
        assert runs == ["shard0", "shard1", "shard0"]
        assert partition.shards_for_route(path) == ["shard0", "shard1"]

    def test_empty_route_rejected(self, chain):
        _, partition = chain
        with pytest.raises(PartitionError):
            partition.shards_for_route([])


class TestValidation:
    def test_shard_count_bounds(self):
        topo = simulation_topology()
        with pytest.raises(PartitionError):
            partition_topology(topo, 0)
        with pytest.raises(PartitionError):
            partition_topology(topo, 5)  # only 4 switches

    def test_seed_list_validated(self):
        topo = simulation_topology()
        with pytest.raises(PartitionError):
            partition_topology(topo, 2, seeds=["SW1"])
        with pytest.raises(PartitionError):
            partition_topology(topo, 2, seeds=["SW1", "D1"])

    def test_assignment_must_cover_switches(self):
        topo = simulation_topology()
        with pytest.raises(PartitionError):
            partition_by_assignment(topo, {"SW1": 0, "SW2": 0})

    def test_double_assignment_rejected(self):
        topo = simulation_topology()
        good = partition_by_assignment(
            topo, {"SW1": 0, "SW2": 0, "SW3": 1, "SW4": 1}
        )
        shard = good.shards[0]
        clone = Shard(
            name="clone",
            switches=shard.switches,
            devices=shard.devices,
            border_nodes=shard.border_nodes,
        )
        with pytest.raises(PartitionError):
            NetworkPartition(topo, list(good.shards) + [clone])

    def test_partition_needs_full_coverage(self):
        topo = simulation_topology()
        good = partition_by_assignment(
            topo, {"SW1": 0, "SW2": 0, "SW3": 1, "SW4": 1}
        )
        with pytest.raises(PartitionError):
            NetworkPartition(topo, good.shards[:1])

    def test_default_seeds_are_deterministic(self):
        topo = simulation_topology()
        a = partition_topology(topo, 2)
        b = partition_topology(topo, 2)
        assert [s.switches for s in a.shards] == [s.switches for s in b.shards]
