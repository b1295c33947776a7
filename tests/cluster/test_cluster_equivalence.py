"""The coordinator rewrite changed no cluster decision and no slot.

The digests below were recorded at the parent commit of the inline
coordinator (shard thread pool and the two-phase publish state machine
still present) *before* ``src/`` was touched.  Each is one SHA-256 over
a seeded ~400-operation script: for every operation its ``(op, stream,
accepted, rung, reason, attempts)``, and after every ``submit`` /
``submit_many`` call each shard's store version and slot table.

The script mixes local, cross-shard and removed admits, unknown
removes, name clashes, possibility-name clashes in both directions,
cross-shard ECT (a structured reject), route-level deadline rejects,
cross-shard admits whose segment fails on one shard and, where the
partition has one, a re-entrant route; about a third of the calls are
``submit_many`` batches of two to four operations.

The ``full`` rung has since learnt to repair a batch's ring before it
re-solves a shard, which moves other slots: ``PINS`` was re-recorded
after that change.  ``VERDICT_PINS``, one SHA-256 over every decision's
``(op, stream, accepted)``, was recorded at 9fc8fb9 (whole re-solve
only) before ``src/`` was touched, and passes on both commits.
"""

import hashlib
import json
import random

import pytest

from repro.cluster import ClusterCoordinator, partition_topology
from repro.experiments import line_of_rings, simulation_topology
from repro.model.stream import EctStream, Priorities, TctRequirement
from repro.model.units import milliseconds
from repro.service import AdmitEct, AdmitTct, Remove

PINS = {
    "fig13": "1474d491360467a4de9b716cac937436f46ea3efc2bdf528fa15fa469dd2191f",
    "rings": "82303d4f14424d8179719e91ef9329c0f458bdb48436710f2e6b4c67c04cd6a3",
}
VERDICT_PINS = {
    "fig13": "860bcf1ce465d0c8b0567fffd8bf6f420b95c6be6bc512e0c9c5eabc9dc6cf5a",
    "rings": "8446ecc3df41e80c93cd9d3a7198d5606b13d3fc6bb25f17d488172b04baa2cb",
}


def _fig13():
    topology = simulation_topology()
    return partition_topology(topology, 2, seeds=["SW1", "SW4"])


def _rings():
    return partition_topology(line_of_rings(4, 4, 2), 4)


PARTITIONS = {"fig13": _fig13, "rings": _rings}


def _reentrant_pairs(partition):
    topology = partition.topology
    devices = [d.name for d in topology.devices]
    pairs = []
    for source in devices:
        for destination in devices:
            if source == destination:
                continue
            path = topology.shortest_path(source, destination)
            order = [s.shard for s in partition.split_route(path)]
            if len(order) != len(set(order)):
                pairs.append((source, destination))
    return pairs


def _tct(name, src, dst, period_ms, length, share=False, e2e_ns=None):
    return AdmitTct(TctRequirement(
        name=name, source=src, destination=dst,
        period_ns=milliseconds(period_ms), length_bytes=length,
        e2e_ns=e2e_ns,
        priority=Priorities.SH_PL if share else Priorities.NSH_PH,
        share=share,
    ))


def _ect(name, src, dst, length):
    return AdmitEct(EctStream(
        name=name, source=src, destination=dst,
        min_interevent_ns=milliseconds(16), length_bytes=length,
        possibilities=2,
    ))


class _Script:
    """A seeded operation draw that steers towards ``target`` live
    streams and feeds back on what the cluster accepted."""

    def __init__(self, partition, seed, target=40):
        self.rng = random.Random(seed)
        self.devices = sorted(d.name for d in partition.topology.devices)
        self.reentrant = _reentrant_pairs(partition)
        self.target = target
        self.live = []
        self.live_ect = []
        self.ect_bait = []   # TCT "<n>#ps1" is live: an ECT "<n>" clashes

    def draw(self, count):
        rng = self.rng
        live = self.live + self.live_ect
        if live and rng.random() < len(live) / (2 * self.target):
            return Remove(live[rng.randrange(len(live))])
        pick = rng.random()
        src, dst = rng.sample(self.devices, 2)
        if pick < 0.03:
            return Remove(f"ghost{count}")
        if live and pick < 0.08:
            return _tct(live[rng.randrange(len(live))], src, dst, 8, 500)
        if pick < 0.13:
            if self.live_ect and rng.random() < 0.5:
                name = f"{rng.choice(self.live_ect)}#ps1"
                return _tct(name, src, dst, 8, 300)
            if self.ect_bait:
                return _ect(self.ect_bait[-1], src, dst, 300)
            return _tct(f"m{count}#ps1", src, dst, 16, 300)
        if pick < 0.21:
            return _ect(f"e{count}", src, dst, rng.randrange(100, 601))
        if self.reentrant and pick < 0.25:
            src, dst = rng.choice(self.reentrant)
            return _tct(f"r{count}", src, dst, 8, 400)
        if pick < 0.31:
            # a deadline at or just above the route's wire-time floor
            e2e_ns = rng.choice((1, 300_000, 400_000, 600_000))
            return _tct(f"t{count}", src, dst, 4, 800, e2e_ns=e2e_ns)
        if pick < 0.36:
            # 20 frames: each segment pays the pipeline fill again, so a
            # 4 ms deadline can clear the route's floor and still fail
            # a segment's hop-proportional share of it
            e2e_ns = rng.choice((None, milliseconds(4)))
            return _tct(f"h{count}", src, dst, 32, 30_000, e2e_ns=e2e_ns)
        return _tct(
            f"s{count}", src, dst, rng.choice((4, 8, 16)),
            rng.randrange(100, 801), rng.random() < 0.15,
        )

    def observe(self, request, decision):
        if not decision.accepted:
            return
        name = request.stream_name
        if isinstance(request, Remove):
            (self.live_ect if name in self.live_ect else self.live).remove(
                name
            )
            if name.endswith("#ps1") and name[:-4] in self.ect_bait:
                self.ect_bait.remove(name[:-4])
        elif isinstance(request, AdmitEct):
            self.live_ect.append(name)
        else:
            self.live.append(name)
            if name.endswith("#ps1") and name.startswith("m"):
                self.ect_bait.append(name[:-4])


def _slot_table(schedule):
    return [
        [stream, list(link),
         [[f.index, f.offset_ns, f.period_ns, f.duration_ns, f.extra]
          for f in frames]]
        for (stream, link), frames in sorted(schedule.slots.items())
    ]


def run_script(partition, seed, operations=400):
    """Drive the script; return ``(digest, decisions)``."""
    coordinator = ClusterCoordinator(partition=partition)
    script = _Script(partition, seed)
    digest = hashlib.sha256()
    decisions = []
    count = 0
    while count < operations:
        size = 1 if script.rng.random() < 0.65 else script.rng.randrange(2, 5)
        batch = []
        for _ in range(min(size, operations - count)):
            count += 1
            batch.append(script.draw(count))
        if len(batch) == 1:
            answers = [coordinator.submit(batch[0])]
        else:
            answers = coordinator.submit_many(batch)
        for request, decision in zip(batch, answers):
            script.observe(request, decision)
            decisions.append(decision)
            digest.update(json.dumps([
                decision.op, decision.stream, decision.accepted,
                decision.rung, decision.reason,
                sorted(decision.attempts.items()),
            ]).encode())
        for name in coordinator.shard_names():
            store = coordinator.shard_store(name)
            digest.update(json.dumps(
                [name, store.version, _slot_table(store.schedule)]
            ).encode())
    return digest.hexdigest(), decisions


@pytest.mark.parametrize("layout", sorted(PINS))
def test_cluster_script_is_pinned_to_parent(layout):
    digest, decisions = run_script(PARTITIONS[layout](), seed=1)
    verdicts = hashlib.sha256()
    for d in decisions:
        verdicts.update(json.dumps([d.op, d.stream, d.accepted]).encode())
    assert verdicts.hexdigest() == VERDICT_PINS[layout]
    assert digest == PINS[layout]
    # the script reaches every path it is meant to cover
    rungs = {d.rung for d in decisions if d.accepted}
    assert "twophase" in rungs
    reasons = " ".join(d.reason or "" for d in decisions)
    for reason in ("name_in_use", "unknown_stream",
                   "cross_shard_ect_unsupported"):
        assert reason in reasons
    if layout == "rings":
        assert "reentrant_route_unsupported" in reasons
    assert any("#ps1" in (d.reason or "") for d in decisions)
    assert any((d.reason or "").startswith("shard") for d in decisions)
    assert any(d.accepted and d.op == "remove" and d.rung == "twophase"
               for d in decisions)
