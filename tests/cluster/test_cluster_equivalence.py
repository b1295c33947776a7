"""The cluster decides and places exactly what one store does.

``PINS`` holds one SHA-256 per layout of a seeded ~400-operation
script run through a plain :class:`AdmissionService` on
``partition.topology``: for every operation its ``(op, stream,
accepted, rung, reason, attempts)``, and after every ``submit`` /
``submit_many`` call the store version and slot table.  The digests
were recorded at the parent of the change that made the cluster a view
over one store, before ``src/`` was touched, and the single-store run
passes on both commits; ``fig13`` was re-recorded when the ``full``
rung's ring started from the link where placement failed, which moves
other slots; both were re-recorded when the constructive rung became
ring 0, which places a ``submit_many`` batch in one tightest-first
order with its removals dropped first instead of request by request
(one four-operation ``fig13`` batch is then accepted by the
constructive rung instead of ``full``); ``fig13`` again when the
``full`` rung's first ring became the streams that blocked the admit,
which moves fewer of them, again when it became the admit's gap
cut, which moves fewer still, and again when the gap chain, grown by
the stream cut where a failure names no gap cut, became the only ring
before the whole re-solve.  The same script through a
:class:`ClusterCoordinator` over each partition must produce the same
digest: the cluster decides and places exactly what one store does.

``VERDICT_PINS`` holds one SHA-256 per layout over every decision's
``(op, stream, accepted)`` alone, recorded before that ring change: a
change that moves slots but no verdict re-records ``PINS`` and must
pass ``VERDICT_PINS`` as it is.  ``PYTHONPATH=src python
tests/cluster/test_cluster_equivalence.py`` prints both.

The script mixes local, cross-shard and removed admits, unknown
removes, name clashes, possibility-name clashes in both directions,
cross-shard ECTs, route-level deadline rejects and, where the
partition has one, a re-entrant route; about a third of the calls are
``submit_many`` batches of two to four operations.
"""

import hashlib
import json
import random
from itertools import groupby

import pytest

from repro.cluster import ClusterCoordinator, partition_topology
from repro.core.schedule import validate
from repro.experiments import line_of_rings, simulation_topology
from repro.model.stream import EctStream, Priorities, TctRequirement
from repro.model.units import milliseconds
from repro.service import (
    AdmissionService,
    AdmitEct,
    AdmitTct,
    Remove,
    ScheduleStore,
    empty_schedule,
)

PINS = {
    "fig13": "e27641a29dfa6e52571c48f1851b953aa586c5eb1025db79081dfd99a31ca3ed",
    "rings": "4c5b911c07200ef7669b07ebdcbfb1214ddd3153f3a61c56c3eaeffe59251d3b",
}


def _fig13():
    topology = simulation_topology()
    return partition_topology(topology, 2, seeds=["SW1", "SW4"])


def _rings():
    return partition_topology(line_of_rings(4, 4, 2), 4)


#: recorded at 9a6ab19, before the ``full`` rung's failing-link ring
VERDICT_PINS = {
    "fig13": "fa906146ff2fa7900894beb5b4dca6932352c12b556edfacb14077301b78aa06",
    "rings": "2dee473590792d36115e654af04a2b93a70a5000ddf62c7ab84c4d097dfdee42",
}

PARTITIONS = {"fig13": _fig13, "rings": _rings}


def _shards_crossed(partition, path):
    """The owning shard of each run of ``path``, in order."""
    return [shard for shard, _ in groupby(
        partition.owner_of_link(link.key) for link in path
    )]


def _reentrant_pairs(partition):
    topology = partition.topology
    devices = [d.name for d in topology.devices]
    pairs = []
    for source in devices:
        for destination in devices:
            if source == destination:
                continue
            order = _shards_crossed(
                partition, topology.shortest_path(source, destination)
            )
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
    streams and feeds back on what was accepted."""

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
            # 20 frames under a deadline a few hops can just about meet
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


def run_script(partition, seed, admission, store, operations=400):
    """Drive the script through ``admission`` (anything with ``submit``
    and ``submit_many``) publishing to ``store``; return ``(digest,
    requests, decisions)``."""
    script = _Script(partition, seed)
    digest = hashlib.sha256()
    requests, decisions = [], []
    count = 0
    while count < operations:
        size = 1 if script.rng.random() < 0.65 else script.rng.randrange(2, 5)
        batch = []
        for _ in range(min(size, operations - count)):
            count += 1
            batch.append(script.draw(count))
        if len(batch) == 1:
            answers = [admission.submit(batch[0])]
        else:
            answers = admission.submit_many(batch)
        for request, decision in zip(batch, answers):
            script.observe(request, decision)
            requests.append(request)
            decisions.append(decision)
            digest.update(json.dumps([
                decision.op, decision.stream, decision.accepted,
                decision.rung, decision.reason,
                sorted(decision.attempts.items()),
            ]).encode())
        digest.update(json.dumps(
            [store.version, _slot_table(store.schedule)]
        ).encode())
    return digest.hexdigest(), requests, decisions


def verdicts(decisions):
    """SHA-256 over every decision's ``(op, stream, accepted)``."""
    digest = hashlib.sha256()
    for decision in decisions:
        digest.update(json.dumps(
            [decision.op, decision.stream, decision.accepted]
        ).encode())
    return digest.hexdigest()


def _single_store(partition):
    store = ScheduleStore(empty_schedule(partition.topology))
    return AdmissionService(store), store


def _route(partition, request):
    topology = partition.topology
    if isinstance(request, AdmitEct):
        return request.ect.route(topology)
    requirement = request.requirement
    return topology.shortest_path(requirement.source, requirement.destination)


@pytest.mark.parametrize("layout", sorted(PINS))
def test_single_store_script_is_pinned_to_parent(layout):
    partition = PARTITIONS[layout]()
    service, store = _single_store(partition)
    digest, requests, decisions = run_script(partition, 1, service, store)
    assert digest == PINS[layout]
    validate(store.schedule)
    # the script reaches every path it is meant to cover
    crossed = [
        _shards_crossed(partition, _route(partition, request))
        for request, decision in zip(requests, decisions)
        if decision.accepted and not isinstance(request, Remove)
    ]
    assert any(len(set(order)) > 1 for order in crossed)
    if layout == "rings":
        assert any(len(order) != len(set(order)) for order in crossed)
    accepted_ects = [
        request for request, decision in zip(requests, decisions)
        if decision.accepted and isinstance(request, AdmitEct)
    ]
    assert any(
        len(set(_shards_crossed(partition, _route(partition, request)))) > 1
        for request in accepted_ects
    )
    reasons = " ".join(d.reason or "" for d in decisions)
    assert "already in use" in reasons
    assert "no stream named" in reasons
    assert any("#ps1" in (d.reason or "") for d in decisions)


@pytest.mark.parametrize("layout", sorted(VERDICT_PINS))
def test_single_store_script_keeps_its_verdicts(layout):
    partition = PARTITIONS[layout]()
    service, store = _single_store(partition)
    _, _, decisions = run_script(partition, 1, service, store)
    assert verdicts(decisions) == VERDICT_PINS[layout]


@pytest.mark.parametrize("layout", sorted(PINS))
def test_cluster_script_is_pinned_to_parent(layout):
    partition = PARTITIONS[layout]()
    coordinator = ClusterCoordinator(partition=partition)
    store = coordinator.shard_store(coordinator.shard_names()[0])
    digest, _, _ = run_script(partition, 1, coordinator, store)
    assert digest == PINS[layout]
    validate(coordinator.global_schedule())


if __name__ == "__main__":
    for name, make in sorted(PARTITIONS.items()):
        partition = make()
        service, store = _single_store(partition)
        digest, _, decisions = run_script(partition, 1, service, store)
        print(name, digest, "verdicts", verdicts(decisions))
