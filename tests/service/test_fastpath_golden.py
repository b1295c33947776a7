"""Carrying the occupancy index in the snapshot changed no decision.

The digests below were recorded at the parent commit (every incremental
primitive rebuilding its occupancy from the whole slot table and cloning
every slot list) *before* ``src/`` was touched, on a
constructive-rung-only service over ``line_of_rings(4, 4, 2)``: the
first 400 operations of ``bench``'s ``FastpathOps`` script — grow to
150 live streams, then churn: remove, admit, ECT admits, 5 % designed
rejects.  The generator is copied here, not imported, so a later change
to ``bench/`` cannot move the pin.

Two scripts: the benchmark's own mix at seed 1 (5 % ECT admits, frames
of 100-800 bytes; every reject is a designed one), and a saturating mix
at seed 7 (30 % ECT admits, messages of 1.5-9 kB) where 34 admits
defeat earliest-fit and 20 ECT streams re-place the sharing streams
they cross.  Earliest-fit visits a link's slots in slot-table order, so
a reordered index would first show up there, as a different
``constructive placement failed: ...`` string.

Per script: the accepted count, the SHA-256 of the canonical JSON of
every decision's ``(op, stream, accepted, rung, reason)``, and the same
of ``schedule_to_dict(service.store.schedule)``.
"""

import hashlib
import json
import random

import pytest

from repro.experiments import line_of_rings
from repro.model.stream import EctStream, Priorities, TctRequirement
from repro.serialization import schedule_to_dict
from repro.service import (
    RUNG_FASTPATH,
    AdmissionService,
    AdmitEct,
    AdmitTct,
    Remove,
    RungConfig,
    ScheduleStore,
    ServiceConfig,
    empty_schedule,
)

MS = 1_000_000
OPERATIONS = 400
TARGET = 150

#: (seed, generator knobs) -> (accepted, decisions digest, schedule digest)
BENCH_MIX = (1, {})
SATURATING_MIX = (7, {"ect_below": 0.3, "lengths": (1500, 9001)})
PINS = {
    "bench": (
        393,
        "f315271ca915ee497b632f10e3f8d7615e592915df4453d2898d150ac8daceb3",
        "a2686e5d314ab150eb2b9883c20e259a527e4f657a053d550fe227773fbe22d2",
    ),
    "saturating": (
        360,
        "ff5493cab763cc21f23915986fb2128229c8552b8e71a36b051d76f2bcd38f98",
        "74170c6dd28f6dc0fb89c3060f30853c0de19641ebbafbf029a46e7693c46d4a",
    ),
}


def _sha(value) -> str:
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class _FastpathOps:
    """``bench/etsnbench/admit.py``'s ``FastpathOps``: with the default
    knobs, the same draws from the same ``random.Random`` in the same
    order."""

    def __init__(self, topology, seed, target, ect_below=0.05,
                 lengths=(100, 801)):
        self._rng = random.Random(seed)
        self._ect_below = ect_below
        self._lengths = lengths
        self._rings = [
            [d.name for d in topology.devices
             if d.name.startswith(f"R{ring}S")]
            for ring in range(4)
        ]
        self.target = target
        self.live = []
        self.grown = 0
        self._count = 0
        self._remove_next = True
        self._live_ect = []

    def next(self):
        rng = self._rng
        self._count += 1
        if len(self.live) < self.target and self.grown < 3 * self.target:
            self.grown += 1
            return self._admit(f"g{self._count}")
        remove = self._remove_next and self.live
        self._remove_next = not self._remove_next
        if remove:
            return Remove(
                self._live_ect[0] if self._live_ect
                else self.live[rng.randrange(len(self.live))]
            )
        draw = rng.random()
        name = f"c{self._count}"
        if draw < self._ect_below:
            source, destination = rng.sample(rng.choice(self._rings), 2)
            return AdmitEct(EctStream(
                name=name, source=source, destination=destination,
                min_interevent_ns=16 * MS,
                length_bytes=rng.randrange(*self._lengths), possibilities=4,
            ))
        if draw < self._ect_below + 0.05:
            return self._admit(name, e2e_ns=1)
        return self._admit(name)

    def _admit(self, name, e2e_ns=None):
        rng = self._rng
        source, destination = rng.sample(rng.choice(self._rings), 2)
        period_ms = rng.choice((4, 8, 16))
        length = rng.randrange(*self._lengths)
        share = rng.random() < 0.15
        return AdmitTct(TctRequirement(
            name=name, source=source, destination=destination,
            period_ns=period_ms * MS, length_bytes=length, e2e_ns=e2e_ns,
            priority=Priorities.SH_PL if share else Priorities.NSH_PH,
            share=share,
        ))

    def observe(self, request, decision):
        if not decision.accepted:
            return
        if isinstance(request, Remove):
            self.live.remove(request.name)
            if request.name in self._live_ect:
                self._live_ect.remove(request.name)
        else:
            self.live.append(request.stream_name)
            if isinstance(request, AdmitEct):
                self._live_ect.append(request.stream_name)


@pytest.mark.parametrize("pin, script", [
    ("bench", BENCH_MIX), ("saturating", SATURATING_MIX),
])
def test_first_400_fastpath_ops(pin, script):
    seed, knobs = script
    topology = line_of_rings(4, 4, 2)
    service = AdmissionService(
        ScheduleStore(empty_schedule(topology)),
        ServiceConfig(rungs=(RungConfig(RUNG_FASTPATH),)),
    )
    ops = _FastpathOps(topology, seed, TARGET, **knobs)
    decisions = []
    for _ in range(OPERATIONS):
        request = ops.next()
        decision = service.submit(request)
        ops.observe(request, decision)
        decisions.append([
            decision.op, decision.stream, decision.accepted,
            decision.rung, decision.reason,
        ])
    accepted, decisions_digest, schedule_digest = PINS[pin]
    assert sum(d[2] for d in decisions) == accepted
    assert _sha(decisions) == decisions_digest
    assert _sha(schedule_to_dict(service.store.schedule)) == schedule_digest
