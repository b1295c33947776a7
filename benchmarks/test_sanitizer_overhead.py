"""Lock-order sanitizer overhead on the cluster admission path.

The sanitizer's contract (ISSUE: repro.check v2): with
``REPRO_SANITIZE_LOCKS`` unset, ``make_lock`` returns a bare
``threading.Lock`` — nothing to measure; with it set, the wrapped
cluster admission flow must stay within 2x of the plain run.  Both
arms run the same workload through a 2-shard coordinator, which
exercises every sanitized lock on the admission path: the service
write lock and the store CAS lock.

Wall-clock multiples are hostage to runner load, so the floor is
env-tunable (``REPRO_SANITIZER_OVERHEAD_MAX``,
default 2.0) and the functional assertions — sanitized run decides
everything, identical decisions — stay deterministic.
"""

import os
import time

from repro.analysis import format_table
from repro.check.sanitizer import ENV_VAR, reset_observed_edges
from repro.cluster import ClusterCoordinator, partition_topology
from repro.experiments import line_of_rings
from repro.model.stream import Priorities, TctRequirement
from repro.model.units import milliseconds
from repro.service import AdmitTct

RINGS = 2
RING_SIZE = 4
DEVICES_PER_SWITCH = 2
STREAMS_PER_RING = 48

OVERHEAD_MAX = float(os.environ.get("REPRO_SANITIZER_OVERHEAD_MAX", "2.0"))


def _workload():
    requests = []
    for ring in range(RINGS):
        for i in range(STREAMS_PER_RING):
            src = f"R{ring}S{i % RING_SIZE}D{i % DEVICES_PER_SWITCH}"
            dst = (f"R{ring}S{(i + 2) % RING_SIZE}"
                   f"D{(i + 1) % DEVICES_PER_SWITCH}")
            requests.append(AdmitTct(TctRequirement(
                name=f"r{ring}s{i}", source=src, destination=dst,
                period_ns=milliseconds(8 + 2 * (i % 3)), length_bytes=800,
                priority=Priorities.NSH_PH,
            )))
    return requests


def _run(requests, sanitize):
    """Build a fresh coordinator (locks are chosen at construction
    time, so the env var must be set before it) and admit everything."""
    if sanitize:
        os.environ[ENV_VAR] = "1"
        reset_observed_edges()
    else:
        os.environ.pop(ENV_VAR, None)
    try:
        topo = line_of_rings(rings=RINGS, ring_size=RING_SIZE,
                             devices_per_switch=DEVICES_PER_SWITCH)
        partition = partition_topology(
            topo, RINGS, seeds=[f"R{r}S2" for r in range(RINGS)]
        )
        coordinator = ClusterCoordinator(partition=partition)
        started = time.perf_counter()
        decisions = coordinator.submit_many(requests)
        elapsed = time.perf_counter() - started
    finally:
        os.environ.pop(ENV_VAR, None)
    return elapsed, decisions


def test_sanitizer_overhead_bounded(emit):
    requests = _workload()

    _run(requests[:STREAMS_PER_RING], sanitize=False)  # warm-up
    plain_s = min(_run(requests, sanitize=False)[0] for _ in range(3))

    sanitized = [_run(requests, sanitize=True) for _ in range(3)]
    sanitized_s = min(elapsed for elapsed, _ in sanitized)
    decisions = sanitized[-1][1]

    # the sanitized run must decide the full workload without tripping
    # (a LockOrderViolation would have raised out of submit_many)
    assert len(decisions) == len(requests)
    assert all(d.accepted for d in decisions)

    overhead = sanitized_s / plain_s
    emit("sanitizer_overhead", format_table(
        ["arm", "streams", "wall_s", "overhead"],
        [
            ["plain locks", len(requests), f"{plain_s:.3f}", ""],
            ["sanitized", len(requests), f"{sanitized_s:.3f}",
             f"{overhead:.2f}x"],
        ],
        title=(
            f"Cluster admission with REPRO_SANITIZE_LOCKS on a "
            f"{RINGS}-ring network ({len(requests)} streams)"
        ),
    ))
    assert overhead <= OVERHEAD_MAX, (
        f"sanitizer overhead {overhead:.2f}x exceeds {OVERHEAD_MAX}x"
    )
