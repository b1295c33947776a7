"""Admission-service throughput on the Fig. 14 simulation network:
admissions/sec and p50/p99 decision latency under the default ladder.

The service is seeded with the 40-stream Fig. 13/14 workload, then driven
with a request mix of plain TCT admits and removals, sharing TCT admits
beside live ECT, and a hog that is conclusively rejected.  (The mix a
solver rung has to work for is ``admit_ladder`` in ``bench/``.)"""

import time

from repro.analysis import format_table
from repro.core import validate
from repro.experiments import simulation_workload
from repro.model.stream import Priorities, TctRequirement
from repro.model.units import milliseconds
from repro.service import (
    AdmissionService,
    AdmitTct,
    Remove,
    ScheduleStore,
    ServiceConfig,
)


def _tct(name, src, dst, period_ms=10, length=800, share=False):
    return AdmitTct(TctRequirement(
        name=name, source=src, destination=dst,
        period_ns=milliseconds(period_ms), length_bytes=length,
        priority=Priorities.SH_PL if share else Priorities.NSH_PH,
        share=share,
    ))


def _percentile(values, q):
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100 * (len(ordered) - 1))))
    return ordered[rank]


def _request_mix(devices):
    requests = []
    # plain TCT admits + churn
    for i in range(24):
        src, dst = devices[i % len(devices)], devices[(i + 5) % len(devices)]
        requests.append(_tct(f"adm{i}", src, dst))
        if i % 3 == 2:
            requests.append(Remove(f"adm{i - 1}"))
    # sharing TCT admits beside the seeded ECT stream
    for i in range(3):
        src = devices[(2 * i) % len(devices)]
        dst = devices[(2 * i + 7) % len(devices)]
        requests.append(_tct(f"share{i}", src, dst, period_ms=20, share=True))
    # a hog whose wire time alone busts its deadline: conclusively
    # rejected by the constructive rung
    requests.append(_tct("hog", devices[0], devices[1], period_ms=5,
                         length=80 * 1500))
    return requests


def _drive(base, requests):
    """Run the mix against a fresh store; returns (by_rung, wall_s,
    service)."""
    store = ScheduleStore(base)
    service = AdmissionService(
        store, config=ServiceConfig(heuristic_min_restarts=16)
    )
    started = time.perf_counter()
    decisions = [service.submit(request) for request in requests]
    wall_s = time.perf_counter() - started
    validate(store.schedule)
    assert len(decisions) == len(requests)
    assert all(d.accepted or d.reason for d in decisions)
    by_rung = {}
    for decision in decisions:
        rung = decision.rung if decision.accepted else "rejected"
        by_rung.setdefault(rung, []).append(decision.latency_ms)
    return by_rung, wall_s, service


def _rungs_json(by_rung, order):
    rungs_json = {}
    for rung in order:
        latencies = by_rung.get(rung)
        if not latencies:
            continue
        mean_ms = sum(latencies) / len(latencies)
        entry = {
            "decisions": len(latencies),
            "p50_ms": round(_percentile(latencies, 50), 3),
            "p99_ms": round(_percentile(latencies, 99), 3),
        }
        if rung != "rejected":
            # a rejection is not throughput: its latency distribution is
            # tracked (satellite histogram latency.rejected_ms), but it
            # contributes no admissions/sec metric to the gate
            entry["admissions_per_sec"] = (
                round(1e3 / mean_ms, 1) if mean_ms else None
            )
        rungs_json[rung] = entry
    return rungs_json


def test_admission_service_throughput(benchmark, emit, bench_record):
    from repro.core import schedule_etsn

    workload = simulation_workload(0.25, seed=1)
    base = schedule_etsn(workload.topology, workload.tct_streams,
                         workload.ect_streams)
    devices = [d.name for d in workload.topology.devices]
    requests = _request_mix(devices)

    by_rung, wall_s, service = _drive(base, requests)
    latencies_all = [l for ls in by_rung.values() for l in ls]
    per_sec = len(requests) / wall_s

    order = ("fastpath", "full", "heuristic", "rejected")
    rows = []
    for rung in order:
        latencies = by_rung.get(rung)
        if not latencies:
            continue
        rows.append([
            rung, len(latencies),
            f"{_percentile(latencies, 50):.2f}",
            f"{_percentile(latencies, 99):.2f}",
        ])
    rows.append(["aggregate", len(requests), f"{per_sec:.0f}/s",
                 f"{_percentile(latencies_all, 99):.2f}"])

    bench_record("admission", {
        "benchmark": "admission_service_throughput",
        "network": "fig13-simulation",
        "seed_streams": len(workload.tct_streams) + len(workload.ect_streams),
        "decisions": len(requests),
        "admissions_per_sec": round(per_sec, 1),
        "p99_ms": round(_percentile(latencies_all, 99), 3),
        "rungs": _rungs_json(by_rung, order),
    })
    emit("admission_service", format_table(
        ["rung", "decisions", "p50_ms", "p99_ms"],
        rows,
        title=(
            "Online admission on the 40-stream Fig. 13/14 network "
            f"({len(requests)} decisions)"
        ),
    ))

    # the constructive rung decided the accepts and the reject
    assert "fastpath" in by_rung and "rejected" in by_rung
    counters = service.metrics.to_dict()["counters"]
    assert counters.get("fastpath.accepts", 0) >= 30
    assert counters.get("fastpath.rejects", 0) >= 1

    # hot-path timing for pytest-benchmark: one admit/remove cycle
    store = ScheduleStore(base)
    service = AdmissionService(
        store, config=ServiceConfig(heuristic_min_restarts=16)
    )

    def admit_remove_cycle():
        service.submit(_tct("bench", devices[2], devices[9]))
        service.submit(Remove("bench"))

    benchmark(admit_remove_cycle)
