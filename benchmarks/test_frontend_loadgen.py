"""Network frontend throughput: ``repro loadgen`` against a sharded
cluster over localhost sockets, cache on vs cache off.

The frontend self-hosts a 2-shard :class:`ClusterCoordinator` over the
Fig. 13/14 simulation topology and is driven closed-loop with a
repeated-shape mix of deterministic rejections — the industrial
arrival pattern (few profiles, fresh names) the decision cache exists
for.  The headline run sustains 100k+ requests; a second, shorter run
with the cache disabled provides the baseline for the
``cache_speedup`` regression gate.

``REPRO_FRONTEND_REQUESTS`` scales the headline run (default 100000).
``REPRO_FRONTEND_CACHE_SPEEDUP_FLOOR`` tunes the speedup gate for
loaded shared runners (default 1.3; the local target is ~2x),
mirroring ``REPRO_FASTPATH_SPEEDUP_FLOOR``.
"""

import os

from repro.analysis import format_table
from repro.cluster import ClusterCoordinator, partition_topology
from repro.experiments import simulation_topology
from repro.frontend.loadgen import (
    LoadgenConfig,
    make_profiles,
    run_loadgen_sync,
)
from repro.frontend.server import (
    ClusterBackend,
    Frontend,
    FrontendConfig,
    FrontendThread,
)

TOTAL_REQUESTS = int(os.environ.get("REPRO_FRONTEND_REQUESTS", "100000"))
BASELINE_REQUESTS = max(2_000, TOTAL_REQUESTS // 10)
SPEEDUP_FLOOR = float(
    os.environ.get("REPRO_FRONTEND_CACHE_SPEEDUP_FLOOR", "1.3")
)

#: device pairs in the simulation topology: one local to each of the
#: two shards, one crossing the border — the mix exercises all paths
ENDPOINTS = (("D1", "D4"), ("D10", "D12"), ("D1", "D12"))


def _run(cache: bool, total: int):
    coordinator = ClusterCoordinator(
        partition=partition_topology(
            simulation_topology(), 2, seeds=["SW1", "SW4"]
        ),
    )
    frontend = Frontend(
        ClusterBackend(coordinator),
        FrontendConfig(cache_size=4096 if cache else 0),
    )
    thread = FrontendThread(frontend)
    host, port = thread.start()
    try:
        report = run_loadgen_sync(
            LoadgenConfig(
                host=host, port=port, total_requests=total,
                connections=4, window=64,
            ),
            make_profiles(ENDPOINTS, distinct=8, infeasible_fraction=1.0),
        )
    finally:
        thread.stop()
    return report, frontend.metrics.to_dict()


def test_frontend_loadgen_throughput(benchmark, emit, bench_record):
    report_on, metrics_on = _run(cache=True, total=TOTAL_REQUESTS)
    report_off, _ = _run(cache=False, total=BASELINE_REQUESTS)

    speedup = (
        report_on.requests_per_sec / report_off.requests_per_sec
        if report_off.requests_per_sec else 0.0
    )

    emit("frontend_loadgen", format_table(
        ["cache", "requests", "req/s", "p50_ms", "p99_ms", "p999_ms",
         "hit_rate", "dropped"],
        [
            ["on", report_on.sent, f"{report_on.requests_per_sec:.0f}",
             f"{report_on.rtt_p50_ms:.2f}", f"{report_on.rtt_p99_ms:.2f}",
             f"{report_on.rtt_p999_ms:.2f}",
             f"{report_on.cache_hit_rate:.3f}", report_on.dropped],
            ["off", report_off.sent, f"{report_off.requests_per_sec:.0f}",
             f"{report_off.rtt_p50_ms:.2f}", f"{report_off.rtt_p99_ms:.2f}",
             f"{report_off.rtt_p999_ms:.2f}",
             f"{report_off.cache_hit_rate:.3f}", report_off.dropped],
            ["", "speedup", f"{speedup:.2f}x", "", "", "", "", ""],
        ],
        title=(
            "Frontend loadgen, 2-shard cluster over localhost "
            f"({TOTAL_REQUESTS} requests closed-loop)"
        ),
    ))

    counters = metrics_on["counters"]
    bench_record("frontend", {
        "benchmark": "frontend_loadgen_throughput",
        "network": "fig13-simulation/2-shards",
        "requests": report_on.sent,
        "requests_per_sec": round(report_on.requests_per_sec, 1),
        "rtt_p50_ms": round(report_on.rtt_p50_ms, 3),
        "rtt_p99_ms": round(report_on.rtt_p99_ms, 3),
        "rtt_p999_ms": round(report_on.rtt_p999_ms, 3),
        "cache_hit_rate": round(report_on.cache_hit_rate, 4),
        "cache_speedup": round(speedup, 2),
        "dropped": report_on.dropped,
        "batches": counters.get("frontend.batches", 0),
        "cache_off": {
            "requests": report_off.sent,
            "requests_per_sec": round(report_off.requests_per_sec, 1),
            "rtt_p99_ms": round(report_off.rtt_p99_ms, 3),
        },
    })

    # the acceptance gates: sustained volume, zero drops, an effective
    # cache, and the cache actually buying throughput
    assert report_on.sent >= TOTAL_REQUESTS
    assert report_on.ok == report_on.sent
    assert report_on.dropped == 0, (
        f"{report_on.dropped} requests dropped under closed-loop load"
    )
    assert report_off.dropped == 0
    assert report_on.cache_hit_rate >= 0.9, (
        f"repeated-shape mix only hit {report_on.cache_hit_rate:.1%}"
    )
    assert report_off.cached == 0
    assert speedup >= SPEEDUP_FLOOR, (
        f"decision cache is only {speedup:.2f}x the cache-off baseline "
        f"(floor {SPEEDUP_FLOOR}x)"
    )

    # hot-path timing for pytest-benchmark: one cached round trip
    coordinator = ClusterCoordinator(
        partition=partition_topology(
            simulation_topology(), 2, seeds=["SW1", "SW4"]
        ),
    )
    frontend = Frontend(ClusterBackend(coordinator), FrontendConfig())
    thread = FrontendThread(frontend)
    host, port = thread.start()
    profiles = make_profiles(ENDPOINTS[:1], distinct=1,
                             infeasible_fraction=1.0)
    try:
        # prime the cache, then time single-request round trips
        run_loadgen_sync(
            LoadgenConfig(host=host, port=port, total_requests=50,
                          connections=1, window=1),
            profiles,
        )

        def cached_roundtrip():
            run_loadgen_sync(
                LoadgenConfig(host=host, port=port, total_requests=10,
                              connections=1, window=1),
                profiles,
            )

        benchmark(cached_roundtrip)
    finally:
        thread.stop()
