"""The two network workloads, ``frontend_reads`` and ``frontend_writes``:
the server in a child process, the load from :mod:`etsnbench.netdriver`,
and the traced replay that composes the request path in-process from
the program's public functions."""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import os
import random
import shutil
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cluster import ClusterCoordinator, partition_topology
from repro.experiments import simulation_topology
from repro.frontend import (
    ClusterBackend,
    DecisionCache,
    decode_request,
    decode_response,
    encode_decision,
    encode_request,
)
from repro.model.stream import TctRequirement
from repro.serialization import (
    schedule_from_dict,
    schedule_to_dict,
    topology_to_dict,
)
from repro.service import AdmitTct, Remove, canonical_shape

from etsnbench.core import (
    OUT_DIR,
    SETUP_REPS,
    Outcome,
    SpanRecorder,
    finish_traced,
    median,
    no_lap,
    percentile,
    time_bins,
)
from etsnbench.netdriver import (
    ADMIT,
    READ,
    REMOVE,
    LoadGenerator,
    Sample,
    Server,
    good_verdict,
)

MS = 1_000_000
SHARD_SEEDS = ("SW1", "SW4")
#: endpoints of the read shapes: local to either shard, and crossing.
READ_ENDPOINTS = (("D1", "D4"), ("D10", "D12"), ("D1", "D12"))
READ_SHAPES = 8
#: devices of the two shards ``--seeds SW1,SW4`` cuts Fig. 13 into.
SHARD_DEVICES = (
    tuple(f"D{i}" for i in range(1, 7)),
    tuple(f"D{i}" for i in range(7, 13)),
)

#: phase A: units in flight per connection (a unit is one read, or one
#: read plus one admit->remove session).
READS_WINDOW = 32
WRITES_WINDOW = 16
#: phase B: fixed open-loop rates, and the latency limits of the SLO.
READS_RATE = 6000.0
#: 200 sessions/s is 800 operations/s, a seventh of what phase A
#: sustains.  At 500 sessions/s the server has two stable regimes —
#: median latency 0.8 ms or 10 ms, five runs of ten each: once a batch
#: on the executor thread outlasts the interpreter's 5 ms switch
#: interval the event loop waits for the lock, latency grows to ~10 ms,
#: and 2000 operations/s times 10 ms is a batch that again outlasts the
#: interval.  Below ~300 sessions/s the slow regime cannot feed itself.
WRITES_SESSION_RATE = 200.0
READS_LIMIT_MS = 20.0
WRITES_LIMIT_MS = 50.0
#: phase C: the fixed rate ladder (requests per second).
LADDER_RATES = (2000, 6000, 12000, 18000)
#: operations of the in-process traced replay, per ``--seconds``.
TRACED_READS_PER_SECOND = 500
TRACED_SESSIONS_PER_SECOND = 100


# ----------------------------------------------------------------------
# request streams
# ----------------------------------------------------------------------
def read_requests(seed: int) -> Iterator[AdmitTct]:
    """Eight recurring infeasible shapes (1 ns end-to-end budget) under
    ever-fresh names: deterministic rejects, the cacheable class."""
    rng = random.Random(seed)
    shapes = [
        (READ_ENDPOINTS[index % len(READ_ENDPOINTS)],
         rng.choice((1, 2, 4, 8)) * MS, rng.choice((64, 128, 256, 512)))
        for index in range(READ_SHAPES)
    ]
    for count in itertools.count():
        (source, destination), period_ns, length = shapes[
            rng.randrange(READ_SHAPES)
        ]
        yield AdmitTct(TctRequirement(
            name=f"r{count}", source=source, destination=destination,
            period_ns=period_ns, length_bytes=length, e2e_ns=1,
        ))


def write_sessions(seed: int) -> Iterator[Tuple[AdmitTct, Remove]]:
    """Small feasible streams, each admitted then removed; every third
    crosses the shard border (a two-phase publish)."""
    rng = random.Random(seed + 1)
    for count in itertools.count():
        if count % 3 == 2:
            source = rng.choice(SHARD_DEVICES[0])
            destination = rng.choice(SHARD_DEVICES[1])
            if rng.random() < 0.5:
                source, destination = destination, source
        else:
            source, destination = rng.sample(SHARD_DEVICES[count % 2], 2)
        name = f"w{count}"
        yield (
            AdmitTct(TctRequirement(
                name=name, source=source, destination=destination,
                period_ns=rng.choice((4, 8)) * MS,
                length_bytes=rng.randrange(64, 257),
            )),
            Remove(name),
        )


# ----------------------------------------------------------------------
# driving the server child
# ----------------------------------------------------------------------
def _workdir(workload: str) -> Path:
    path = OUT_DIR / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    with open(path / "topology.json", "w") as handle:
        json.dump(topology_to_dict(simulation_topology()), handle)
    return path


async def _bring_up(server: Server, seed: int, writes: bool
                    ) -> LoadGenerator:
    """Set-up of a network run: spawn, announce, connect, warm up (every
    read shape once, so the cache holds them; a few sessions)."""
    server.start()
    generator = LoadGenerator(
        server.port, read_requests(seed),
        write_sessions(seed) if writes else None,
    )
    await generator.connect()
    await generator.closed_loop(0.05, 4)
    generator.take_samples()
    return generator


def _tally(outcome: Outcome, samples: Sequence[Sample]) -> None:
    outcome.attempted += len(samples)
    bad = [s for s in samples if not s.good]
    outcome.failed += len(bad)
    if bad:
        lost = sum(1 for s in bad if not s.done_ns)
        outcome.problems.append(
            f"{len(bad)} of {len(samples)} requests failed "
            f"({lost} lost to transport)"
        )


def _latencies_ms(samples: Sequence[Sample]) -> List[float]:
    return [(s.done_ns - s.due_ns) / 1e6 for s in samples if s.done_ns]


def _completions(samples: Sequence[Sample], by_due: bool):
    """``(seconds since the phase began, latency from due time)`` of
    every good sample, placed by completion or by due time."""
    origin = min(s.due_ns for s in samples)
    return [
        (((s.due_ns if by_due else s.done_ns) - origin) / 1e9,
         (s.done_ns - s.due_ns) / 1e9)
        for s in samples if s.good
    ]


def _slo_miss(samples: Sequence[Sample], limit_ms: float) -> float:
    missed = sum(
        1 for s in samples
        if not s.good or (s.done_ns - s.due_ns) / 1e6 > limit_ms
    )
    return missed / len(samples) if samples else 0.0


async def _end_to_end(outcome: Outcome, seed: int, seconds: float,
                      writes: bool, server: Server) -> None:
    try:
        setups = []
        for rep in range(SETUP_REPS):
            started = time.perf_counter()
            generator = await _bring_up(server, seed, writes)
            setups.append(time.perf_counter() - started)
            if rep < SETUP_REPS - 1:
                await generator.close()
                server.stop()
        window = WRITES_WINDOW if writes else READS_WINDOW
        wall_a = await generator.closed_loop(0.45 * seconds, window)
        phase_a = generator.take_samples()
        rate = WRITES_SESSION_RATE if writes else READS_RATE
        await generator.open_loop(rate, 0.45 * seconds)
        late_ms = percentile(generator.late_ns, 0.99) / 1e6
        phase_b = generator.take_samples()
        await generator.close()
        rss_mb, _ = server.stop()
    finally:
        server.kill()
    _tally(outcome, phase_a)
    _tally(outcome, phase_b)
    outcome.put("setup_s", median(setups))
    # throughput from the closed loop, latency from the open loop
    schedule_ns = (max(s.due_ns for s in phase_b)
                   - min(s.due_ns for s in phase_b))
    outcome.steady_metrics(
        time_bins(_completions(phase_a, by_due=False), wall_a),
        latency_chunks=time_bins(_completions(phase_b, by_due=True),
                                 schedule_ns / 1e9),
    )
    outcome.put("peak_rss_mb", rss_mb)
    outcome.notes["loadgen.late_ms_p99"] = round(late_ms, 3)
    if late_ms > 1.0:
        outcome.notes["open_loop"] = (
            "unresolved: the generator ran more than 1 ms late"
        )


async def _server_layers(outcome: Outcome, seed: int, seconds: float,
                         writes: bool, server: Server) -> None:
    """The per-layer numbers only a real server run gives: the rate
    ladder (reads), generator lateness and CPU, and the counters in the
    server's own ``--metrics-out`` file."""
    try:
        generator = await _bring_up(server, seed, writes)
        rungs: Dict[int, List[Sample]] = {}
        backlog: Dict[int, int] = {}
        cpu_before = (time.process_time(), server.cpu_seconds())
        started = time.perf_counter()
        late_ns: List[int] = []
        if writes:
            await generator.open_loop(WRITES_SESSION_RATE, 0.5 * seconds)
            late_ns = list(generator.late_ns)
            phase_b = generator.take_samples()
            limit_ms = WRITES_LIMIT_MS
        else:
            for rate in LADDER_RATES:
                backlog[rate] = await generator.open_loop(
                    rate, 0.6 * seconds / len(LADDER_RATES)
                )
                if rate == int(READS_RATE):
                    late_ns = list(generator.late_ns)
                rungs[rate] = generator.take_samples()
            phase_b = rungs[int(READS_RATE)]
            limit_ms = READS_LIMIT_MS
        wall = time.perf_counter() - started
        cpu_after = (time.process_time(), server.cpu_seconds())
        await generator.close()
        _, metrics = server.stop()
    finally:
        server.kill()
    _tally(outcome, phase_b)
    outcome.put("slo_miss_frac", _slo_miss(phase_b, limit_ms), len(phase_b))
    outcome.put("latency_p99_ms", percentile(_latencies_ms(phase_b), 0.99),
                len(phase_b))
    schedule_ns = (max(s.due_ns for s in phase_b)
                   - min(s.due_ns for s in phase_b))
    outcome.tail_metric(time_bins(_completions(phase_b, by_due=True),
                                  schedule_ns / 1e9))
    outcome.put("loadgen.late_ms_p99", percentile(late_ns, 0.99) / 1e6,
                len(late_ns))
    outcome.put("loadgen.cpu_share", (cpu_after[0] - cpu_before[0]) / wall)
    outcome.put("frontend.busy_frac", (cpu_after[1] - cpu_before[1]) / wall)
    outcome.put("frontend.connect_ms", generator.connect_ms)
    at_limit = 0
    for rate, samples in rungs.items():
        # overload on the upper rungs is the point of the ladder, not a
        # failed check: its refusals count in slo_miss, not in `failed`
        answered = sum(1 for s in samples if s.done_ns)
        miss = _slo_miss(samples, limit_ms)
        outcome.put(f"loadgen.latency_p50_ms.r{rate}",
                    median(_latencies_ms(samples)), len(samples))
        if (miss <= 0.01 and answered == len(samples)
                and backlog[rate] <= 0.05 * rate):
            at_limit = max(at_limit, rate)
    if rungs:
        outcome.put("loadgen.rate_at_limit_rps", at_limit)

    counters = metrics.get("counters", {})
    histograms = metrics.get("histograms", {})
    hits = counters.get("frontend.cache.hits", 0)
    misses = counters.get("frontend.cache.misses", 0)
    outcome.put("frontend.cache_hit_rate",
                hits / (hits + misses) if hits + misses else 0.0,
                hits + misses)
    outcome.put("frontend.cache_invalidations",
                counters.get("frontend.cache.invalidations", 0))
    batch = histograms.get("frontend.batch.size", {})
    outcome.put("frontend.batch_size_mean",
                batch["sum"] / batch["count"] if batch.get("count") else 0.0,
                batch.get("count", 0))
    queue = histograms.get("frontend.latency.queue_ms", {})
    outcome.put("frontend.queue_ms_p50", queue.get("p50") or 0.0,
                queue.get("count", 0))


# ----------------------------------------------------------------------
# the traced replay: the request path, composed in-process
# ----------------------------------------------------------------------
class _Path:
    """One frontend request path over an in-process 2-shard cluster:
    the steps ``Frontend._ingest`` and ``_run_batch`` take, each a call
    into a public function."""

    def __init__(self) -> None:
        topology = simulation_topology()
        started = time.perf_counter()
        partition = partition_topology(topology, 2, seeds=list(SHARD_SEEDS))
        self.partition_ms = (time.perf_counter() - started) * 1e3
        self.coordinator = ClusterCoordinator(partition=partition)
        self.backend = ClusterBackend(self.coordinator)
        self.cache = DecisionCache(4096)

    def close(self) -> None:
        self.coordinator.shutdown()

    def request(self, kind: str, request,
                spans: Optional[SpanRecorder]) -> Dict:
        """Answer one request; returns the decoded response."""
        lap = spans.lap if spans is not None else no_lap
        lap()
        line = encode_request(request)
        lap("frontend.encode_request")
        _, decoded = decode_request(line)
        lap("frontend.decode_request")
        shape = canonical_shape(decoded)
        lap("service.canonical_shape")
        # reading the epoch (one version per shard) is part of every
        # lookup the server makes
        decision = self.cache.lookup(self.backend.epoch(), shape)
        lap("frontend.cache_lookup")
        cached = decision is not None
        if not cached:
            before = self.backend.epoch()
            decision = self.backend.submit_many([decoded])[0]
            if kind == READ:
                lap("cluster.submit_read")
            elif decision.rung == "twophase":
                lap("cluster.submit_cross")
            else:
                lap("cluster.submit_local")
            after = self.backend.epoch()
            if after != before:
                self.cache.invalidate()
                lap("frontend.cache_invalidate")
            else:
                self.cache.store(after, shape, decision)
                lap("frontend.cache_store")
        answer = encode_decision(decision, cached=cached)
        lap("frontend.encode_decision")
        payload = decode_response(answer)
        lap("frontend.decode_response")
        return payload


def _replay(path: _Path, seed: int, count: int, writes: bool,
            outcome: Outcome, spans: Optional[SpanRecorder]) -> float:
    """``count`` reads (and, for writes, a session beside each) through
    the composed path; returns the loop's wall."""
    reads = read_requests(seed)
    sessions = write_sessions(seed) if writes else None

    def op(kind, request) -> bool:
        outcome.attempted += 1
        if spans is None:
            payload = path.request(kind, request, None)
        else:
            spans.next_op()
            with spans.span("op"):
                payload = path.request(kind, request, spans)
        good = good_verdict(kind, payload)
        if not good:
            outcome.failed += 1
            outcome.problems.append(
                f"{kind} {request.stream_name}: unexpected verdict "
                f"{payload.get('decision') or payload.get('error')}"
            )
        return good

    started = time.perf_counter()
    for _ in range(count):
        op(READ, next(reads))
        if sessions is not None:
            admit, remove = next(sessions)
            if op(ADMIT, admit):
                op(REMOVE, remove)
    return time.perf_counter() - started


def _traced_layers(outcome: Outcome, seed: int, seconds: float,
                   writes: bool, workload: str) -> None:
    per_second = (TRACED_SESSIONS_PER_SECOND if writes
                  else TRACED_READS_PER_SECOND)
    count = max(10, round(per_second * seconds))
    plain_path = _Path()
    try:
        plain_s = _replay(plain_path, seed, count, writes, Outcome(), None)
    finally:
        plain_path.close()
    spans = SpanRecorder()
    path = _Path()
    try:
        traced_s = _replay(path, seed, count, writes, outcome, spans)
        started = time.perf_counter()
        global_schedule = path.coordinator.global_schedule()
        outcome.put("cluster.global_schedule_ms",
                    (time.perf_counter() - started) * 1e3)
        # leave something on the stores so the audit has a GCL to check
        admit, _ = next(write_sessions(seed + 7))
        path.request(ADMIT, admit, None)
        started = time.perf_counter()
        try:
            path.coordinator.audit()
        except Exception as exc:  # noqa: BLE001 - a failed audit fails the run
            outcome.problems.append(
                f"cluster audit failed: {type(exc).__name__}: {exc}"
            )
        outcome.put("cluster.audit_ms", (time.perf_counter() - started) * 1e3)
        roundtrips = []
        for name in path.coordinator.shard_names():
            schedule = path.coordinator.shard_store(name).schedule
            started = time.perf_counter()
            schedule_from_dict(json.loads(json.dumps(
                schedule_to_dict(schedule)
            )))
            roundtrips.append((time.perf_counter() - started) * 1e3)
        outcome.put("serialization.schedule_roundtrip_ms_p50",
                    median(roundtrips), len(roundtrips))
        counters = path.coordinator.metrics.to_dict()["counters"]
        outcome.put("cluster.requests_local",
                    counters.get("cluster.requests_local", 0))
        outcome.put("cluster.requests_cross",
                    counters.get("cluster.requests_cross", 0))
        outcome.put("cluster.partition_ms", path.partition_ms)
    finally:
        path.close()
    for name, span in (
        ("frontend.encode_request_us_p50", "frontend.encode_request"),
        ("frontend.decode_request_us_p50", "frontend.decode_request"),
        ("frontend.encode_decision_us_p50", "frontend.encode_decision"),
        ("frontend.decode_response_us_p50", "frontend.decode_response"),
        ("frontend.cache_lookup_us_p50", "frontend.cache_lookup"),
        ("frontend.cache_store_us_p50", "frontend.cache_store"),
        ("service.canonical_shape_us_p50", "service.canonical_shape"),
    ) + ((
        ("frontend.cache_invalidate_us_p50", "frontend.cache_invalidate"),
        ("cluster.submit_local_us_p50", "cluster.submit_local"),
        ("cluster.submit_cross_us_p50", "cluster.submit_cross"),
    ) if writes else ()):
        outcome.put(name, *spans.p50(span, 1e3))
    finish_traced(outcome, spans, plain_s, traced_s, workload)


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------
def _frontend(workload: str, seed: int, seconds: float, trace: bool,
              writes: bool, server_cpu: Optional[int]) -> Outcome:
    outcome = Outcome()
    workdir = _workdir(workload)
    server = Server(workdir / "topology.json", workdir / "metrics.json",
                    cpu=server_cpu)
    # the generator keeps every sample alive: a collector pass over
    # them would stall the schedule for milliseconds
    gc.disable()
    try:
        if not trace:
            asyncio.run(_end_to_end(outcome, seed, seconds, writes, server))
        else:
            asyncio.run(
                _server_layers(outcome, seed, seconds, writes, server)
            )
            _traced_layers(outcome, seed, 0.4 * seconds, writes, workload)
    finally:
        gc.enable()
        shutil.rmtree(workdir, ignore_errors=True)
    return outcome


def frontend_reads(seed: int, seconds: float, trace: bool,
                   server_cpu: Optional[int] = None) -> Outcome:
    """``server_cpu`` pins the server child to a CPU of its own."""
    return _frontend("frontend_reads", seed, seconds, trace, False,
                     server_cpu)


def frontend_writes(seed: int, seconds: float, trace: bool,
                    server_cpu: Optional[int] = None) -> Outcome:
    return _frontend("frontend_writes", seed, seconds, trace, True,
                     server_cpu)
