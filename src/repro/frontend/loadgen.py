"""The frontend load generator: sustained admission load over sockets.

``repro loadgen`` drives a running
:class:`~repro.frontend.server.Frontend` with a seeded, shape-mixed
request stream and measure what a CUC would feel: end-to-end
request/response round-trip latency, throughput, backpressure drops,
and cache effectiveness.

* **Closed loop** (default): each connection keeps a fixed window of
  pipelined requests outstanding and sends the next as responses
  arrive — throughput is whatever the server sustains, and the
  latency distribution is honest (no coordinated omission from an
  unbounded send queue).
* **Open loop**: requests are launched on a fixed schedule
  (``rate_per_sec`` across all connections) regardless of response
  progress, which surfaces ``server_busy`` backpressure under
  overload.
* **Shape mix**: a seeded generator draws each request from a small
  set of recurring stream profiles under ever-fresh names — the
  industrial arrival pattern the decision cache exists for.  Profiles
  marked infeasible carry an end-to-end budget below the route's wire
  time, so they produce deterministic (cacheable) screening rejects.

Results land in a :class:`LoadgenReport` with p50/p99/p999 from the
:mod:`repro.obs` histogram and a JSON-able summary, the report
``repro loadgen`` prints.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.frontend import protocol
from repro.model.stream import TctRequirement
from repro.service.metrics import MetricsRegistry
from repro.service.requests import AdmitTct

__all__ = [
    "LoadgenConfig",
    "LoadgenReport",
    "ShapeProfile",
    "make_profiles",
    "run_loadgen",
    "run_loadgen_sync",
]


@dataclass(frozen=True)
class ShapeProfile:
    """One recurring stream profile: a shape the mix draws from."""

    source: str
    destination: str
    period_ns: int
    length_bytes: int
    e2e_ns: Optional[int] = None
    share: bool = False

    def request(self, name: str) -> AdmitTct:
        return AdmitTct(TctRequirement(
            name=name,
            source=self.source,
            destination=self.destination,
            period_ns=self.period_ns,
            length_bytes=self.length_bytes,
            e2e_ns=self.e2e_ns,
            share=self.share,
        ))


def make_profiles(
    endpoints: Sequence[Tuple[str, str]],
    distinct: int = 8,
    infeasible_fraction: float = 1.0,
    seed: int = 7,
) -> List[ShapeProfile]:
    """A seeded profile set over ``endpoints`` (source, destination)
    pairs.

    ``infeasible_fraction`` of the profiles get an end-to-end budget of
    1 ns — far below any route's wire time, so screening rejects them
    deterministically (the cacheable class).  The rest are ordinary
    feasible profiles.
    """
    if not endpoints:
        raise ValueError("need at least one (source, destination) pair")
    if distinct <= 0:
        raise ValueError(f"distinct must be positive, got {distinct}")
    rng = random.Random(seed)
    periods_ns = (1_000_000, 2_000_000, 4_000_000, 8_000_000)
    profiles: List[ShapeProfile] = []
    infeasible_count = round(distinct * infeasible_fraction)
    for index in range(distinct):
        source, destination = endpoints[index % len(endpoints)]
        period_ns = periods_ns[rng.randrange(len(periods_ns))]
        length_bytes = rng.choice((64, 128, 256, 512))
        infeasible = index < infeasible_count
        profiles.append(ShapeProfile(
            source=source,
            destination=destination,
            period_ns=period_ns,
            length_bytes=length_bytes,
            # 1 ns can never cover even one hop's wire time -> the
            # fast path's e2e floor screens it out deterministically
            e2e_ns=1 if infeasible else None,
        ))
    return profiles


@dataclass(frozen=True)
class LoadgenConfig:
    """Tunables of one load-generation run."""

    host: str = "127.0.0.1"
    port: int = 0
    total_requests: int = 10_000
    connections: int = 4
    #: closed loop: outstanding pipelined requests per connection.
    window: int = 64
    #: "closed" or "open".
    mode: str = "closed"
    #: open loop only: aggregate request launch rate.
    rate_per_sec: float = 10_000.0
    seed: int = 7
    #: client-side guard against a wedged server.
    timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if self.total_requests <= 0:
            raise ValueError(
                f"total_requests must be positive, got {self.total_requests}"
            )
        if self.connections <= 0:
            raise ValueError(
                f"connections must be positive, got {self.connections}"
            )
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.mode not in ("closed", "open"):
            raise ValueError(
                f"mode must be 'closed' or 'open', got {self.mode!r}"
            )
        if self.rate_per_sec <= 0:
            raise ValueError(
                f"rate_per_sec must be positive, got {self.rate_per_sec}"
            )


@dataclass
class LoadgenReport:
    """What one run measured, JSON-able for ``repro loadgen``'s report."""

    sent: int = 0
    ok: int = 0
    accepted: int = 0
    rejected: int = 0
    cached: int = 0
    busy: int = 0
    shutting_down: int = 0
    bad: int = 0
    transport_errors: int = 0
    elapsed_s: float = 0.0
    requests_per_sec: float = 0.0
    rtt_p50_ms: float = 0.0
    rtt_p99_ms: float = 0.0
    rtt_p999_ms: float = 0.0
    cache_hit_rate: float = 0.0
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def dropped(self) -> int:
        """Requests that never received a decision: backpressure
        rejections, drain refusals, and transport failures."""
        return self.busy + self.shutting_down + self.transport_errors

    def finalize(self, elapsed_s: float) -> "LoadgenReport":
        self.elapsed_s = elapsed_s
        self.requests_per_sec = (
            self.sent / elapsed_s if elapsed_s > 0 else 0.0
        )
        summary = self.metrics.histogram("loadgen.rtt_ms").summary()
        self.rtt_p50_ms = summary.get("p50") or 0.0
        self.rtt_p99_ms = summary.get("p99") or 0.0
        self.rtt_p999_ms = summary.get("p999") or 0.0
        self.cache_hit_rate = self.cached / self.ok if self.ok else 0.0
        return self

    def to_dict(self) -> Dict:
        return {
            "sent": self.sent,
            "ok": self.ok,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "cached": self.cached,
            "busy": self.busy,
            "shutting_down": self.shutting_down,
            "bad": self.bad,
            "transport_errors": self.transport_errors,
            "dropped": self.dropped,
            "elapsed_s": self.elapsed_s,
            "requests_per_sec": self.requests_per_sec,
            "rtt_p50_ms": self.rtt_p50_ms,
            "rtt_p99_ms": self.rtt_p99_ms,
            "rtt_p999_ms": self.rtt_p999_ms,
            "cache_hit_rate": self.cache_hit_rate,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


class _Tally:
    """Shared counters across client connections (event-loop only)."""

    def __init__(self, report: LoadgenReport) -> None:
        self.report = report
        self.rtt = report.metrics.histogram("loadgen.rtt_ms")

    def record(self, payload: Dict, rtt_ms: float) -> None:
        report = self.report
        self.rtt.observe(rtt_ms)
        if payload.get("ok"):
            report.ok += 1
            if payload.get("cached"):
                report.cached += 1
            if payload.get("decision", {}).get("accepted"):
                report.accepted += 1
            else:
                report.rejected += 1
            return
        error = payload.get("error")
        if error == protocol.ERROR_SERVER_BUSY:
            report.busy += 1
        elif error == protocol.ERROR_SHUTTING_DOWN:
            report.shutting_down += 1
        else:
            report.bad += 1


async def _reader_loop(
    reader: "asyncio.StreamReader",
    expected: int,
    sent_at: Dict[object, float],
    tally: _Tally,
    clock,
    window: Optional["asyncio.Semaphore"] = None,
) -> None:
    received = 0
    while received < expected:
        line = await reader.readline()
        if not line:
            tally.report.transport_errors += expected - received
            return
        payload = protocol.decode_response(line)
        started = sent_at.pop(payload.get("id"), None)
        rtt_ms = ((clock() - started) * 1e3) if started is not None else 0.0
        tally.record(payload, rtt_ms)
        received += 1
        if window is not None:
            window.release()


async def _closed_loop_connection(
    config: LoadgenConfig,
    conn_index: int,
    quota: int,
    profiles: Sequence[ShapeProfile],
    tally: _Tally,
) -> None:
    if quota <= 0:
        return
    loop = asyncio.get_running_loop()
    rng = random.Random(config.seed * 1_000_003 + conn_index)
    reader, writer = await asyncio.open_connection(config.host, config.port)
    sent_at: Dict[object, float] = {}
    # the reader releases one window slot per response, so at most
    # `window` requests are ever outstanding on this connection
    window = asyncio.Semaphore(config.window)
    reader_task = asyncio.create_task(
        _reader_loop(reader, quota, sent_at, tally, loop.time, window)
    )
    try:
        for seq in range(quota):
            await window.acquire()
            profile = profiles[rng.randrange(len(profiles))]
            request_id = f"{conn_index}-{seq}"
            request = profile.request(f"lg-{request_id}")
            sent_at[request_id] = loop.time()
            writer.write(protocol.encode_request(request, request_id))
            tally.report.sent += 1
            if seq % config.window == 0:
                await writer.drain()
        await writer.drain()
        await asyncio.wait_for(reader_task, timeout=config.timeout_s)
    except (asyncio.TimeoutError, ConnectionError, OSError):
        reader_task.cancel()
        tally.report.transport_errors += len(sent_at)
    finally:
        if not reader_task.done():
            reader_task.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _open_loop_connection(
    config: LoadgenConfig,
    conn_index: int,
    quota: int,
    profiles: Sequence[ShapeProfile],
    tally: _Tally,
) -> None:
    if quota <= 0:
        return
    loop = asyncio.get_running_loop()
    rng = random.Random(config.seed * 1_000_003 + conn_index)
    reader, writer = await asyncio.open_connection(config.host, config.port)
    sent_at: Dict[object, float] = {}
    reader_task = asyncio.create_task(
        _reader_loop(reader, quota, sent_at, tally, loop.time)
    )
    per_conn_rate = config.rate_per_sec / config.connections
    interval_s = 1.0 / per_conn_rate
    epoch = loop.time()
    try:
        for seq in range(quota):
            due = epoch + seq * interval_s
            delay_s = due - loop.time()
            if delay_s > 0:
                await asyncio.sleep(delay_s)
            profile = profiles[rng.randrange(len(profiles))]
            request_id = f"{conn_index}-{seq}"
            request = profile.request(f"lg-{request_id}")
            sent_at[request_id] = loop.time()
            writer.write(protocol.encode_request(request, request_id))
            tally.report.sent += 1
            await writer.drain()
        await asyncio.wait_for(reader_task, timeout=config.timeout_s)
    except (asyncio.TimeoutError, ConnectionError, OSError):
        reader_task.cancel()
        tally.report.transport_errors += len(sent_at)
    finally:
        if not reader_task.done():
            reader_task.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def run_loadgen(
    config: LoadgenConfig,
    profiles: Sequence[ShapeProfile],
) -> LoadgenReport:
    """Drive the frontend at ``config.host:config.port`` and measure."""
    if not profiles:
        raise ValueError("need at least one shape profile")
    report = LoadgenReport()
    tally = _Tally(report)
    loop = asyncio.get_running_loop()
    base = config.total_requests // config.connections
    remainder = config.total_requests % config.connections
    quotas = [
        base + (1 if index < remainder else 0)
        for index in range(config.connections)
    ]
    runner = (
        _closed_loop_connection if config.mode == "closed"
        else _open_loop_connection
    )
    started = loop.time()
    await asyncio.gather(*(
        runner(config, index, quota, profiles, tally)
        for index, quota in enumerate(quotas)
    ))
    return report.finalize(loop.time() - started)


def run_loadgen_sync(
    config: LoadgenConfig,
    profiles: Sequence[ShapeProfile],
) -> LoadgenReport:
    """:func:`run_loadgen` from synchronous code (CLI, benchmarks)."""
    return asyncio.run(run_loadgen(config, profiles))
