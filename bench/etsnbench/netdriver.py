"""Driver of the network workloads: the server under test in a child
process, and a load generator of the benchmark's own.

The generator is one process with one asyncio loop and at most two
connections.  It times every request from the moment it was *due* (in
an open loop that is the schedule, not the moment the generator got
round to writing it), keeps every round trip as an exact sample, and
reports how late it ran.  Of the program it uses only the wire codec,
:mod:`repro.frontend.protocol`.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.frontend import protocol

from etsnbench.core import child_env

CONNECTIONS = 2
#: seconds the server gets to announce its port, and to drain on SIGTERM.
ANNOUNCE_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 30.0
#: request kinds, for the oracle.
READ, ADMIT, REMOVE = "read", "admit", "remove"


# ----------------------------------------------------------------------
# the server child process
# ----------------------------------------------------------------------
class ServerError(RuntimeError):
    """The server child did not start, or did not stop cleanly."""


class Server:
    """``python -m repro frontend serve`` over a 2-shard cluster."""

    def __init__(self, topology_path: Path, metrics_path: Path,
                 cpu: Optional[int] = None) -> None:
        self._topology_path = topology_path
        #: CPU the child is pinned to (the generator sits on another)
        self._cpu = cpu
        self.metrics_path = metrics_path
        self._proc: Optional[subprocess.Popen] = None
        self.port = 0

    @property
    def pid(self) -> int:
        return self._proc.pid

    def start(self) -> None:
        if self.metrics_path.exists():
            self.metrics_path.unlink()
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "frontend", "serve",
             "--topology", str(self._topology_path),
             "--cluster", "--shards", "2", "--seeds", "SW1,SW4",
             "--port", "0", "--metrics-out", str(self.metrics_path)],
            stdout=subprocess.PIPE, env=child_env(),
        )
        if self._cpu is not None:
            os.sched_setaffinity(self._proc.pid, {self._cpu})
        try:
            ready, _, _ = select.select(
                [self._proc.stdout], [], [], ANNOUNCE_TIMEOUT_S
            )
            line = self._proc.stdout.readline() if ready else b""
            if not line:
                raise ServerError("server did not announce its port")
            self.port = json.loads(line)["frontend"]["port"]
        except BaseException:
            self.kill()
            raise

    def cpu_seconds(self) -> float:
        """User + system CPU the child has used so far."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> Tuple[float, Dict]:
        """SIGTERM, wait for the drain, insist it was clean.

        Returns the child's peak RSS in MiB and the metrics it wrote."""
        proc = self._proc
        if proc is None:
            raise ServerError("server is not running")
        proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    raise ServerError("server did not drain on SIGTERM")
                time.sleep(0.01)
        except BaseException:
            self.kill()
            raise
        self._reaped(os.waitstatus_to_exitcode(status))
        if proc.returncode != 0:
            raise ServerError(f"server exited with code {proc.returncode}")
        if not self.metrics_path.is_file():
            raise ServerError("server wrote no --metrics-out file")
        with open(self.metrics_path) as handle:
            metrics = json.load(handle)
        return usage.ru_maxrss / 1024.0, metrics

    def _reaped(self, code: int) -> None:
        self._proc.returncode = code
        self._proc.stdout.close()
        self._proc = None

    def kill(self) -> None:
        """Last resort on any failure path: never leave a child behind."""
        proc = self._proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        self._proc = None


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------
@dataclass(slots=True)
class Sample:
    """One answered (or lost) request."""

    kind: str
    due_ns: int      # when it should have been written
    sent_ns: int     # when it was written
    done_ns: int     # when its response line arrived (0: lost)
    good: bool       # answered, and the verdict matches the oracle
    cached: bool


def good_verdict(kind: str, payload: Dict) -> bool:
    """The per-operation oracle: reads are designed e2e-floor rejects,
    session admits and removes must be accepted."""
    if not payload.get("ok"):
        return False
    decision = payload.get("decision", {})
    if kind == READ:
        texts = [decision.get("reason") or ""]
        texts.extend((decision.get("attempts") or {}).values())
        return (not decision.get("accepted")
                and "e2e-floor" in " ".join(texts))
    return bool(decision.get("accepted"))


class _Connection(asyncio.Protocol):
    """One pipelined JSONL connection; responses come back in order."""

    def __init__(self, samples: List[Sample]) -> None:
        self._samples = samples
        self._buffer = b""
        # (kind, due_ns, sent_ns, callback) per request in flight
        self._pending: Deque[Tuple[str, int, int, Optional[Callable]]] = (
            deque()
        )
        self._transport = None
        self.closed = asyncio.get_running_loop().create_future()

    def connection_made(self, transport) -> None:
        self._transport = transport

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def send(self, kind: str, request, due_ns: int,
             on_done: Optional[Callable] = None) -> None:
        line = protocol.encode_request(request)
        self._pending.append((kind, due_ns, time.perf_counter_ns(), on_done))
        self._transport.write(line)

    def data_received(self, data: bytes) -> None:
        now = time.perf_counter_ns()
        lines = (self._buffer + data).split(b"\n")
        self._buffer = lines.pop()
        for line in lines:
            kind, due_ns, sent_ns, on_done = self._pending.popleft()
            payload = protocol.decode_response(line)
            good = good_verdict(kind, payload)
            self._samples.append(Sample(
                kind, due_ns, sent_ns, now, good,
                bool(payload.get("cached")),
            ))
            if on_done is not None:
                on_done(self, now, good)

    def connection_lost(self, exc) -> None:
        # whatever was still in flight is lost to transport
        for kind, due_ns, sent_ns, _ in self._pending:
            self._samples.append(
                Sample(kind, due_ns, sent_ns, 0, False, False)
            )
        self._pending.clear()
        if not self.closed.done():
            self.closed.set_result(None)

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()


class LoadGenerator:
    """Drives one server through closed- and open-loop phases.

    ``reads`` and ``sessions`` are endless iterators of requests: a
    read is one designed-reject admit; a session is an ``(admit,
    remove)`` pair, the remove sent when the admit's response arrives.
    """

    def __init__(self, port: int, reads, sessions=None) -> None:
        self._port = port
        self._reads = reads
        self._sessions = sessions
        self.samples: List[Sample] = []
        self.late_ns: List[int] = []
        self._connections: List[_Connection] = []
        self.connect_ms = 0.0

    async def connect(self) -> None:
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        for _ in range(CONNECTIONS):
            _, connection = await loop.create_connection(
                lambda: _Connection(self.samples), "127.0.0.1", self._port
            )
            self._connections.append(connection)
        self.connect_ms = (time.perf_counter() - started) * 1e3

    async def close(self) -> None:
        for connection in self._connections:
            connection.close()
        for connection in self._connections:
            await connection.closed
        self._connections.clear()

    def _in_flight(self) -> int:
        return sum(c.in_flight for c in self._connections)

    async def _drain(self, timeout_s: float = 30.0) -> None:
        """Wait until every request in flight is answered."""
        deadline = time.monotonic() + timeout_s
        while self._in_flight() and time.monotonic() < deadline:
            await asyncio.sleep(0.001)

    def take_samples(self) -> List[Sample]:
        """Hand over (and forget) the samples gathered so far."""
        taken = list(self.samples)
        self.samples.clear()
        self.late_ns = []
        return taken

    # -- one unit of work on a connection ------------------------------
    def _start(self, connection: _Connection, due_ns: int,
               on_finished: Optional[Callable] = None) -> None:
        """Issue the next read — and, in a write workload, the next
        session beside it.  ``on_finished`` fires once per unit, when
        its last response is in."""
        if self._sessions is None:
            connection.send(READ, next(self._reads), due_ns, on_finished)
            return
        admit, remove = next(self._sessions)
        connection.send(READ, next(self._reads), due_ns)

        def admitted(conn, now_ns, good):
            # a dependent request is due when its admit's answer arrived
            if good:
                conn.send(REMOVE, remove, now_ns, on_finished)
            elif on_finished is not None:
                on_finished(conn, now_ns, good)

        connection.send(ADMIT, admit, due_ns, admitted)

    # -- phases --------------------------------------------------------
    async def closed_loop(self, seconds: float, window: int) -> float:
        """Keep ``window`` units in flight per connection for
        ``seconds``; returns the phase's wall (start to last answer)."""
        started = time.perf_counter_ns()
        deadline = started + int(seconds * 1e9)

        def refill(connection, now_ns, good):
            if now_ns < deadline:
                self._start(connection, now_ns, refill)

        for connection in self._connections:
            for _ in range(window):
                self._start(connection, time.perf_counter_ns(), refill)
        await asyncio.sleep(seconds)
        await self._drain()
        last = max((s.done_ns for s in self.samples), default=started)
        return (last - started) / 1e9

    async def open_loop(self, rate: float, seconds: float) -> int:
        """Start units on a fixed schedule of ``rate`` per second for
        ``seconds``, whatever the server does; returns how many were in
        flight when the schedule ended (the backlog)."""
        interval_ns = 1e9 / rate
        total = max(1, int(rate * seconds))
        origin = time.perf_counter_ns() + 2_000_000
        sent = 0
        while sent < total:
            now = time.perf_counter_ns()
            due = origin + int(sent * interval_ns)
            if due <= now:
                connection = self._connections[sent % CONNECTIONS]
                self._start(connection, due)
                self.late_ns.append(time.perf_counter_ns() - due)
                sent += 1
                if sent % 32:
                    continue
            # the loop's timers are a millisecond coarse, so the
            # generator yields to the loop instead of sleeping: it has
            # a CPU of its own to spend on running on time
            await asyncio.sleep(0)
        backlog = self._in_flight()
        await self._drain()
        return backlog
