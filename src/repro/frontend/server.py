"""The asyncio admission frontend: sockets in, structured decisions out.

The admission runtime (:class:`~repro.service.admission.AdmissionService`,
:class:`~repro.cluster.coordinator.ClusterCoordinator`) is a synchronous
in-process API.  :class:`Frontend` puts a network face on it that holds
up under event-triggered load:

* **JSONL protocol with pipelining** (:mod:`repro.frontend.protocol`) —
  one request per line, one response per line, responses strictly in
  request order per connection; a client may write thousands of lines
  before reading the first response.
* **Bounded intake, explicit backpressure** — requests land in a
  bounded queue; when it is full the server answers a 429-style
  ``server_busy`` error *immediately* instead of buffering without
  bound.  Per-connection response queues are bounded too: a client
  that stops reading stops being read from (TCP flow control does the
  rest).
* **Batch coalescing, sized per shard** — a single dispatcher drains
  up to ``max_batch x shard_count`` queued requests per backend call,
  so one executor hop and one service write-lock acquisition amortize
  over a whole burst.
* **Decision cache** (:mod:`repro.frontend.cache`) — deterministic
  rejections are replayed for repeated canonical shapes
  (:func:`repro.service.shape.canonical_shape`) pinned to the exact
  store epoch they were proven on, short-circuiting the solver
  entirely; every observed publish invalidates.
* **Observability** — ``frontend.*`` counters and latency histograms
  in a :class:`~repro.service.metrics.MetricsRegistry`, and per-batch
  spans threaded through the existing :class:`TraceContext` ambient
  propagation so backend admission spans join the frontend's trace.
* **Graceful drain** — :meth:`Frontend.stop` (wired to SIGTERM/SIGINT
  by ``repro frontend serve``) stops accepting, decides everything
  already queued, flushes every response, then closes.

Decision semantics under pipelining: a response is computed against
the store snapshot current when the request was *ingested* (cache hit)
or *dispatched* (solver path).  Requests that must observe an earlier
request's effect should wait for its response before being sent —
exactly the closed-loop discipline a CUC uses against a CNC.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.frontend import protocol
from repro.frontend.cache import DecisionCache
from repro.obs.context import TraceContext
from repro.obs.trace import NULL_TRACER, Tracer
from repro.service.admission import AdmissionService
from repro.service.metrics import MetricsRegistry
from repro.service.requests import AdmissionRequest, Decision
from repro.service.shape import canonical_shape

__all__ = [
    "ClusterBackend",
    "Frontend",
    "FrontendConfig",
    "FrontendThread",
    "ServiceBackend",
    "serve_until_stopped",
]

#: Internal error code for a backend failure (kept out of protocol's
#: public vocabulary: clients should treat it as "retry elsewhere").
ERROR_INTERNAL = "internal_error"


@dataclass(frozen=True)
class FrontendConfig:
    """Tunables of one frontend instance."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``Frontend.port``).
    port: int = 0
    #: intake queue bound; a full queue answers ``server_busy``.
    max_queue: int = 1024
    #: requests coalesced per backend call, *per shard* — the dispatcher
    #: drains up to ``max_batch * shard_count`` at once.
    max_batch: int = 32
    #: per-connection pipelined responses awaiting write before the
    #: reader stops consuming new lines from that connection.
    max_pipeline: int = 1024
    #: decision cache capacity; 0 disables the cache entirely.
    cache_size: int = 4096
    #: how long a graceful stop waits for queued work to decide before
    #: answering the remainder with ``shutting_down``.
    drain_grace_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_queue <= 0:
            raise ValueError(f"max_queue must be positive, got {self.max_queue}")
        if self.max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {self.max_batch}")
        if self.max_pipeline <= 0:
            raise ValueError(
                f"max_pipeline must be positive, got {self.max_pipeline}"
            )
        if self.cache_size < 0:
            raise ValueError(
                f"cache_size must be >= 0, got {self.cache_size}"
            )


class ServiceBackend:
    """One :class:`AdmissionService` as a frontend backend."""

    kind = "service"

    def __init__(self, service: AdmissionService) -> None:
        self._service = service

    @property
    def shard_count(self) -> int:
        return 1

    def epoch(self):
        """The store version — bumped by every CAS publish."""
        return self._service.store.version

    def submit_many(
        self, requests: Sequence[AdmissionRequest]
    ) -> List[Decision]:
        return self._service.submit_many(requests)

    @property
    def metrics(self) -> MetricsRegistry:
        return self._service.metrics


class ClusterBackend:
    """A :class:`ClusterCoordinator` as a frontend backend."""

    kind = "cluster"

    def __init__(self, coordinator) -> None:
        self._coordinator = coordinator
        self._store = coordinator.store
        self._shard_count = len(coordinator.shard_names())

    @property
    def shard_count(self) -> int:
        return self._shard_count

    def epoch(self) -> int:
        """The store version — bumped by every CAS publish."""
        return self._store.version

    def submit_many(
        self, requests: Sequence[AdmissionRequest]
    ) -> List[Decision]:
        return self._coordinator.submit_many(requests)

    @property
    def metrics(self) -> MetricsRegistry:
        return self._coordinator.metrics


@dataclass
class _Pending:
    """One queued request: everything needed to respond later."""

    request: AdmissionRequest
    shape: tuple
    request_id: Optional[object]
    future: "asyncio.Future"
    started: float


_STOP = object()

#: Bytes asked of the socket per read event.  asyncio's selector
#: transport asks for 256 KiB, so every request allocates (and frees) a
#: fresh 256 KiB buffer — a size at glibc malloc's mmap/trim thresholds:
#: depending on the heap layout start-up left behind it is served from
#: the heap top or page-faults through mmap/brk on every request (two
#: minor faults and 0.07 ms of round trip each).  A request line is a few
#: hundred bytes; 16 KiB still takes a pipelined burst in one read and
#: stays far below the 128 KiB threshold.
_READ_BYTES = 16 * 1024


class Frontend:
    """The asyncio socket server fronting an admission backend.

    Single event loop, single dispatcher; the synchronous backend runs
    on the loop's executor so solves never block the socket plane.
    All cache and counter state is touched from the loop thread only.
    """

    def __init__(
        self,
        backend,
        config: Optional[FrontendConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._backend = backend
        self._config = config or FrontendConfig()
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._cache: Optional[DecisionCache] = (
            DecisionCache(self._config.cache_size, metrics=self._metrics)
            if self._config.cache_size else None
        )
        self._coalesce_max = self._config.max_batch * max(
            1, getattr(backend, "shard_count", 1)
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._queue: Optional[asyncio.Queue] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._conn_tasks: set = set()
        self._draining = False

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self._config.max_queue)
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, self._config.host, self._config.port
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — resolves an ephemeral port 0."""
        sockets = self._server.sockets if self._server else None
        if not sockets:
            raise RuntimeError("frontend is not started")
        host, port = sockets[0].getsockname()[:2]
        return host, port

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    @property
    def cache(self) -> Optional[DecisionCache]:
        return self._cache

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: refuse new work, decide queued work,
        flush every response, close every connection.

        With ``drain=False`` (or after ``drain_grace_s`` expires) the
        still-queued remainder is answered with ``shutting_down``
        instead of being decided.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._draining = True
        if drain and self._queue is not None:
            try:
                await asyncio.wait_for(
                    self._queue.join(), timeout=self._config.drain_grace_s
                )
            except asyncio.TimeoutError:
                self._metrics.counter("frontend.drain_timeouts").inc()
        self._flush_queue_as_shutting_down()
        if self._dispatcher is not None:
            await self._queue.put(_STOP)
            await self._dispatcher
            self._dispatcher = None
        # connections: everything decidable is decided and every future
        # resolved; cancel the readers and let the writers flush
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()

    def _flush_queue_as_shutting_down(self) -> None:
        """Answer whatever is still queued (drain timed out or was
        skipped) so no client is left hanging on a response."""
        if self._queue is None:
            return
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if item is _STOP:
                self._queue.task_done()
                continue
            self._respond(
                item.future,
                protocol.encode_error(
                    protocol.ERROR_SHUTTING_DOWN,
                    detail="request was queued but the server is stopping",
                    request_id=item.request_id,
                ),
                item.started,
            )
            self._metrics.counter("frontend.rejected_shutdown").inc()
            self._queue.task_done()

    # -- connection plane ----------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._metrics.gauge("frontend.connections").add(1)
        # responses strictly in request order: the reader appends one
        # future per line, the writer awaits and writes them FIFO; the
        # bounded queue stalls the reader when the client stops reading
        pending: asyncio.Queue = asyncio.Queue(
            maxsize=self._config.max_pipeline
        )
        writer_task = asyncio.create_task(self._writer_loop(pending, writer))
        writer.transport.max_size = _READ_BYTES
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                future = self._loop.create_future()
                await pending.put(future)
                self._ingest(line, future)
        except (asyncio.CancelledError, ConnectionResetError):
            pass
        finally:
            # a second cancellation may be delivered at any await below
            # (stop() cancels once, asyncio may re-raise at the next
            # suspension) — cleanup must complete and never let
            # CancelledError escape into asyncio's server bookkeeping
            pending.put_nowait(_STOP)
            try:
                await asyncio.wait_for(
                    writer_task, timeout=self._config.drain_grace_s
                )
            except (asyncio.TimeoutError, asyncio.CancelledError):
                writer_task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError,
                    BrokenPipeError, OSError):
                pass
            self._metrics.gauge("frontend.connections").add(-1)
            self._conn_tasks.discard(task)

    async def _writer_loop(self, pending: asyncio.Queue, writer) -> None:
        try:
            while True:
                future = await pending.get()
                if future is _STOP:
                    break
                payload = await future
                writer.write(payload)
                if pending.empty():
                    # coalesce flushes across a pipelined burst: only
                    # pay the drain when there is nothing left to append
                    await writer.drain()
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    # -- ingest (event-loop thread only) -------------------------------
    def _ingest(self, line: bytes, future: "asyncio.Future") -> None:
        started = self._loop.time()
        self._metrics.counter("frontend.requests_total").inc()
        try:
            request_id, request = protocol.decode_request(line)
        except ValueError as exc:
            self._metrics.counter("frontend.rejected_bad_request").inc()
            self._respond(
                future,
                protocol.encode_error(
                    protocol.ERROR_BAD_REQUEST, detail=str(exc)
                ),
                started,
            )
            return
        if self._draining:
            self._metrics.counter("frontend.rejected_shutdown").inc()
            self._respond(
                future,
                protocol.encode_error(
                    protocol.ERROR_SHUTTING_DOWN, request_id=request_id
                ),
                started,
            )
            return
        shape = canonical_shape(request)
        if self._cache is not None:
            cached = self._cache.lookup(self._backend.epoch(), shape)
            if cached is not None:
                self._respond(
                    future,
                    protocol.encode_decision(
                        cached, request_id=request_id, cached=True
                    ),
                    started,
                )
                return
        item = _Pending(
            request=request, shape=shape, request_id=request_id,
            future=future, started=started,
        )
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self._metrics.counter("frontend.rejected_busy").inc()
            self._respond(
                future,
                protocol.encode_error(
                    protocol.ERROR_SERVER_BUSY,
                    detail=(
                        f"intake queue is full "
                        f"({self._config.max_queue} requests)"
                    ),
                    request_id=request_id,
                ),
                started,
            )
            return
        self._metrics.gauge("frontend.queue.depth").set(
            self._queue.qsize()
        )

    def _respond(
        self, future: "asyncio.Future", payload: bytes, started: float
    ) -> None:
        if not future.done():
            future.set_result(payload)
        self._metrics.counter("frontend.responses_total").inc()
        self._metrics.histogram("frontend.latency.request_ms").observe(
            (self._loop.time() - started) * 1e3
        )

    # -- dispatch plane ------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            item = await self._queue.get()
            if item is _STOP:
                self._queue.task_done()
                return
            batch = [item]
            while len(batch) < self._coalesce_max:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self._metrics.gauge("frontend.queue.depth").set(
                self._queue.qsize()
            )
            try:
                await self._run_batch(batch)
            finally:
                for _ in batch:
                    self._queue.task_done()

    async def _run_batch(self, batch: List[_Pending]) -> None:
        started = self._loop.time()
        self._metrics.counter("frontend.batches").inc()
        self._metrics.histogram("frontend.batch.size").observe(len(batch))
        for item in batch:
            self._metrics.histogram("frontend.latency.queue_ms").observe(
                (started - item.started) * 1e3
            )
        epoch_before = self._backend.epoch()
        requests = [item.request for item in batch]
        with self._tracer.span(
            "frontend.batch", size=len(batch), backend=self._backend.kind
        ) as batch_span:
            context = TraceContext.of(batch_span)
            try:
                decisions = await self._loop.run_in_executor(
                    None, self._call_backend, requests, context
                )
            except Exception as exc:  # noqa: BLE001 - keep the server up
                self._metrics.counter("frontend.backend_errors").inc()
                batch_span.set(outcome="error")
                detail = f"{type(exc).__name__}: {exc}"
                for item in batch:
                    self._respond(
                        item.future,
                        protocol.encode_error(
                            ERROR_INTERNAL, detail=detail,
                            request_id=item.request_id,
                        ),
                        item.started,
                    )
                return
            batch_span.set(outcome="ok")
        self._metrics.histogram("frontend.latency.batch_ms").observe(
            (self._loop.time() - started) * 1e3
        )
        epoch_after = self._backend.epoch()
        epoch_stable = epoch_after == epoch_before
        if self._cache is not None and not epoch_stable:
            # a publish (this batch's accept, or a concurrent writer)
            # moved the snapshot: every cached verdict is now for a
            # superseded epoch — drop them all
            self._cache.invalidate()
        if len(decisions) != len(batch):
            # the backend dropped requests (should be unreachable);
            # answer what we can and error the remainder
            self._metrics.counter("frontend.backend_errors").inc()
        for index, item in enumerate(batch):
            if index < len(decisions):
                decision = decisions[index]
                if self._cache is not None and epoch_stable:
                    # only rejections decided on a snapshot that is
                    # *still current* are replayable (see cache module)
                    self._cache.store(epoch_after, item.shape, decision)
                payload = protocol.encode_decision(
                    decision, request_id=item.request_id, cached=False
                )
            else:
                payload = protocol.encode_error(
                    ERROR_INTERNAL,
                    detail="backend returned too few decisions",
                    request_id=item.request_id,
                )
            self._respond(item.future, payload, item.started)

    def _call_backend(
        self,
        requests: List[AdmissionRequest],
        context: Optional[TraceContext],
    ) -> List[Decision]:
        """Runs on the executor thread; re-enters the frontend batch
        span's context so backend spans join the frontend trace."""
        with self._tracer.use_context(context):
            return self._backend.submit_many(requests)


async def serve_until_stopped(
    frontend: Frontend,
    stop_event: Optional["asyncio.Event"] = None,
    install_signals: bool = True,
    on_started: Optional[Callable[[Frontend], None]] = None,
) -> None:
    """Run ``frontend`` until SIGTERM/SIGINT (or ``stop_event``), then
    drain gracefully — the body of ``repro frontend serve``."""
    await frontend.start()
    if on_started is not None:
        on_started(frontend)
    event = stop_event if stop_event is not None else asyncio.Event()
    if install_signals:
        import signal as signal_module

        loop = asyncio.get_running_loop()
        for signum in (signal_module.SIGTERM, signal_module.SIGINT):
            try:
                loop.add_signal_handler(signum, event.set)
            except (NotImplementedError, RuntimeError):
                # platform without signal support on the loop: rely on
                # KeyboardInterrupt / stop_event instead
                break
    await event.wait()
    await frontend.stop(drain=True)


class FrontendThread:
    """A frontend running its own event loop on a daemon thread.

    The sync-world handle the tests use: ``start()`` blocks until the
    socket is bound and returns the (host, port); ``stop()`` drains
    gracefully and joins the thread.
    """

    def __init__(self, frontend: Frontend) -> None:
        self._frontend = frontend
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._finished = threading.Event()
        self._address: Optional[Tuple[str, int]] = None
        self._error: Optional[BaseException] = None

    @property
    def frontend(self) -> Frontend:
        return self._frontend

    @property
    def address(self) -> Tuple[str, int]:
        if self._address is None:
            raise RuntimeError("frontend thread is not started")
        return self._address

    def start(self, timeout_s: float = 30.0) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="repro-frontend", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout_s):
            raise RuntimeError("frontend thread failed to start in time")
        if self._error is not None:
            raise RuntimeError(
                f"frontend failed to start: {self._error}"
            ) from self._error
        return self.address

    def stop(self, timeout_s: float = 30.0) -> None:
        if self._loop is None or self._stop_event is None:
            return
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._finished.wait(timeout_s)
        if self._thread is not None:
            self._thread.join(timeout_s)

    def _run(self) -> None:
        async def body() -> None:
            self._stop_event = asyncio.Event()
            try:
                await self._frontend.start()
                self._address = self._frontend.address
            except BaseException as exc:  # noqa: BLE001 - reported to starter
                self._error = exc
                self._started.set()
                return
            self._loop = asyncio.get_running_loop()
            self._started.set()
            await self._stop_event.wait()
            await self._frontend.stop(drain=True)

        try:
            asyncio.run(body())
        finally:
            self._finished.set()
