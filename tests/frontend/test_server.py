"""Frontend semantics: pipelined ordering, backpressure, cache
invalidation on publish, structured errors, graceful drain."""

import socket
import threading
import time

import pytest

from repro.frontend import protocol
from repro.frontend.server import (
    Frontend,
    FrontendConfig,
    FrontendThread,
    ServiceBackend,
)
from repro.model.stream import TctRequirement
from repro.model.units import milliseconds
from repro.service import (
    AdmissionService,
    AdmitTct,
    ScheduleStore,
    empty_schedule,
)
from repro.service.requests import Decision


def _tct(name, e2e_ns=None, period_ms=8, length=800, src="D1", dst="D3"):
    return AdmitTct(TctRequirement(
        name=name, source=src, destination=dst,
        period_ns=milliseconds(period_ms), length_bytes=length,
        e2e_ns=e2e_ns,
    ))


class _Client:
    """A synchronous JSONL client against the threaded frontend."""

    def __init__(self, address):
        self._sock = socket.create_connection(address, timeout=30)
        self._reader = self._sock.makefile("rb")

    def send(self, request, request_id=None):
        self._sock.sendall(protocol.encode_request(request, request_id))

    def send_raw(self, payload: bytes):
        self._sock.sendall(payload)

    def recv(self):
        line = self._reader.readline()
        assert line, "connection closed mid-stream"
        return protocol.decode_response(line)

    def recv_eof(self) -> bool:
        return self._reader.readline() == b""

    def close(self):
        try:
            self._reader.close()
        finally:
            self._sock.close()


class _BlockingBackend:
    """A stub backend that parks in submit_many until released —
    deterministic queue-full and drain scenarios."""

    kind = "stub"
    shard_count = 1

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.batches = []

    def epoch(self):
        return 0

    def submit_many(self, requests):
        self.entered.set()
        assert self.release.wait(timeout=30), "test never released backend"
        self.batches.append(len(requests))
        return [
            Decision(
                request_id=index, op=request.op,
                stream=request.stream_name, accepted=False,
                reason=f"stub reject {request.stream_name}",
            )
            for index, request in enumerate(requests)
        ]


@pytest.fixture
def service(star_topology):
    return AdmissionService(ScheduleStore(empty_schedule(star_topology)))


def _hosted(backend, **config_kwargs):
    frontend = Frontend(backend, FrontendConfig(**config_kwargs))
    thread = FrontendThread(frontend)
    thread.start()
    return frontend, thread


class TestPipelinedOrdering:
    def test_responses_come_back_in_request_order(self, service):
        frontend, thread = _hosted(ServiceBackend(service))
        client = _Client(thread.address)
        try:
            # deep pipeline, no interleaved reads: a mix of cache
            # misses, cache hits, and accepts must not reorder
            for index in range(40):
                e2e_ns = 1 if index % 3 else None  # 2/3 infeasible
                client.send(_tct(f"p{index}", e2e_ns=e2e_ns), index)
            responses = [client.recv() for _ in range(40)]
            assert [r["id"] for r in responses] == list(range(40))
            assert all(r["ok"] for r in responses)
            rejected = [r for r in responses if not r["decision"]["accepted"]]
            accepted = [r for r in responses if r["decision"]["accepted"]]
            assert rejected and accepted
        finally:
            client.close()
            thread.stop()


class TestBackpressure:
    def test_queue_full_answers_server_busy(self):
        backend = _BlockingBackend()
        frontend, thread = _hosted(
            backend, max_queue=2, max_batch=1, cache_size=0
        )
        client = _Client(thread.address)
        try:
            # one request into the dispatcher (parked in the backend)...
            client.send(_tct("first"), 0)
            assert backend.entered.wait(timeout=10)
            # ...fill the intake queue, then overflow it
            deadline = time.monotonic() + 10
            sent = 1
            busy_expected = 0
            while time.monotonic() < deadline and not busy_expected:
                client.send(_tct(f"fill{sent}"), sent)
                sent += 1
                depth = frontend.metrics.gauge("frontend.queue.depth").value
                if depth >= 2:
                    client.send(_tct("overflow"), sent)
                    sent += 1
                    busy_expected = 1
            assert busy_expected, "queue never filled"
            # release only once every line is ingested: an overflow
            # still in the socket when the backend drains finds room
            ingested = frontend.metrics.counter("frontend.requests_total")
            while ingested.value < sent and time.monotonic() < deadline:
                time.sleep(0.001)
            backend.release.set()
            responses = [client.recv() for _ in range(sent)]
            # responses stay in request order even across the rejection
            assert [r["id"] for r in responses] == list(range(sent))
            busy = [
                r for r in responses
                if not r["ok"] and r["error"] == protocol.ERROR_SERVER_BUSY
            ]
            assert busy, "no server_busy rejection surfaced"
            decided = [r for r in responses if r["ok"]]
            assert len(decided) == sent - len(busy)
            assert (
                frontend.metrics.counter("frontend.rejected_busy").value
                == len(busy)
            )
        finally:
            client.close()
            thread.stop()


class TestDecisionCache:
    def test_repeat_shape_hits_until_a_publish_invalidates(self, service):
        frontend, thread = _hosted(ServiceBackend(service))
        client = _Client(thread.address)
        try:
            def roundtrip(request, request_id):
                client.send(request, request_id)
                return client.recv()

            first = roundtrip(_tct("a1", e2e_ns=1), 1)
            assert first["ok"] and not first["decision"]["accepted"]
            assert not first["cached"]

            second = roundtrip(_tct("a2", e2e_ns=1), 2)
            assert second["ok"] and not second["decision"]["accepted"]
            assert second["cached"], "repeated shape should hit the cache"

            accepted = roundtrip(_tct("f1"), 3)
            assert accepted["decision"]["accepted"]

            # the publish bumped the store version: the cached verdict
            # is for a superseded snapshot and must not be replayed
            third = roundtrip(_tct("a3", e2e_ns=1), 4)
            assert third["ok"] and not third["decision"]["accepted"]
            assert not third["cached"]
            assert (
                frontend.metrics.counter(
                    "frontend.cache.invalidations"
                ).value >= 1
            )

            # and the fresh verdict is cacheable again on the new epoch
            fourth = roundtrip(_tct("a4", e2e_ns=1), 5)
            assert fourth["cached"]
        finally:
            client.close()
            thread.stop()

    def test_cache_disabled_never_reports_cached(self, service):
        frontend, thread = _hosted(ServiceBackend(service), cache_size=0)
        client = _Client(thread.address)
        try:
            for index in range(6):
                client.send(_tct(f"n{index}", e2e_ns=1), index)
            responses = [client.recv() for _ in range(6)]
            assert not any(r["cached"] for r in responses)
        finally:
            client.close()
            thread.stop()


class TestBadRequests:
    def test_malformed_line_is_a_structured_error(self, service):
        frontend, thread = _hosted(ServiceBackend(service))
        client = _Client(thread.address)
        try:
            client.send_raw(b"this is not json\n")
            client.send(_tct("ok1"), "after")
            error = client.recv()
            assert not error["ok"]
            assert error["error"] == protocol.ERROR_BAD_REQUEST
            # the connection survives: the next request still decides
            decided = client.recv()
            assert decided["id"] == "after" and decided["ok"]
        finally:
            client.close()
            thread.stop()

    def test_unknown_op_is_a_structured_error(self, service):
        frontend, thread = _hosted(ServiceBackend(service))
        client = _Client(thread.address)
        try:
            client.send_raw(b'{"op": "admit-warp", "name": "x"}\n')
            error = client.recv()
            assert not error["ok"]
            assert error["error"] == protocol.ERROR_BAD_REQUEST
            assert "admit-warp" in error["detail"]
        finally:
            client.close()
            thread.stop()


class TestGracefulDrain:
    def test_stop_decides_queued_work_before_closing(self):
        backend = _BlockingBackend()
        frontend, thread = _hosted(
            backend, max_queue=16, max_batch=1, cache_size=0
        )
        client = _Client(thread.address)
        try:
            for index in range(5):
                client.send(_tct(f"q{index}"), index)
            assert backend.entered.wait(timeout=10)
            # q0 is in the backend; the drain owes q1..q4 a decision
            # only once the server has read them off the socket
            depth = frontend.metrics.gauge("frontend.queue.depth")
            deadline = time.monotonic() + 10
            while depth.value < 4:
                assert time.monotonic() < deadline, "requests never queued"
                time.sleep(0.01)

            stopper = threading.Thread(target=thread.stop)
            stopper.start()
            time.sleep(0.3)  # let stop() close the listener + mark drain
            backend.release.set()
            stopper.join(timeout=30)
            assert not stopper.is_alive(), "drain never completed"

            # every queued request was decided, none answered
            # shutting_down, and the responses flushed before close
            responses = [client.recv() for _ in range(5)]
            assert [r["id"] for r in responses] == list(range(5))
            assert all(r["ok"] for r in responses)
            assert client.recv_eof()
            # new connections are refused after drain
            with pytest.raises(OSError):
                _Client(thread.address)
        finally:
            client.close()

    def test_requests_arriving_mid_drain_get_shutting_down(self):
        backend = _BlockingBackend()
        frontend, thread = _hosted(
            backend, max_queue=16, max_batch=1, cache_size=0
        )
        client = _Client(thread.address)
        try:
            client.send(_tct("inflight"), 0)
            assert backend.entered.wait(timeout=10)

            stopper = threading.Thread(target=thread.stop)
            stopper.start()
            deadline = time.monotonic() + 10
            while not frontend._draining and time.monotonic() < deadline:
                time.sleep(0.01)
            assert frontend._draining

            # the connection is still open: a late request is refused
            # with a structured shutting_down, not silently dropped
            client.send(_tct("late"), 1)
            backend.release.set()
            stopper.join(timeout=30)

            first = client.recv()
            assert first["id"] == 0 and first["ok"]
            second = client.recv()
            assert second["id"] == 1 and not second["ok"]
            assert second["error"] == protocol.ERROR_SHUTTING_DOWN
        finally:
            client.close()
