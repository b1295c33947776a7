"""Runtime lock-order sanitizer: gating, inversion/reentrancy
detection, multi-thread behavior, and the off-mode zero-cost contract."""

import threading

import pytest

from repro.check.sanitizer import (
    ENV_VAR,
    LockOrderViolation,
    OrderedLock,
    make_lock,
    reset_observed_edges,
)


@pytest.fixture(autouse=True)
def _fresh_registry():
    reset_observed_edges()
    yield
    reset_observed_edges()


class TestGating:
    def test_off_returns_plain_lock(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        lock = make_lock("X._lock")
        assert type(lock) is type(threading.Lock())

    def test_zero_string_is_off(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0")
        assert type(make_lock("X._lock")) is type(threading.Lock())

    def test_on_returns_ordered_lock(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        lock = make_lock("X._lock")
        assert isinstance(lock, OrderedLock)
        assert lock.name == "X._lock"


class TestInversion:
    def test_consistent_order_is_fine(self):
        a, b = OrderedLock("A._lock"), OrderedLock("B._lock")
        for _ in range(3):
            with a:
                with b:
                    pass

    def test_inversion_raises_with_both_witnesses(self):
        a, b = OrderedLock("A._lock"), OrderedLock("B._lock")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderViolation) as exc:
                a.acquire()
        message = str(exc.value)
        assert "A._lock" in message and "B._lock" in message
        assert "earlier" in message

    def test_edges_are_per_name_across_instances(self):
        # two stores + two services: the edge is between the *names*,
        # so instance 2 inverting against instance 1's order is caught
        s1, s2 = OrderedLock("S._lock"), OrderedLock("S._lock")
        t1, t2 = OrderedLock("T._lock"), OrderedLock("T._lock")
        with s1:
            with t1:
                pass
        with t2:
            with pytest.raises(LockOrderViolation):
                s2.acquire()

    def test_inversion_observed_across_threads(self):
        a, b = OrderedLock("A._lock"), OrderedLock("B._lock")
        done = threading.Event()

        def forward():
            with a:
                with b:
                    pass
            done.set()

        worker = threading.Thread(target=forward)
        worker.start()
        worker.join()
        assert done.is_set()
        with b:
            with pytest.raises(LockOrderViolation):
                a.acquire()

    def test_reset_forgets_edges(self):
        a, b = OrderedLock("A._lock"), OrderedLock("B._lock")
        with a:
            with b:
                pass
        reset_observed_edges()
        with b:
            with a:  # no recorded reverse edge any more
                pass


class TestReentrancy:
    def test_reentrant_acquisition_raises(self):
        lock = OrderedLock("A._lock")
        with lock:
            with pytest.raises(LockOrderViolation) as exc:
                lock.acquire()
        assert "re-entrant" in str(exc.value)

    def test_two_instances_of_one_name_do_not_trip_reentrancy(self):
        # distinct objects sharing a name: object-level reentrancy
        # does not apply, and edges are never recorded within one name
        first, second = OrderedLock("S._lock"), OrderedLock("S._lock")
        with first:
            with second:
                pass


class TestLockProtocol:
    def test_out_of_lifo_release_is_legal(self):
        # threading.Lock allows any release order and so does the
        # sanitizer
        a = OrderedLock("A._lock")
        b = OrderedLock("B._lock")
        a.acquire()
        b.acquire()
        a.release()
        b.release()

    def test_locked_and_nonblocking_acquire(self):
        lock = OrderedLock("A._lock")
        assert not lock.locked()
        assert lock.acquire(blocking=False)
        assert lock.locked()
        lock.release()
        assert not lock.locked()

    def test_contention_blocks_like_a_real_lock(self):
        lock = OrderedLock("A._lock")
        acquired_by_worker = threading.Event()
        release_worker = threading.Event()

        def hold():
            with lock:
                acquired_by_worker.set()
                release_worker.wait(timeout=5)

        worker = threading.Thread(target=hold)
        worker.start()
        assert acquired_by_worker.wait(timeout=5)
        assert not lock.acquire(blocking=False)
        release_worker.set()
        worker.join()
        assert lock.acquire(blocking=False)
        lock.release()


class TestRuntimeWiring:
    def test_store_and_service_run_sanitized(self, monkeypatch):
        """The real runtime, constructed under the sanitizer, performs
        a full admission without tripping — the dynamic counterpart of
        flow's zero-findings gate on src."""
        monkeypatch.setenv(ENV_VAR, "1")
        from repro.model.stream import Priorities, TctRequirement
        from repro.model.topology import Topology
        from repro.model.units import MBPS_100, milliseconds
        from repro.service import (
            AdmissionService, AdmitTct, ScheduleStore, empty_schedule,
        )

        topo = Topology()
        topo.add_switch("SW1")
        for device in ("D1", "D2"):
            topo.add_device(device)
            topo.add_link(device, "SW1", bandwidth_bps=MBPS_100)
        store = ScheduleStore(empty_schedule(topo))
        assert isinstance(store._lock, OrderedLock)
        service = AdmissionService(store)
        assert isinstance(service._write_lock, OrderedLock)
        decision = service.submit(AdmitTct(TctRequirement(
            name="t0", source="D1", destination="D2",
            period_ns=milliseconds(8), length_bytes=400,
            priority=Priorities.NSH_PH,
        )))
        assert decision.accepted
