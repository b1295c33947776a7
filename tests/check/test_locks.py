"""The declared lock order: every planted deadlock shape fails on its
first wrong-order acquire, the lock protocol is a real lock's, the
runtime's two ranked locks are ordered locks, and the instrument locks
stay leaves on every admission path."""

import itertools
import threading

import pytest

from repro.check import locks
from repro.check.locks import LOCK_ORDER, LockOrderViolation, OrderedLock
from repro.model.stream import EctStream, Priorities, TctRequirement
from repro.model.units import milliseconds
from repro.obs import histogram as histogram_module
from repro.obs import trace as trace_module
from repro.service import (
    AdmissionService,
    AdmitEct,
    AdmitTct,
    Remove,
    ScheduleStore,
    empty_schedule,
)
from repro.service import metrics as metrics_module


@pytest.fixture
def declare(monkeypatch):
    """Declare a test-local order: ``declare("A._lock", "B._lock")``."""
    def _declare(*names):
        monkeypatch.setattr(locks, "LOCK_ORDER", tuple(names))
    return _declare


class TestDeclaredOrder:
    def test_the_runtime_order(self):
        assert LOCK_ORDER == (
            "AdmissionService._write_lock", "ScheduleStore._lock",
        )
        assert OrderedLock("AdmissionService._write_lock").rank == 0
        assert OrderedLock("ScheduleStore._lock").rank == 1
        assert OrderedLock("Counter._lock").rank == len(LOCK_ORDER)

    def test_declared_order_and_leaf_below_are_fine(self):
        write = OrderedLock("AdmissionService._write_lock")
        store = OrderedLock("ScheduleStore._lock")
        leaf = OrderedLock("Counter._lock")
        for _ in range(3):
            with write, store, leaf:
                pass
        with write, leaf:  # a rank may be skipped
            pass

    def test_inversion_raises_on_first_acquire(self):
        # no earlier forward observation is needed: the order is declared
        write = OrderedLock("AdmissionService._write_lock")
        store = OrderedLock("ScheduleStore._lock")
        with store:
            with pytest.raises(LockOrderViolation) as exc:
                write.acquire()
        assert not write.locked()
        message = str(exc.value)
        assert "AdmissionService._write_lock" in message
        assert "ScheduleStore._lock" in message

    def test_reentrant_acquisition_raises(self):
        lock = OrderedLock("ScheduleStore._lock")
        with lock:
            with pytest.raises(LockOrderViolation) as exc:
                lock.acquire()
        assert "re-entered" in str(exc.value)

    def test_ranks_are_per_name_across_instances(self):
        # a second service inverting against a first store is caught
        store = OrderedLock("ScheduleStore._lock")
        other_write = OrderedLock("AdmissionService._write_lock")
        with store:
            with pytest.raises(LockOrderViolation):
                other_write.acquire()

    def test_leaf_under_leaf_raises(self):
        first, second = OrderedLock("Counter._lock"), OrderedLock("Gauge._lock")
        with first:
            with pytest.raises(LockOrderViolation):
                second.acquire()

    def test_held_locks_are_per_thread(self):
        write = OrderedLock("AdmissionService._write_lock")
        store = OrderedLock("ScheduleStore._lock")
        outcome = []

        def other_thread():
            with write:
                outcome.append("ok")

        with store:
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join(timeout=5)
        assert not worker.is_alive()
        assert outcome == ["ok"]


class TestPlantedDefects:
    """Deadlock shapes across classes and call chains: each raises on
    its first wrong-order acquire, before any deadlock can form."""

    def test_three_lock_cycle_fails_before_it_closes(self, declare):
        declare("Alpha._lock", "Beta._lock", "Gamma._lock")

        class Gamma:
            def __init__(self):
                self._lock = OrderedLock("Gamma._lock")
                self.alpha = None

            def finish(self):
                with self._lock:
                    pass

            def backward(self):
                with self._lock:
                    self.alpha.forward()

        class Beta:
            def __init__(self, gamma):
                self._lock = OrderedLock("Beta._lock")
                self.gamma = gamma

            def middle(self):
                with self._lock:
                    self.gamma.finish()

        class Alpha:
            def __init__(self, beta):
                self._lock = OrderedLock("Alpha._lock")
                self.beta = beta

            def forward(self):
                with self._lock:
                    self.beta.middle()

        gamma = Gamma()
        beta = Beta(gamma)
        alpha = gamma.alpha = Alpha(beta)
        alpha.forward()  # Alpha -> Beta -> Gamma: the declared order
        with pytest.raises(LockOrderViolation) as exc:
            gamma.backward()
        # the first backward acquire (Alpha under Gamma) raised: Beta
        # was never reached and nothing is left held
        assert "Alpha._lock" in str(exc.value)
        assert "Gamma._lock" in str(exc.value)
        assert not any(lock.locked() for lock in (
            alpha._lock, beta._lock, gamma._lock))

    def test_a_b_a_chain_raises(self, declare):
        declare("Outer._lock")

        class Outer:
            def __init__(self):
                self._lock = OrderedLock("Outer._lock")
                self.inner = None

            def enter(self):
                with self._lock:
                    self.inner.work()

            def reenter(self):
                with self._lock:
                    pass

        class Inner:
            def __init__(self, outer):
                self.outer = outer

            def work(self):
                self.outer.reenter()

        outer = Outer()
        outer.inner = Inner(outer)
        outer.reenter()
        with pytest.raises(LockOrderViolation) as exc:
            outer.enter()
        assert "re-entered Outer._lock" in str(exc.value)

    @pytest.mark.parametrize("order", [lambda m: list(m), sorted],
                             ids=["unsorted", "sorted"])
    def test_two_instance_nesting_raises(self, declare, order):
        """Taking a second instance of one lock name under the first is
        rejected whatever the iteration order: sorted multi-instance
        acquisition is not expressible under the declared order."""
        declare("Member.lock")
        members = {name: OrderedLock("Member.lock") for name in ("b", "a")}
        held = []
        with pytest.raises(LockOrderViolation):
            try:
                for name in order(members):
                    members[name].acquire()
                    held.append(members[name])
            finally:
                for lock in reversed(held):
                    lock.release()
        assert len(held) == 1
        assert not any(lock.locked() for lock in members.values())

    def test_call_chain_inversion_raises(self, declare):
        declare("A._lock", "B._lock")

        class A:
            def __init__(self):
                self._lock = OrderedLock("A._lock")
                self.b = None

            def step(self):
                with self._lock:
                    self.b.poke()

        class B:
            def __init__(self, a):
                self._lock = OrderedLock("B._lock")
                self.a = a

            def poke(self):
                with self._lock:
                    pass

            def reverse(self):
                with self._lock:
                    self.a.step()

        a = A()
        b = a.b = B(a)
        a.step()
        with pytest.raises(LockOrderViolation):
            b.reverse()


class TestLockProtocol:
    def test_out_of_lifo_release_is_legal(self):
        # threading.Lock allows any release order and so does OrderedLock
        write = OrderedLock("AdmissionService._write_lock")
        store = OrderedLock("ScheduleStore._lock")
        write.acquire()
        store.acquire()
        write.release()
        store.release()
        with write, store:
            pass

    def test_locked_and_nonblocking_acquire(self):
        lock = OrderedLock("ScheduleStore._lock")
        assert not lock.locked()
        assert lock.acquire(blocking=False)
        assert lock.locked()
        lock.release()
        assert not lock.locked()

    def test_contention_blocks_like_a_real_lock(self):
        lock = OrderedLock("ScheduleStore._lock")
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
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert lock.acquire(blocking=False)
        lock.release()


def _tct(name, src="D1", dst="D3", share=False):
    return AdmitTct(TctRequirement(
        name=name, source=src, destination=dst,
        period_ns=milliseconds(8), length_bytes=1000,
        priority=Priorities.SH_PL if share else Priorities.NSH_PH,
        share=share,
    ))


class TestRuntimeWiring:
    def test_store_and_service_locks_are_ranked(self, star_topology):
        """The real runtime always constructs the ranked locks and
        performs a full admission under them."""
        store = ScheduleStore(empty_schedule(star_topology))
        assert isinstance(store._lock, OrderedLock)
        assert store._lock.name == "ScheduleStore._lock"
        service = AdmissionService(store)
        assert isinstance(service._write_lock, OrderedLock)
        assert service._write_lock.name == "AdmissionService._write_lock"
        assert service.submit(_tct("t0", dst="D2")).accepted


class _LeafThreading:
    """``threading`` with ``Lock()`` returning a last-rank OrderedLock."""

    def __init__(self, owner):
        self._owner = owner

    def Lock(self):  # noqa: N802 - mirrors threading.Lock
        return OrderedLock(f"{self._owner} instrument lock")

    def __getattr__(self, name):
        return getattr(threading, name)


@pytest.fixture
def leaf_instruments(monkeypatch):
    """Counter, Gauge, MetricsRegistry, Histogram and Tracer built from
    here on hold last-rank ordered locks instead of plain ones."""
    for module in (metrics_module, histogram_module, trace_module):
        monkeypatch.setattr(
            module, "threading", _LeafThreading(module.__name__))


class TestInstrumentLocksAreLeaves:
    def test_admission_paths_take_no_lock_under_an_instrument(
        self, leaf_instruments, star_topology
    ):
        ticks = itertools.count(0, 1_000_000)
        tracer = trace_module.Tracer(clock=lambda: next(ticks))
        assert isinstance(tracer._lock, OrderedLock)
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology)),
            tracer=tracer,
        )
        registry = service.metrics
        assert isinstance(registry._lock, OrderedLock)
        decisions = service.submit_many([
            _tct("plain"),
            _tct("shared", src="D2", share=True),
        ])
        decisions.append(service.submit(AdmitEct(EctStream(
            name="alarm", source="D2", destination="D3",
            min_interevent_ns=milliseconds(16), length_bytes=512,
            possibilities=4,
        ))))
        decisions.append(service.submit(Remove("plain")))
        assert [d.accepted for d in decisions] == [True] * 4
        for instruments in (registry._counters, registry._gauges,
                            registry._histograms):
            assert instruments and all(
                isinstance(instrument._lock, OrderedLock)
                for instrument in instruments.values())
        assert tracer.spans()

        from repro.cluster import ClusterCoordinator, partition_topology
        from repro.experiments import simulation_topology

        coordinator = ClusterCoordinator(
            partition=partition_topology(
                simulation_topology(), 2, seeds=["SW1", "SW4"]),
            tracer=tracer,
        )
        batch = coordinator.submit_many([
            _tct("local-a", "D1", "D4"),
            _tct("local-b", "D10", "D12"),
            _tct("cross-x", "D1", "D12"),
        ])
        assert all(d.accepted for d in batch)

    def test_instrument_taken_under_an_instrument_raises(
        self, leaf_instruments
    ):
        registry = metrics_module.MetricsRegistry()
        counter = registry.counter("outer")
        gauge = registry.gauge("inner")
        with counter._lock:
            with pytest.raises(LockOrderViolation):
                gauge.set(1.0)
        with registry._lock:
            with pytest.raises(LockOrderViolation):
                counter.inc()
