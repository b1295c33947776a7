"""Multi-writer CAS contention on a shared ScheduleStore.

The write lock makes a CAS conflict unreachable from a single service
instance, but the cluster shares stores between writers; these tests
drive the conflict deterministically and check the bounded-rebase
accounting that makes contention observable.
"""

import threading

from repro.model.stream import Priorities, TctRequirement
from repro.model.units import milliseconds
from repro.service import (
    AdmissionService,
    AdmitTct,
    ScheduleStore,
    StaleVersionError,
    empty_schedule,
)
from repro.service.admission import MAX_REBASE_ATTEMPTS, REASON_CAS_EXHAUSTED


def _tct(name, src="D1", dst="D3", period_ms=8):
    return AdmitTct(TctRequirement(
        name=name, source=src, destination=dst,
        period_ns=milliseconds(period_ms), length_bytes=1000,
        priority=Priorities.NSH_PH,
    ))


class RendezvousStore(ScheduleStore):
    """Forces two concurrent writers to pin the *same* version.

    Once armed, the first two ``snapshot()`` calls meet at a barrier
    before returning, so both writers base their solve on version N and
    exactly one of their publishes must lose the CAS race.
    """

    def arm(self) -> None:
        self._rdv_barrier = threading.Barrier(2, timeout=10)
        self._rdv_remaining = 2
        self._rdv_lock = threading.Lock()

    def snapshot(self):
        snap = super().snapshot()
        if getattr(self, "_rdv_barrier", None) is not None:
            with self._rdv_lock:
                wait = self._rdv_remaining > 0
                self._rdv_remaining -= 1
            if wait:
                try:
                    self._rdv_barrier.wait()
                except threading.BrokenBarrierError:
                    pass
        return snap


class AlwaysStaleStore(ScheduleStore):
    """Every publish loses the CAS race — pathological contention."""

    def publish(self, schedule, expected_version=None):
        self._metrics.counter("store.cas_conflicts").inc()
        raise StaleVersionError("synthetic contention")


class TestSharedStoreContention:
    def test_concurrent_writers_never_lose_a_stream(self, star_topology):
        store = RendezvousStore(empty_schedule(star_topology))
        writers = [AdmissionService(store), AdmissionService(store)]
        store.arm()

        decisions = {}

        def submit(index):
            decisions[index] = writers[index].submit(
                _tct(f"w{index}", src=f"D{index + 1}")
            )

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(t.is_alive() for t in threads)

        # both landed: the loser rebased onto the winner's publish
        assert decisions[0].accepted and decisions[1].accepted
        names = {s.name for s in store.schedule.streams}
        assert names == {"w0", "w1"}
        assert store.version == 2
        # the race was real and observable
        assert store.metrics.counter("store.cas_conflicts").value >= 1
        assert store.metrics.counter("batches.rebased").value >= 1

    def test_pathological_contention_is_bounded(self, star_topology):
        store = AlwaysStaleStore(empty_schedule(star_topology))
        service = AdmissionService(store)
        decision = service.submit(_tct("doomed"))
        assert not decision.accepted
        assert decision.reason == REASON_CAS_EXHAUSTED
        metrics = store.metrics
        assert metrics.counter("batches.rebased").value == MAX_REBASE_ATTEMPTS
        assert metrics.counter("batches.rebase_exhausted").value == 1
