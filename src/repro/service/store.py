"""Versioned, copy-on-write storage for the live network schedule.

The admission service mutates the network configuration while readers —
GCL export, simulation runs, statistics — keep using whatever schedule
they started with.  :class:`ScheduleStore` makes that safe without
reader-side locking: every published schedule is an immutable-by-
convention snapshot (the incremental scheduler already returns fresh
:class:`~repro.core.schedule.NetworkSchedule` objects and never mutates
its input), and the store only ever swaps an atomic reference.

Writers use compare-and-swap semantics: :meth:`ScheduleStore.publish`
takes the version the writer based its work on and fails with
:class:`StaleVersionError` if another writer got there first, so two
concurrent admission batches cannot silently lose each other's streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.check.locks import OrderedLock
from repro.core.schedule import NetworkSchedule

from repro.service.metrics import MetricsRegistry


class StaleVersionError(RuntimeError):
    """A publish lost the compare-and-swap race against another writer."""


@dataclass(frozen=True)
class StoreSnapshot:
    """One immutable (version, schedule) pair handed to readers."""

    version: int
    schedule: NetworkSchedule


class ScheduleStore:
    """Holds the current schedule; readers never block on admissions.

    ``history_limit`` old snapshots are retained for debugging and for
    readers that want to diff versions (0 disables retention).
    """

    def __init__(
        self,
        schedule: NetworkSchedule,
        metrics: Optional[MetricsRegistry] = None,
        history_limit: int = 8,
    ) -> None:
        if history_limit < 0:
            # a negative limit would silently corrupt the retention
            # slice below (del self._history[: -self._history_limit])
            raise ValueError(
                f"history_limit must be >= 0, got {history_limit}"
            )
        self._lock = OrderedLock("ScheduleStore._lock")
        self._current = StoreSnapshot(version=0, schedule=schedule)
        self._history: List[StoreSnapshot] = []
        self._history_limit = history_limit
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._metrics.gauge("store.version").set(0)

    # -- readers -------------------------------------------------------
    def snapshot(self) -> StoreSnapshot:
        """The current (version, schedule); a plain reference read."""
        return self._current

    @property
    def version(self) -> int:
        return self._current.version

    @property
    def schedule(self) -> NetworkSchedule:
        return self._current.schedule

    def history(self) -> List[StoreSnapshot]:
        """Retained superseded snapshots, oldest first."""
        with self._lock:
            return list(self._history)

    # -- writers -------------------------------------------------------
    def publish(
        self,
        schedule: NetworkSchedule,
        expected_version: Optional[int] = None,
    ) -> StoreSnapshot:
        """Swap in a new schedule; returns the new snapshot.

        ``expected_version`` enables compare-and-swap: the publish is
        refused with :class:`StaleVersionError` when the store has moved
        past that version, leaving the store untouched.
        """
        with self._lock:
            if (
                expected_version is not None
                and expected_version != self._current.version
            ):
                self._metrics.counter("store.cas_conflicts").inc()
                raise StaleVersionError(
                    f"store is at version {self._current.version}, publish "
                    f"expected {expected_version}"
                )
            if self._history_limit:
                self._history.append(self._current)
                del self._history[: -self._history_limit]
            snapshot = StoreSnapshot(
                version=self._current.version + 1, schedule=schedule
            )
            self._current = snapshot
            self._metrics.counter("store.publishes").inc()
            self._metrics.gauge("store.version").set(snapshot.version)
            return snapshot

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics
