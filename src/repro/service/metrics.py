"""Embedded metrics for the admission-control runtime.

A production CNC is judged by its admission latency and throughput (the
deciding factors for online scheduling per the TAS survey and the
network-calculus admission-control line of work), so the service keeps
its own counters and latency histograms instead of relying on external
tooling.  Everything is in-process, allocation-light, and exportable as
plain JSON:

* :class:`Counter` — monotone event count.
* :class:`Gauge` — last-written value (queue depth, store version).
* :class:`Histogram` — the log-bucketed mergeable distribution from
  :mod:`repro.obs.histogram` (re-exported here so service code keeps
  one import site): exact count/sum/min/max, p50/p90/p99/p999 at
  bucket resolution, O(1) memory at any observation count, and
  lossless summary round-trips for offline SLO evaluation.
* :class:`MetricsRegistry` — create-on-first-use namespace over all of
  the above; :meth:`MetricsRegistry.to_dict` / :meth:`to_json` export,
  :meth:`MetricsRegistry.restore_histogram` for rehydrating saved
  snapshots.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Optional

from repro.obs.histogram import Histogram


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A last-write-wins instantaneous value.

    Locked like every other instrument: gauges are written from
    whatever thread publishes or drains, so last-write-wins must mean
    *some* complete write, never a torn or stale-cached one.
    """

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        """Read-modify-write adjustment (unlike :meth:`set`, atomic)."""
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class MetricsRegistry:
    """Namespace of counters, gauges, and histograms.

    Instruments are created on first use, so callers never have to
    declare metrics ahead of time; ``prefix.name`` dotted keys group
    related series (e.g. ``decisions.fastpath``).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter()
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge()
            return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram()
            return self._histograms[name]

    def restore_histogram(self, name: str, summary: Dict) -> Histogram:
        """Rehydrate ``name`` from a saved :meth:`Histogram.summary`.

        Merges into the existing series when one already exists —
        restoring a snapshot over a live registry is additive, exactly
        like merging a shard's histogram.  A summary whose bucket counts
        do not add up to its ``count`` is a :class:`ValueError`.
        """
        restored = Histogram.from_summary(summary, name)
        with self._lock:
            existing = self._histograms.get(name)
            if existing is None:
                self._histograms[name] = restored
                return restored
        existing.merge(restored)
        return existing

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        """All counter values whose name starts with ``prefix.``."""
        with self._lock:
            counters = sorted(self._counters.items())
        return {
            name[len(prefix) + 1:]: counter.value
            for name, counter in counters
            if name.startswith(prefix + ".")
        }

    def to_dict(self) -> Dict:
        """JSON-able snapshot of every instrument.

        The instrument tables are copied under the registry lock (so a
        concurrent create-on-first-use cannot resize them mid-iteration)
        and each instrument is then read through its own lock.
        """
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        return {
            "counters": {n: c.value for n, c in counters},
            "gauges": {n: g.value for n, g in gauges},
            "histograms": {n: h.summary() for n, h in histograms},
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)
