"""Log-bucketed latency histograms and the shared nearest-rank kernel.

Two things live here because every percentile the repro reports must
mean the same thing:

* :func:`nearest_rank` — THE nearest-rank percentile implementation.
  ``repro.campaign.stats``, ``repro.obs.export``, and the histogram all
  delegate to it, so a p99 from a campaign report, a trace summary, and
  a Prometheus export are computed with identical rank semantics
  (classical nearest-rank: ``ceil(fraction * n)``-th order statistic).
* :class:`Histogram` — thread-safe, log-bucketed, *mergeable* latency
  distribution.  Unlike the v1 reservoir sampler it never forgets an
  observation: every value lands in a geometric bucket (growth factor
  ``2 ** 0.25``, ≤ ~19 % relative error per bucket), so p50/p99/p999
  are exact *to bucket resolution* at any count, two shard registries
  can be merged without bias, and a summary snapshot round-trips
  through JSON losslessly (:meth:`Histogram.from_summary`).

The bucket layout is fixed at import time and shared by every
histogram, which is what makes cross-registry merging a plain
bucket-wise add.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "BUCKET_BOUNDS",
    "Histogram",
    "nearest_rank",
]


def nearest_rank(sorted_values: Sequence, fraction: float):
    """Nearest-rank percentile over an ascending-sorted sample.

    ``fraction`` is in ``(0, 1]``; the result is the
    ``ceil(fraction * n)``-th smallest value (classical nearest-rank,
    so p50 of [1, 2, 3, 4] is 2, not an interpolation).  Raises on an
    empty sample — an absent distribution has no percentiles.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(0, math.ceil(fraction * len(sorted_values)) - 1)
    return sorted_values[rank]


def _build_bounds(
    lowest: float = 0.001, highest: float = 1e7, growth: float = 2 ** 0.25
) -> Tuple[float, ...]:
    """Geometric bucket upper bounds covering [lowest, highest]."""
    bounds = [lowest]
    while bounds[-1] < highest:
        bounds.append(bounds[-1] * growth)
    return tuple(bounds)


#: Shared upper bounds (`le`) of every histogram bucket.  In the unit
#: the caller observes in — the service records milliseconds, so the
#: span is 1 ns to ~2.8 hours, wide enough for any latency this repo
#: can produce; values past the top land in a +Inf overflow bucket.
BUCKET_BOUNDS: Tuple[float, ...] = _build_bounds()


class Histogram:
    """Thread-safe log-bucketed distribution with exact aggregates.

    ``count``/``sum``/``min``/``max`` are exact; percentiles are the
    upper bound of the bucket holding the nearest-rank observation,
    clamped to the observed ``[min, max]`` so tiny samples do not
    report a bucket boundary no observation reached.  Memory is O(1):
    one integer per fixed bucket.
    """

    __slots__ = (
        "_buckets", "_overflow", "_count", "_sum", "_min", "_max", "_lock",
    )

    def __init__(self) -> None:
        self._buckets = [0] * len(BUCKET_BOUNDS)
        self._overflow = 0
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(BUCKET_BOUNDS, value)
        with self._lock:
            self._count += 1
            self._sum += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)
            if index == len(BUCKET_BOUNDS):
                self._overflow += 1
            else:
                self._buckets[index] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._min is not None else 0.0

    @property
    def max(self) -> float:
        return self._max if self._max is not None else 0.0

    # -- percentile queries --------------------------------------------
    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, ``q`` in [0, 100], 0.0 when empty."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        with self._lock:
            return self._percentile_locked(q)

    def _percentile_locked(self, q: float) -> float:
        if not self._count:
            return 0.0
        if q == 0:
            return self._min if self._min is not None else 0.0
        # rank of the observation nearest-rank semantics select
        rank = max(0, math.ceil(q / 100 * self._count) - 1)
        seen = 0
        for index, bucket_count in enumerate(self._buckets):
            seen += bucket_count
            if rank < seen:
                return self._clamp(BUCKET_BOUNDS[index])
        return self._max if self._max is not None else 0.0  # overflow

    def _clamp(self, boundary: float) -> float:
        """Keep reported boundaries inside the observed value range."""
        low = self._min if self._min is not None else boundary
        high = self._max if self._max is not None else boundary
        return max(low, min(high, boundary))

    def count_over(self, threshold: float) -> int:
        """Observations strictly above ``threshold``.

        Exact when ``threshold`` is a bucket boundary; otherwise the
        count above the next boundary ≥ ``threshold`` (a lower bound on
        the true violation count, never a false alarm) — SLO objectives
        should therefore be read as "snapped up to bucket resolution".
        """
        index = bisect_left(BUCKET_BOUNDS, threshold)
        with self._lock:
            if index >= len(BUCKET_BOUNDS):
                return self._overflow
            return sum(self._buckets[index + 1:]) + self._overflow

    # -- snapshots / merge ---------------------------------------------
    def summary(self) -> Dict[str, object]:
        """One consistent snapshot: aggregates, percentiles, buckets.

        A single lock acquisition covers everything, so a concurrent
        ``observe`` can never yield a summary whose count disagrees
        with its percentiles.  ``buckets`` lists only non-empty buckets
        as ``[le, count]`` pairs (``le`` is ``"+Inf"`` for overflow) —
        compact, JSON-able, and sufficient to reconstruct the full
        distribution via :meth:`from_summary`.
        """
        with self._lock:
            count = self._count
            total = self._sum
            minimum = self._min if self._min is not None else 0.0
            maximum = self._max if self._max is not None else 0.0
            buckets: List[List[object]] = [
                [BUCKET_BOUNDS[i], n]
                for i, n in enumerate(self._buckets) if n
            ]
            if self._overflow:
                buckets.append(["+Inf", self._overflow])
            percentiles = {
                key: self._percentile_locked(q)
                for key, q in (("p50", 50), ("p90", 90),
                               ("p99", 99), ("p999", 99.9))
            }
        summary: Dict[str, object] = {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": minimum,
            "max": maximum,
        }
        summary.update(percentiles)
        summary["buckets"] = buckets
        return summary

    def _snapshot(self) -> Tuple[List[int], int, int, float,
                                 Optional[float], Optional[float]]:
        with self._lock:
            return (list(self._buckets), self._overflow, self._count,
                    self._sum, self._min, self._max)

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s distribution into this one, bucket-wise.

        ``other`` is snapshotted first (under its own lock), then the
        deltas are applied under ours — no nested lock acquisition, so
        two threads merging in opposite directions cannot deadlock.
        """
        buckets, overflow, count, total, low, high = other._snapshot()
        with self._lock:
            for index, bucket_count in enumerate(buckets):
                self._buckets[index] += bucket_count
            self._overflow += overflow
            self._count += count
            self._sum += total
            if low is not None:
                self._min = low if self._min is None else min(self._min, low)
            if high is not None:
                self._max = (
                    high if self._max is None else max(self._max, high)
                )

    @classmethod
    def merged(cls, histograms: Sequence["Histogram"]) -> "Histogram":
        """A fresh histogram holding the union of ``histograms``."""
        result = cls()
        for histogram in histograms:
            result.merge(histogram)
        return result

    @classmethod
    def from_summary(
        cls, summary: Dict[str, object], name: str = "histogram"
    ) -> "Histogram":
        """Rebuild a histogram from a :meth:`summary` snapshot.

        Bucket counts, count, sum, min, and max restore exactly, so
        percentile queries on the restored histogram match the
        original — this is how ``repro slo`` evaluates saved metrics
        JSON without re-running the workload.  A summary whose bucket
        counts do not add up to its ``count`` cannot be evaluated
        (every quantile and violation count would be made up) and is a
        :class:`ValueError` naming ``name``.
        """
        buckets = sum(int(n) for _, n in summary.get("buckets", []))
        count = int(summary.get("count", 0))
        if buckets != count:
            raise ValueError(
                f"histogram {name!r}: bucket counts add up to {buckets}, "
                f"not its count {count}"
            )
        histogram = cls()
        histogram._restore(summary)
        return histogram

    def _restore(self, summary: Dict[str, object]) -> None:
        bounds_index = {le: i for i, le in enumerate(BUCKET_BOUNDS)}
        with self._lock:
            for le, bucket_count in summary.get("buckets", []):
                if le == "+Inf":
                    self._overflow += int(bucket_count)
                else:
                    index = bounds_index.get(float(le))
                    if index is None:  # legacy / foreign layout: re-bucket
                        index = min(
                            bisect_left(BUCKET_BOUNDS, float(le)),
                            len(BUCKET_BOUNDS) - 1,
                        )
                    self._buckets[index] += int(bucket_count)
            count = int(summary.get("count", 0))
            self._count += count
            self._sum += float(summary.get("sum", 0.0))
            if count:
                low = float(summary.get("min", 0.0))
                high = float(summary.get("max", 0.0))
                self._min = low if self._min is None else min(self._min, low)
                self._max = (
                    high if self._max is None else max(self._max, high)
                )
