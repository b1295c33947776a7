"""Metrics registry: counters, gauges, histograms, JSON export."""

import json
import threading

import pytest

from repro.service import MetricsRegistry
from repro.service.metrics import Gauge, Histogram


class TestCounter:
    def test_counts(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(2)
        assert registry.counter("a").value == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("a").inc(-1)

    def test_prefix_grouping(self):
        registry = MetricsRegistry()
        registry.counter("decisions.incremental").inc(4)
        registry.counter("decisions.rejected").inc(1)
        registry.counter("other").inc()
        assert registry.counters_with_prefix("decisions") == {
            "incremental": 4, "rejected": 1,
        }

    def test_prefix_requires_dot_boundary(self):
        registry = MetricsRegistry()
        registry.counter("rungs.full").inc()
        registry.counter("rungsx.full").inc()
        assert registry.counters_with_prefix("rungs") == {"full": 1}

    def test_prefix_with_no_matches(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc()
        assert registry.counters_with_prefix("missing") == {}


class TestGauge:
    def test_set_and_read(self):
        gauge = Gauge()
        gauge.set(5)
        assert gauge.value == 5
        gauge.set(-2.5)
        assert gauge.value == -2.5

    def test_add_delta(self):
        gauge = Gauge()
        gauge.add(3)
        gauge.add(-1)
        assert gauge.value == 2

    def test_concurrent_adds_do_not_lose_updates(self):
        gauge = Gauge()

        def bump():
            for _ in range(1_000):
                gauge.add(1)

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert gauge.value == 8_000


class TestHistogram:
    def test_exact_aggregates(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 10.0
        assert h.mean == 2.5

    def test_percentiles(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(50, rel=0.19)
        assert h.percentile(99) == pytest.approx(99, rel=0.19)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0

    def test_memory_is_bounded_by_bucket_count(self):
        """10k observations occupy the same fixed bucket table as 10 —
        the aggregates stay exact, only quantiles are bucketed."""
        h = Histogram()
        for v in range(10_000):
            h.observe(float(v))
        assert h.count == 10_000          # exact count survives
        assert len(h._buckets) == len(Histogram()._buckets)  # fixed table
        assert h.percentile(50) >= 0

    def test_aggregates_stay_exact_at_any_volume(self):
        h = Histogram()
        n = 5_000
        for v in range(1, n + 1):
            h.observe(float(v))
        assert h.count == n
        assert h.sum == n * (n + 1) / 2
        assert h.mean == pytest.approx((n + 1) / 2)
        summary = h.summary()
        assert summary["count"] == n
        assert summary["min"] == 1.0
        assert summary["max"] == float(n)

    def test_percentiles_stay_in_observed_range(self):
        h = Histogram()
        for v in range(2_000):
            h.observe(float(v))
        for q in (0, 50, 90, 99, 100):
            assert 0.0 <= h.percentile(q) <= 1_999.0

    def test_bucket_relative_error_is_bounded(self):
        """Log buckets with a 2**0.25 growth factor put every quantile
        within ~19 % of the true value."""
        h = Histogram()
        for v in range(1, 1_001):
            h.observe(float(v))
        for q, true in ((50, 500), (90, 900), (99, 990)):
            assert h.percentile(q) == pytest.approx(true, rel=0.19)

    def test_merge_combines_shards(self):
        a, b = Histogram(), Histogram()
        for v in (1.0, 2.0, 3.0):
            a.observe(v)
        for v in (10.0, 20.0):
            b.observe(v)
        a.merge(b)
        assert a.count == 5
        assert a.sum == 36.0
        assert a.min == 1.0
        assert a.max == 20.0

    def test_summary_round_trips_exactly(self):
        h = Histogram()
        for v in (0.2, 1.5, 3.0, 999.0, 2e7):  # incl. overflow bucket
            h.observe(v)
        restored = Histogram.from_summary(h.summary())
        assert restored.summary() == h.summary()

    @pytest.mark.parametrize("buckets", [None, [[1.0, 3]]],
                             ids=["none", "short"])
    def test_summary_whose_buckets_miss_its_count_is_rejected(
        self, buckets
    ):
        summary = {"count": 5, "sum": 15.0, "min": 1.0, "max": 5.0}
        if buckets is not None:
            summary["buckets"] = buckets
        with pytest.raises(ValueError, match="'lat_ms'"):
            Histogram.from_summary(summary, "lat_ms")
        with pytest.raises(ValueError, match="'lat_ms'"):
            MetricsRegistry().restore_histogram("lat_ms", summary)

    def test_count_over_is_exact(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            h.observe(v)
        assert h.count_over(3.0) == 2     # strictly greater
        assert h.count_over(0.5) == 5
        assert h.count_over(5.0) == 0

    def test_summary_is_one_consistent_snapshot(self):
        """summary() under concurrent observes: count must equal what the
        writer finished plus at most what arrived mid-snapshot, and the
        aggregate fields must be mutually consistent (mean = sum/count)."""
        h = Histogram()
        stop = threading.Event()

        def writer():
            v = 0
            while not stop.is_set():
                h.observe(float(v % 100))
                v += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(200):
                s = h.summary()
                if s["count"]:
                    assert s["min"] <= s["p50"] <= s["max"]
                    assert s["mean"] == pytest.approx(s["sum"] / s["count"])
        finally:
            stop.set()
            thread.join()

    def test_out_of_range_percentile(self):
        with pytest.raises(ValueError):
            Histogram().percentile(101)

    def test_empty_summary(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        assert summary["p99"] == 0.0


class TestRegistryExport:
    def test_to_dict_and_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("requests.total").inc(7)
        registry.gauge("queue.depth").set(3)
        registry.histogram("latency_ms").observe(1.5)
        data = json.loads(registry.to_json())
        assert data["counters"]["requests.total"] == 7
        assert data["gauges"]["queue.depth"] == 3
        assert data["histograms"]["latency_ms"]["count"] == 1
        assert data["histograms"]["latency_ms"]["p50"] == 1.5

    def test_instruments_are_singletons(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("y") is registry.histogram("y")
        assert registry.gauge("z") is registry.gauge("z")

    def test_to_dict_snapshot_survives_concurrent_registration(self):
        """to_dict() while other threads register instruments and write:
        every exported value must be internally consistent and the call
        must never raise (the registry copies its tables under the lock)."""
        registry = MetricsRegistry()
        registry.counter("seed").inc()
        stop = threading.Event()

        def churn(worker: int):
            i = 0
            while not stop.is_set():
                registry.counter(f"c{worker}.{i % 20}").inc()
                registry.gauge(f"g{worker}").add(1)
                registry.histogram(f"h{worker}").observe(float(i % 10))
                i += 1

        threads = [threading.Thread(target=churn, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(100):
                data = registry.to_dict()
                assert data["counters"]["seed"] == 1
                for summary in data["histograms"].values():
                    if summary["count"]:
                        assert summary["min"] <= summary["max"]
        finally:
            stop.set()
            for t in threads:
                t.join()
