"""Prometheus exposition edge cases: hostile names, label escaping,
and format validity of the native histogram output."""

import pytest

from repro.cluster import ClusterCoordinator, partition_topology
from repro.experiments import simulation_topology
from repro.model.stream import TctRequirement
from repro.obs import (
    Histogram,
    prometheus_label_value,
    prometheus_name,
    to_prometheus,
)
from repro.service import AdmitTct
from repro.service.metrics import MetricsRegistry

from tests.service.test_prometheus_export import parse_exposition


class TestNameSanitization:
    def test_dotted_names_flatten(self):
        assert prometheus_name("latency.rung.full_ms") == \
            "repro_latency_rung_full_ms"

    def test_hostile_characters_become_underscores(self):
        for hostile in ("a-b", "a b", "a/b", "a{b}", 'a"b', "a\nb",
                        "a#b", "émoji☃"):
            name = prometheus_name(hostile)
            assert all(
                c.isalnum() and c.isascii() or c in "_:" for c in name
            ), f"{hostile!r} -> {name!r} is not a legal metric name"

    def test_leading_digit_gets_prefixed(self):
        assert not prometheus_name("99th.latency", namespace="")[0].isdigit()

    def test_namespace_optional(self):
        assert prometheus_name("x", namespace="") == "x"

    def test_hostile_registry_still_parses(self):
        registry = MetricsRegistry()
        registry.counter("weird-name.with spaces/and#stuff").inc()
        registry.gauge('quo"te').set(1)
        registry.histogram("99.percentile latency").observe(2.0)
        parse_exposition(to_prometheus(registry))


class TestLabelValueEscaping:
    def test_backslash_escapes_first(self):
        # a preexisting \n sequence must not double-unescape
        assert prometheus_label_value("a\\nb") == "a\\\\nb"

    def test_quote_escaped(self):
        assert prometheus_label_value('say "hi"') == 'say \\"hi\\"'

    def test_newline_escaped(self):
        assert prometheus_label_value("line1\nline2") == "line1\\nline2"

    def test_combined_hostile_value(self):
        value = 'back\\slash "quoted"\nnewline'
        escaped = prometheus_label_value(value)
        assert "\n" not in escaped
        assert escaped == 'back\\\\slash \\"quoted\\"\\nnewline'

    def test_plain_utf8_passes_through(self):
        assert prometheus_label_value("shard-0/région") == "shard-0/région"

    def test_hostile_shard_label_renders_one_line_per_sample(self):
        registry = MetricsRegistry()
        registry.counter("requests.total").inc()
        text = to_prometheus(registry, labels={"shard": 'evil"shard\n'})
        sample_lines = [
            line for line in text.splitlines()
            if not line.startswith("#")
        ]
        assert len(sample_lines) == 1
        assert 'shard="evil\\"shard\\n"' in sample_lines[0]


class TestHistogramExposition:
    def test_buckets_are_cumulative_and_end_in_inf(self):
        registry = MetricsRegistry()
        for value in (0.5, 1.5, 3.0, 2e7):  # last one overflows
            registry.histogram("latency_ms").observe(value)
        text = to_prometheus(registry)
        families = parse_exposition(text)
        kind, samples = families["repro_latency_ms"]
        assert kind == "histogram"
        buckets = [
            (dict(labels)["le"], value)
            for (name, labels), value in samples.items()
            if name == "repro_latency_ms_bucket"
        ]
        assert buckets[-1][0] == "+Inf"
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)
        assert counts[-1] == 4.0
        assert samples[("repro_latency_ms_count", ())] == 4.0
        assert samples[("repro_latency_ms_sum", ())] == pytest.approx(
            0.5 + 1.5 + 3.0 + 2e7
        )

    def test_empty_histogram_exports_count_zero(self):
        registry = MetricsRegistry()
        registry.histogram("latency_ms")  # created, never observed
        families = parse_exposition(to_prometheus(registry))
        samples = families["repro_latency_ms"][1]
        assert samples[("repro_latency_ms_count", ())] == 0.0

    def test_percentile_companions_are_gauges(self):
        registry = MetricsRegistry()
        registry.histogram("latency_ms").observe(2.0)
        families = parse_exposition(to_prometheus(registry))
        for suffix in ("_p50", "_p99", "_p999", "_min", "_max"):
            family = f"repro_latency_ms{suffix}"
            assert families[family][0] == "gauge"

    def test_cluster_exposition_declares_each_family_once(self):
        coordinator = ClusterCoordinator(partition=partition_topology(
            simulation_topology(), 2, seeds=["SW1", "SW4"]
        ))
        for name, destination in (("a", "D4"), ("x", "D12")):
            assert coordinator.submit(AdmitTct(TctRequirement(
                name=name, source="D1", destination=destination,
                period_ns=8_000_000, length_bytes=500,
            ))).accepted
        # parse_exposition rejects duplicate HELP/TYPE, so a successful
        # parse is the property; also check both layers' series landed
        families = parse_exposition(coordinator.prometheus())
        samples = families["repro_latency_decision_ms"][1]
        assert samples[("repro_latency_decision_ms_count", ())] == 2.0
        counters = families["repro_cluster_requests_cross_total"][1]
        assert counters[("repro_cluster_requests_cross_total", ())] == 1.0
