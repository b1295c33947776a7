"""Unified telemetry export: Prometheus text, JSON, and trace summaries.

One module turns the in-process telemetry objects into operator-facing
formats:

* :func:`to_prometheus` — the text exposition format (version 0.0.4) of
  a :class:`~repro.service.metrics.MetricsRegistry`: counters become
  ``*_total`` counters, gauges stay gauges, histograms export natively
  (cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``) with
  ``_p50``/``_p99``/``_p999``/``_min``/``_max`` companion gauges so the
  percentiles are scrapeable without PromQL quantile estimation.
* :func:`summarize_spans` / :func:`format_span_summary` — per-span-name
  latency distributions (count, mean, p50, p99) from a span list, with
  a dedicated per-rung breakdown for admission traces — the table
  ``repro trace summarize`` prints.
* :func:`render_trace_tree` — a trace forest as an indented tree
  (parent links reconstructed from ``parent_id``), the ``repro trace
  tree`` / ``repro trace cluster`` view of a distributed admission.
* :func:`frame_journeys` — reconstruct each simulated frame's per-hop
  timeline (enqueue → transmit → deliver per link) from the simulator's
  frame events, the raw material of the paper's Fig. 14 per-hop delay
  analysis.

All percentiles delegate to :func:`repro.obs.histogram.nearest_rank`,
the repo's single percentile implementation.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs.histogram import nearest_rank
from repro.obs.trace import Span

__all__ = [
    "format_span_summary",
    "frame_journeys",
    "per_hop_delays",
    "prometheus_label_value",
    "prometheus_name",
    "render_trace_tree",
    "summarize_spans",
    "to_prometheus",
]

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")

#: Span name the admission service uses for ladder rung attempts.
RUNG_SPAN = "admission.rung"
#: Event names the simulator emits per frame per hop.
FRAME_EVENTS = ("frame.enqueue", "frame.transmit", "frame.deliver",
                "frame.drop")


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def prometheus_name(name: str, namespace: str = "repro") -> str:
    """A dotted registry key as a legal Prometheus metric name."""
    flat = _NAME_OK.sub("_", name)
    if flat and flat[0].isdigit():
        flat = "_" + flat
    return f"{namespace}_{flat}" if namespace else flat


def prometheus_label_value(value: object) -> str:
    """Escape a label value per the exposition format.

    Backslash, double-quote, and newline are the three characters the
    format requires escaping inside ``label="value"``; everything else
    passes through (label values are full UTF-8).
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt(value: float) -> str:
    """Sample value formatting: integers stay integral, floats use repr."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _fmt_le(bound: object) -> str:
    """Bucket upper-bound formatting: short, stable, "+Inf" passthrough."""
    if bound == "+Inf":
        return "+Inf"
    return f"{float(bound):.6g}"


def _labels(pairs: Mapping[str, object]) -> str:
    """Render a label set (sorted by key; empty set renders nothing)."""
    if not pairs:
        return ""
    inner = ",".join(
        f'{key}="{prometheus_label_value(value)}"'
        for key, value in sorted(pairs.items())
    )
    return "{" + inner + "}"


#: The percentile companion gauges exported next to every histogram.
_PCTL_COMPANIONS = ("p50", "p99", "p999")


def _render_exposition(
    snapshots: Sequence[Tuple[Dict[str, object], Dict]],
    namespace: str,
) -> str:
    """Exposition text over one or more labelled registry snapshots.

    ``snapshots`` is ``[(labels, registry.to_dict()), ...]``.  Families
    are the union across snapshots; each family's HELP/TYPE appears
    once, followed by one sample (set) per snapshot that carries it —
    the invariant a real scrape enforces.
    """
    lines: List[str] = []

    def family(kind: str) -> List[Tuple[str, List[Tuple[Dict, object]]]]:
        names: Dict[str, List[Tuple[Dict, object]]] = {}
        for labels, data in snapshots:
            for name, value in data.get(kind, {}).items():
                names.setdefault(name, []).append((labels, value))
        return sorted(names.items())

    for name, series in family("counters"):
        metric = prometheus_name(name, namespace) + "_total"
        lines.append(f"# HELP {metric} repro counter {name}")
        lines.append(f"# TYPE {metric} counter")
        for labels, value in series:
            lines.append(f"{metric}{_labels(labels)} {_fmt(value)}")

    for name, series in family("gauges"):
        metric = prometheus_name(name, namespace)
        lines.append(f"# HELP {metric} repro gauge {name}")
        lines.append(f"# TYPE {metric} gauge")
        for labels, value in series:
            lines.append(f"{metric}{_labels(labels)} {_fmt(value)}")

    for name, series in family("histograms"):
        metric = prometheus_name(name, namespace)
        lines.append(f"# HELP {metric} repro histogram {name}")
        lines.append(f"# TYPE {metric} histogram")
        for labels, summary in series:
            cumulative = 0
            for le, bucket_count in summary.get("buckets", []):
                if le == "+Inf":
                    continue  # folded into the final +Inf sample below
                cumulative += int(bucket_count)
                bucket_labels = dict(labels)
                bucket_labels["le"] = _fmt_le(le)
                lines.append(
                    f"{metric}_bucket{_labels(bucket_labels)} {cumulative}"
                )
            inf_labels = dict(labels)
            inf_labels["le"] = "+Inf"
            lines.append(
                f"{metric}_bucket{_labels(inf_labels)} "
                f"{_fmt(summary['count'])}"
            )
            lines.append(
                f"{metric}_sum{_labels(labels)} {_fmt(summary['sum'])}"
            )
            lines.append(
                f"{metric}_count{_labels(labels)} {_fmt(summary['count'])}"
            )
        for key in _PCTL_COMPANIONS + ("min", "max"):
            companion = f"{metric}_{key}"
            lines.append(
                f"# HELP {companion} repro histogram {name} {key}"
            )
            lines.append(f"# TYPE {companion} gauge")
            for labels, summary in series:
                lines.append(
                    f"{companion}{_labels(labels)} "
                    f"{_fmt(summary.get(key, 0.0))}"
                )

    return "\n".join(lines) + "\n"


def to_prometheus(
    registry,
    namespace: str = "repro",
    labels: Optional[Dict[str, object]] = None,
) -> str:
    """Render a metrics registry in the Prometheus text format.

    The snapshot comes from ``registry.to_dict()`` so one consistent
    view is exported even while writers keep observing.  ``labels``
    (e.g. ``{"shard": "s0"}``) are attached to every sample.
    """
    return _render_exposition([(dict(labels or {}), registry.to_dict())],
                              namespace)


# ----------------------------------------------------------------------
# trace summaries
# ----------------------------------------------------------------------
def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile over pre-sorted values, ``q`` in [0, 100]."""
    if not ordered:
        return 0.0
    if q <= 0:
        return ordered[0]
    return nearest_rank(ordered, min(q, 100) / 100)


def _distribution(durations_ns: List[int]) -> Dict[str, float]:
    ordered = sorted(d / 1e6 for d in durations_ns)  # ns -> ms
    return {
        "count": len(ordered),
        "mean_ms": sum(ordered) / len(ordered) if ordered else 0.0,
        "p50_ms": _percentile(ordered, 50),
        "p99_ms": _percentile(ordered, 99),
        "max_ms": ordered[-1] if ordered else 0.0,
    }


def summarize_spans(spans: Iterable[Span], dropped: int = 0) -> Dict:
    """Aggregate a span list into per-name and per-rung distributions.

    Returns ``{"spans": {name: dist}, "rungs": {rung: dist},
    "dropped_spans": n}`` where each distribution carries
    count/mean/p50/p99/max in milliseconds.  Point events (zero
    duration) are counted under ``spans`` but do not pollute the
    latency numbers of interval spans sharing their name.  Pass the
    tracer's ``dropped`` count so readers see when the ring buffer
    evicted spans — a nonzero value means every distribution here is
    missing its oldest observations.
    """
    by_name: Dict[str, List[int]] = {}
    by_rung: Dict[str, List[int]] = {}
    for span in spans:
        if span.end_ns is None:
            continue
        by_name.setdefault(span.name, []).append(span.duration_ns)
        if span.name == RUNG_SPAN:
            rung = str(span.attributes.get("rung", "?"))
            by_rung.setdefault(rung, []).append(span.duration_ns)
    return {
        "spans": {
            name: _distribution(durations)
            for name, durations in sorted(by_name.items())
        },
        "rungs": {
            rung: _distribution(durations)
            for rung, durations in sorted(by_rung.items())
        },
        "dropped_spans": dropped,
    }


def format_span_summary(summary: Dict) -> str:
    """Human-readable table of :func:`summarize_spans` output."""
    header = (f"{'span':<28} {'count':>7} {'mean_ms':>10} "
              f"{'p50_ms':>10} {'p99_ms':>10} {'max_ms':>10}")
    lines = [header, "-" * len(header)]
    for name, dist in summary["spans"].items():
        lines.append(
            f"{name:<28} {dist['count']:>7} {dist['mean_ms']:>10.3f} "
            f"{dist['p50_ms']:>10.3f} {dist['p99_ms']:>10.3f} "
            f"{dist['max_ms']:>10.3f}"
        )
    if summary["rungs"]:
        lines.append("")
        lines.append("per-rung solve latency:")
        for rung, dist in summary["rungs"].items():
            lines.append(
                f"  {rung:<26} {dist['count']:>7} {dist['mean_ms']:>10.3f} "
                f"{dist['p50_ms']:>10.3f} {dist['p99_ms']:>10.3f} "
                f"{dist['max_ms']:>10.3f}"
            )
    if summary.get("dropped_spans"):
        lines.append("")
        lines.append(
            f"WARNING: {summary['dropped_spans']} span(s) dropped — the "
            f"tracer ring overflowed; oldest spans are missing from "
            f"every distribution above"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# trace tree rendering
# ----------------------------------------------------------------------
#: Attributes rendered by default in trace trees: the stable,
#: identity-carrying ones (no latencies, no ids — golden-file safe).
TREE_ATTRS = ("op", "stream", "rung", "outcome", "accepted", "reason")


def render_trace_tree(
    spans: Iterable[Span],
    attr_keys: Sequence[str] = TREE_ATTRS,
    durations: bool = False,
) -> str:
    """Render a span list as one indented tree per trace.

    Parent links are reconstructed from ``parent_id``; children sort by
    ``(start_ns, span_id)`` so the rendering is deterministic under a
    fixed clock.  Only ``attr_keys`` attributes are shown (in that
    order) — the default set excludes everything timing-dependent, so
    the output is stable enough to pin as a golden file.  Spans whose
    parent is missing (evicted from the ring) render as roots marked
    ``(orphaned)``.
    """
    spans = list(spans)
    ids = {span.span_id for span in spans}
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in ids else None
        children.setdefault(parent, []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda s: (s.start_ns, s.span_id))

    lines: List[str] = []

    def describe(span: Span) -> str:
        parts = [span.name]
        for key in attr_keys:
            if key in span.attributes:
                parts.append(f"{key}={span.attributes[key]}")
        if durations and span.end_ns is not None:
            parts.append(f"dur={span.duration_ns / 1e6:.3f}ms")
        if span.parent_id is not None and span.parent_id not in ids:
            parts.append("(orphaned)")
        return " ".join(parts)

    def walk(span: Span, depth: int) -> None:
        lines.append("  " * depth + describe(span))
        for child in children.get(span.span_id, []):
            walk(child, depth + 1)

    roots = children.get(None, [])
    for index, root in enumerate(
        sorted(roots, key=lambda s: (s.trace_id, s.start_ns, s.span_id))
    ):
        if index:
            lines.append("")
        lines.append(f"trace {root.trace_id}:")
        walk(root, 1)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# per-hop frame journeys (Fig. 14 raw material)
# ----------------------------------------------------------------------
def frame_journeys(
    spans: Iterable[Span], stream: Optional[str] = None
) -> Dict[int, List[Tuple[str, str, int]]]:
    """Reconstruct each frame's hop-by-hop timeline from frame events.

    Returns ``{frame_id: [(event, link, ts_ns), ...]}`` sorted by
    timestamp, restricted to ``stream`` when given.  Per-hop queueing
    delay is ``transmit - enqueue`` on the same link; per-hop total is
    ``deliver - enqueue``.
    """
    journeys: Dict[int, List[Tuple[str, str, int]]] = {}
    for span in spans:
        if span.name not in FRAME_EVENTS:
            continue
        if stream is not None and span.attributes.get("stream") != stream:
            continue
        frame_id = int(span.attributes["frame_id"])
        link = str(span.attributes.get("link", "?"))
        journeys.setdefault(frame_id, []).append(
            (span.name, link, span.start_ns)
        )
    for steps in journeys.values():
        steps.sort(key=lambda step: step[2])
    return journeys


def per_hop_delays(
    spans: Iterable[Span], stream: Optional[str] = None
) -> Dict[str, List[int]]:
    """Per-link ``deliver - enqueue`` delays (ns) from frame events.

    The distribution Fig. 14's per-hop analysis plots: how long a frame
    of ``stream`` spent at each egress port, queueing included.
    """
    delays: Dict[str, List[int]] = {}
    for steps in frame_journeys(spans, stream).values():
        enqueued: Dict[str, int] = {}
        for event, link, ts_ns in steps:
            if event == "frame.enqueue":
                enqueued[link] = ts_ns
            elif event == "frame.deliver" and link in enqueued:
                delays.setdefault(link, []).append(ts_ns - enqueued.pop(link))
    return {link: sorted(values) for link, values in sorted(delays.items())}
