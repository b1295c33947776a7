"""Cross-cutting observability: spans, metrics, telemetry export.

The paper's claims are latency *distributions* — per-hop ECT delay
(Fig. 14), admission latency, TCT worst-case impact — so the repro
carries its own tracing layer instead of guessing from end-to-end
numbers:

* :mod:`repro.obs.trace` — nested spans / point events with injectable
  clocks and a ring-buffered in-process exporter; the disabled
  :data:`NULL_TRACER` is a no-op cheap enough for solver hot paths.
  The span trace is the one record of admission decisions: each request
  span carries its verdict, rung, reason and store version, rung spans
  their outcome, and CAS retries are point events in the batch span.
* :mod:`repro.obs.context` — :class:`TraceContext`, the (trace_id,
  span_id) pair that carries a trace across thread hand-offs such as
  the frontend's executor hop (``tracer.use_context``).
* :mod:`repro.obs.histogram` — the log-bucketed mergeable
  :class:`Histogram` behind every latency metric, and
  :func:`nearest_rank`, the repo's single percentile implementation.
* :mod:`repro.obs.slo` — latency objectives with error budgets
  evaluated from histogram buckets (:func:`evaluate_slos`).
* :mod:`repro.obs.export` — Prometheus text exposition (native
  histogram format), trace summaries and tree rendering, and per-hop
  frame-journey reconstruction.

Instrumentation lives with the instrumented code: the SAT/SMT cores
expose :class:`~repro.smt.sat.SolverStats`, the admission service opens
a span per request with child spans per fallback rung, the cluster
coordinator's batch span parents the admission spans beneath it, and the
simulator's egress ports emit per-frame enqueue/transmit/deliver
events.
"""

from repro.obs.context import TraceContext
from repro.obs.export import (
    format_span_summary,
    frame_journeys,
    per_hop_delays,
    prometheus_label_value,
    prometheus_name,
    render_trace_tree,
    summarize_spans,
    to_prometheus,
)
from repro.obs.histogram import Histogram, nearest_rank
from repro.obs.slo import (
    DEFAULT_TARGETS,
    SloResult,
    SloTarget,
    evaluate_slos,
    format_slo_report,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer, children_of

__all__ = [
    "DEFAULT_TARGETS",
    "Histogram",
    "NULL_TRACER",
    "NullTracer",
    "SloResult",
    "SloTarget",
    "Span",
    "TraceContext",
    "Tracer",
    "children_of",
    "evaluate_slos",
    "format_slo_report",
    "format_span_summary",
    "frame_journeys",
    "nearest_rank",
    "per_hop_delays",
    "prometheus_label_value",
    "prometheus_name",
    "render_trace_tree",
    "summarize_spans",
    "to_prometheus",
]
