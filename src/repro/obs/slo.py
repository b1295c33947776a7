"""SLO tracking: latency objectives with error budgets over histograms.

An :class:`SloTarget` names a latency histogram, a quantile, and an
objective (milliseconds — the unit the service observes in).  The
tracker evaluates targets against histogram *summaries* (live registry
or saved metrics JSON — both carry the bucket counts), so an SLO
report needs no access to the running process:

* **attained quantile** — the histogram's value at the target quantile
  (bucket-resolution nearest-rank, identical semantics everywhere).
* **error budget** — a p99 objective implicitly allows 1 % of
  observations over it: ``budget = floor((1 - quantile) * count)``.
  Violations are counted exactly from the bucket counts
  (:meth:`~repro.obs.histogram.Histogram.count_over`); the SLO is met
  while ``violations <= budget``.

``repro slo`` renders the report and exits nonzero when any target is
violated, so it can gate CI or a deploy; ``--target`` evaluates any
histogram in a saved metrics JSON, e.g. a ``frontend serve
--metrics-out`` file against
``frontend.latency.request_ms:0.99:500``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.obs.histogram import Histogram

__all__ = [
    "DEFAULT_TARGETS",
    "SloResult",
    "SloTarget",
    "evaluate_slos",
    "format_slo_report",
]


@dataclass(frozen=True)
class SloTarget:
    """One objective: ``metric``'s ``quantile`` stays ≤ ``objective_ms``."""

    metric: str
    objective_ms: float
    quantile: float = 0.99

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(
                f"quantile must be in (0, 1), got {self.quantile}"
            )
        if self.objective_ms <= 0:
            raise ValueError(
                f"objective must be positive, got {self.objective_ms}"
            )

    @classmethod
    def parse(cls, spec: str) -> "SloTarget":
        """Parse ``metric:quantile:objective_ms`` (CLI ``--target``)."""
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"target spec must be metric:quantile:objective_ms, "
                f"got {spec!r}"
            )
        return cls(
            metric=parts[0],
            quantile=float(parts[1]),
            objective_ms=float(parts[2]),
        )


#: The service-level objectives the repo tracks by default: end-to-end
#: decision latency, and the analytic fast path that decides the
#: common case (its whole value is being orders of magnitude under the
#: solver rungs, so it gets a far tighter objective).
DEFAULT_TARGETS = (
    SloTarget(metric="latency.decision_ms", quantile=0.99,
              objective_ms=250.0),
    SloTarget(metric="latency.rung.fastpath_ms", quantile=0.99,
              objective_ms=10.0),
)


@dataclass(frozen=True)
class SloResult:
    """The evaluated state of one target."""

    target: SloTarget
    count: int
    attained_ms: float
    violations: int
    budget: int
    met: bool
    missing: bool = False

    @property
    def budget_remaining(self) -> int:
        return self.budget - self.violations

    def to_dict(self) -> Dict[str, object]:
        return {
            "metric": self.target.metric,
            "quantile": self.target.quantile,
            "objective_ms": self.target.objective_ms,
            "count": self.count,
            "attained_ms": self.attained_ms,
            "violations": self.violations,
            "budget": self.budget,
            "budget_remaining": self.budget_remaining,
            "met": self.met,
            "missing": self.missing,
        }


def evaluate_slos(
    metrics: Dict[str, object],
    targets: Sequence[SloTarget] = DEFAULT_TARGETS,
    require_all: bool = False,
) -> List[SloResult]:
    """Evaluate ``targets`` against a metrics snapshot.

    ``metrics`` is a ``MetricsRegistry.to_dict()`` payload (or the
    saved-JSON equivalent).  A target whose histogram is absent or
    empty reports ``missing=True`` and counts as met unless
    ``require_all`` — a fresh service has no latency yet, which is not
    an SLO breach, but a CI gate may insist the evidence exists.  A
    summary whose bucket counts do not add up to its ``count`` is a
    :class:`ValueError` naming the metric.
    """
    histograms = metrics.get("histograms", {})
    results = []
    for target in targets:
        summary = histograms.get(target.metric)
        count = int(summary.get("count", 0)) if summary else 0
        if not count:
            results.append(SloResult(
                target=target, count=0, attained_ms=0.0, violations=0,
                budget=0, met=not require_all, missing=True,
            ))
            continue
        histogram = Histogram.from_summary(summary, target.metric)
        attained = histogram.percentile(target.quantile * 100)
        violations = histogram.count_over(target.objective_ms)
        budget = int((1.0 - target.quantile) * count)
        results.append(SloResult(
            target=target, count=count, attained_ms=attained,
            violations=violations, budget=budget,
            met=violations <= budget,
        ))
    return results


def format_slo_report(results: Sequence[SloResult]) -> str:
    """Human-readable SLO table (the ``repro slo`` output)."""
    header = (f"{'metric':<32} {'slo':>12} {'attained':>12} "
              f"{'count':>8} {'viol':>6} {'budget':>7} {'status':>8}")
    lines = [header, "-" * len(header)]
    for result in results:
        target = result.target
        slo = f"p{target.quantile * 100:g}<={target.objective_ms:g}ms"
        if result.missing:
            status = "no-data"
            attained = "-"
        else:
            status = "ok" if result.met else "VIOLATED"
            attained = f"{result.attained_ms:.3f}ms"
        lines.append(
            f"{target.metric:<32} {slo:>12} {attained:>12} "
            f"{result.count:>8} {result.violations:>6} "
            f"{result.budget:>7} {status:>8}"
        )
    return "\n".join(lines)
