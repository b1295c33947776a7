"""Benchmark regression tracking over the committed BENCH_*.json files.

The benchmark suite emits machine-readable ``BENCH_admission.json`` /
``BENCH_frontend.json`` payloads (timestamp-free, diffable); committing
them turns each PR's throughput into a trajectory.  This module makes
that trajectory *enforced*: :func:`diff_benchmarks` compares a fresh
payload against the committed baseline and flags any throughput metric
that regressed by more than ``max_regression`` (default 20 %).

Throughput metrics are discovered structurally — every numeric leaf
whose key ends in ``_per_sec``, plus ``speedup`` — so new benchmarks
join the gate the moment they are recorded, without registration.
Higher is better for all of them; a metric present in the baseline but
missing from the fresh run is itself a failure (a silently dropped
benchmark is not an improvement).

``repro bench diff BASELINE CURRENT`` renders the comparison and exits
nonzero on regression; CI runs it after the benchmark jobs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "BenchDelta",
    "collect_throughput_metrics",
    "diff_benchmarks",
    "format_bench_diff",
    "load_bench",
    "split_failures",
]

#: A numeric leaf is a tracked throughput metric when its key ends in
#: one of these (``cache_speedup`` is the frontend's cache-on multiple).
_THROUGHPUT_SUFFIXES = ("_per_sec", "speedup")


def load_bench(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def collect_throughput_metrics(
    data: object, prefix: str = ""
) -> Dict[str, float]:
    """Flatten the higher-is-better numeric leaves of a BENCH payload.

    Returns ``{"dotted.path": value}`` for every int/float leaf whose
    final key component ends in ``_per_sec`` or is ``speedup``.
    """
    metrics: Dict[str, float] = {}
    if isinstance(data, dict):
        for key, value in sorted(data.items()):
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, (dict, list)):
                metrics.update(collect_throughput_metrics(value, path))
            elif isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                if any(str(key).endswith(s) for s in _THROUGHPUT_SUFFIXES):
                    metrics[path] = float(value)
    elif isinstance(data, list):
        for index, item in enumerate(data):
            metrics.update(
                collect_throughput_metrics(item, f"{prefix}[{index}]")
            )
    return metrics


@dataclass(frozen=True)
class BenchDelta:
    """One metric's baseline-vs-current comparison."""

    metric: str
    baseline: float
    current: float  # NaN-free: missing metrics use status, not sentinel
    ratio: float
    status: str  # "ok" | "improved" | "regressed" | "missing" | "new"

    @property
    def failed(self) -> bool:
        return self.status in ("regressed", "missing")

    def to_dict(self) -> Dict[str, object]:
        return {
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "ratio": self.ratio,
            "status": self.status,
        }


def diff_benchmarks(
    baseline: Dict,
    current: Dict,
    max_regression: float = 0.20,
) -> List[BenchDelta]:
    """Compare two BENCH payloads metric-by-metric.

    A metric fails when ``current < baseline * (1 - max_regression)``
    or when it vanished from the current payload.  Improvements beyond
    the same margin are labelled ``improved`` (a nudge to refresh the
    committed baseline).  Metrics only in the current payload are
    ``new`` and never fail.
    """
    if not 0.0 <= max_regression < 1.0:
        raise ValueError(
            f"max_regression must be in [0, 1), got {max_regression}"
        )
    base_metrics = collect_throughput_metrics(baseline)
    curr_metrics = collect_throughput_metrics(current)
    deltas = []
    for metric in sorted(set(base_metrics) | set(curr_metrics)):
        if metric not in curr_metrics:
            deltas.append(BenchDelta(
                metric=metric, baseline=base_metrics[metric],
                current=0.0, ratio=0.0, status="missing",
            ))
            continue
        if metric not in base_metrics:
            deltas.append(BenchDelta(
                metric=metric, baseline=0.0,
                current=curr_metrics[metric], ratio=1.0, status="new",
            ))
            continue
        base = base_metrics[metric]
        curr = curr_metrics[metric]
        ratio = curr / base if base else 1.0
        if ratio < 1.0 - max_regression:
            status = "regressed"
        elif ratio > 1.0 + max_regression:
            status = "improved"
        else:
            status = "ok"
        deltas.append(BenchDelta(
            metric=metric, baseline=base, current=curr,
            ratio=ratio, status=status,
        ))
    return deltas


def format_bench_diff(
    deltas: Sequence[BenchDelta], max_regression: float = 0.20
) -> str:
    """Human-readable comparison table (the ``repro bench diff`` output)."""
    header = (f"{'metric':<44} {'baseline':>12} {'current':>12} "
              f"{'ratio':>8} {'status':>10}")
    lines = [header, "-" * len(header)]
    for delta in deltas:
        baseline = "-" if delta.status == "new" else f"{delta.baseline:g}"
        current = "-" if delta.status == "missing" else f"{delta.current:g}"
        ratio = (
            "-" if delta.status in ("missing", "new")
            else f"{delta.ratio:.3f}"
        )
        status = delta.status.upper() if delta.failed else delta.status
        lines.append(
            f"{delta.metric:<44} {baseline:>12} {current:>12} "
            f"{ratio:>8} {status:>10}"
        )
    failed = [d for d in deltas if d.failed]
    lines.append("")
    if failed:
        lines.append(
            f"FAIL: {len(failed)} metric(s) regressed beyond "
            f"{max_regression:.0%} (or went missing)"
        )
    else:
        lines.append(
            f"ok: no metric regressed beyond {max_regression:.0%}"
        )
    return "\n".join(lines)


def split_failures(
    deltas: Sequence[BenchDelta],
) -> Tuple[List[BenchDelta], List[BenchDelta]]:
    """(failed, passed) partition of a diff."""
    failed = [d for d in deltas if d.failed]
    passed = [d for d in deltas if not d.failed]
    return failed, passed
