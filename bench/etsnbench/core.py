"""Shared pieces of the benchmark: sample statistics, the span recorder,
set-up timing, memory, and the result record every workload returns."""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: how often a workload's set-up is repeated in one run; ``setup_s`` is
#: the median, so one slow start (cold page cache, first ``.pyc``
#: compile in a fresh checkout) does not decide the metric.
SETUP_REPS = 3


def bootstrap() -> None:
    """Put the program under test on ``sys.path``.

    The benchmark only ever measures the ``src/`` next to it: a checkout
    without one (or an installed ``repro`` from somewhere else) is an
    error, not a silent fallback.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program under test at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_cpus() -> Optional[int]:
    """Pin this process to the last CPU it may use and return the first
    one for a server child (``None`` when there is only one CPU).

    Unpinned, the kernel moves the benchmark and the server's two
    threads between cores; on the 2-core box that alone cost a third of
    the frontend's throughput and made every timing swing by a fifth."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[-1]})
    return cpus[0]


def child_env() -> Dict[str, str]:
    """Environment for subprocesses that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_SANITIZE_LOCKS", None)
    return env


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def tail_fraction(count: int) -> float:
    """The highest percentile, at most p95, that still has ten samples
    beyond it; never below the median (a sample of under twenty has no
    tail to report).  Capped at p95 because a p99 of identical code
    swung by a third between runs on this machine."""
    if count < 20:
        return 0.5
    return min(0.95, 1.0 - 10.0 / count)


def time_bins(completions: Sequence[Tuple[float, float]], span_s: float,
              per_bin: int = 30) -> List[Tuple[float, List[float]]]:
    """Cut a phase into equal time bins: ``(bin width, latencies of
    the operations that finished in it)``, at least ``per_bin``
    operations a bin on average, at most twenty bins.  ``completions``
    are ``(finish time since the phase began, latency)`` pairs in
    seconds."""
    bins = max(1, min(20, len(completions) // per_bin))
    width = span_s / bins
    chunks: List[List[float]] = [[] for _ in range(bins)]
    for finished, latency in completions:
        chunks[min(bins - 1, int(finished / width))].append(latency)
    return [(width, chunk) for chunk in chunks]


def closed_loop_bins(walls: Sequence[float], per_bin: int = 30):
    """Time bins of one caller running one operation at a time: an
    operation finishes when the walls before it are spent."""
    finished, completions = 0.0, []
    for wall in walls:
        finished += wall
        completions.append((finished, wall))
    return time_bins(completions, finished, per_bin)


def quiet_side(values: Sequence[float], high: bool) -> float:
    """The quartile of ``values`` on the undisturbed side: the upper
    one of rates, the lower one of latencies (the best value when there
    are fewer than four)."""
    if len(values) < 4:
        return max(values) if high else min(values)
    return statistics.quantiles(values, n=4)[2 if high else 0]


def steady(chunks: Sequence[Tuple[float, List[float]]],
           repeats: bool = False) -> Tuple[float, float, float, float]:
    """Throughput, median latency and tail latency of a phase from its
    chunks ``(wall, latencies)`` — time bins, or passes over the same
    work — and the percentile the tail stands for.

    Each figure is computed per chunk and the quartile on the quiet
    side is reported.  This machine slows down by 20-40 % for seconds
    at a time and is never faster than undisturbed, so its noise is
    one-sided: a mean over the phase carries every episode (identical
    code and seed gave 21k and 33k requests a second), the median chunk
    still carries an episode that covers half the run, the quiet
    quartile needs only a quarter of the run undisturbed.  A change of
    the program moves every chunk and so moves the quartile.  The tail
    of a chunk is its highest percentile, at most p95, with ten of its
    samples beyond it.

    ``repeats`` says the chunks are passes over the same operations in
    the same order; each operation then counts with its best wall of
    all passes (a 2.7 s pass is too long for any of four to be quiet),
    and the tail percentile is the one all samples together support."""
    if repeats:
        best = [min(walls) for walls in zip(*(lat for _, lat in chunks))]
        fraction = tail_fraction(len(best) * len(chunks))
        return (len(best) / sum(best), statistics.median(best),
                percentile(best, fraction), fraction)
    filled = [latencies for _, latencies in chunks if latencies]
    fraction = tail_fraction(
        sum(len(latencies) for latencies in filled) // len(chunks)
    )
    return (
        quiet_side([len(lat) / wall for wall, lat in chunks], high=True),
        quiet_side([statistics.median(lat) for lat in filled], high=False),
        quiet_side([percentile(lat, fraction) for lat in filled],
                   high=False),
        fraction,
    )


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class _SpanContext:
    __slots__ = ("_recorder", "_name", "_shadow", "_id", "_start")

    def __init__(self, recorder: "SpanRecorder", name: str, shadow: bool):
        self._recorder = recorder
        self._name = name
        self._shadow = shadow

    def __enter__(self) -> "_SpanContext":
        recorder = self._recorder
        recorder._next_id += 1
        self._id = recorder._next_id
        recorder._stack.append(self._id)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter_ns()
        recorder = self._recorder
        recorder._stack.pop()
        parent = recorder._stack[-1] if recorder._stack else 0
        recorder.rows.append((
            self._id, parent, recorder.op_id, self._name,
            self._start, end, self._shadow,
        ))


class SpanRecorder:
    """In-memory span log of one traced run.

    A span is ``(id, parent id, operation id, name, start ns, end ns,
    shadow)``; spans nest by ``with`` blocks on one thread.  *Shadow*
    spans time an extra call the harness made on the side (a layer's
    public function re-run on the pinned snapshot): they feed the
    per-layer table but are left out of coverage and overhead.
    """

    def __init__(self) -> None:
        self.rows: List[Tuple[int, int, int, str, int, int, bool]] = []
        self.op_id = 0
        self._stack: List[int] = []
        self._next_id = 0
        self._lap_ns = 0

    def span(self, name: str, shadow: bool = False) -> _SpanContext:
        return _SpanContext(self, name, shadow)

    def next_op(self) -> int:
        self.op_id += 1
        return self.op_id

    def lap(self, name: Optional[str] = None) -> None:
        """Close a leaf span that began at the previous lap (``None``
        only starts the clock).  Consecutive steps share one clock
        read, so a request path of six 5 us steps leaves no unexplained
        gap between one span's end and the next's start — with ``with``
        blocks those gaps were a tenth of the operation."""
        now = time.perf_counter_ns()
        if name is not None:
            self._next_id += 1
            stack = self._stack
            self.rows.append((self._next_id, stack[-1] if stack else 0,
                              self.op_id, name, self._lap_ns, now, False))
        self._lap_ns = now

    # -- analysis ------------------------------------------------------
    def durations_ns(self, name: str) -> List[int]:
        return [end - start for _, _, _, n, start, end, _ in self.rows
                if n == name]

    def p50(self, name: str, per: float) -> Tuple[float, int]:
        """Median duration of ``name`` spans in units of ``per`` ns, and
        the sample count; ``(0.0, 0)`` when the span never ran."""
        durations = self.durations_ns(name)
        if not durations:
            return 0.0, 0
        return statistics.median(durations) / per, len(durations)

    def self_times_ns(self) -> Dict[int, int]:
        """Span id -> duration minus the durations of direct children."""
        own = {row[0]: row[5] - row[4] for row in self.rows}
        for _, parent, _, _, start, end, _ in self.rows:
            if parent in own:
                own[parent] -= end - start
        return own

    def coverage(self, root_name: str) -> float:
        """Share of the traced operations' wall that named layer spans
        account for: self time of every non-shadow span below a root,
        over the roots' total duration less the shadow calls (the rest
        is the harness's own bookkeeping).  Shadow spans are leaves."""
        own = self.self_times_ns()
        root_ns = layer_ns = 0
        for span_id, _, _, name, start, end, shadow in self.rows:
            if shadow:
                continue
            if name == root_name:
                root_ns += end - start
            else:
                layer_ns += own[span_id]
        wall_ns = root_ns - self.shadow_ns()
        return layer_ns / wall_ns if wall_ns > 0 else 0.0

    def shadow_ns(self) -> int:
        """Wall of the shadow spans inside operations (extra work the
        traced run did that the untraced run did not)."""
        return sum(end - start
                   for _, parent, _, _, start, end, shadow in self.rows
                   if shadow and parent)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span_id, parent, op, name, start, end, shadow in self.rows:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op,
                    "name": name, "start_ns": start, "end_ns": end,
                    "shadow": shadow,
                }, separators=(",", ":")) + "\n")


# ----------------------------------------------------------------------
# set-up, memory
# ----------------------------------------------------------------------
def import_seconds(modules: Iterable[str]) -> float:
    """Wall of importing ``modules`` in a fresh interpreter, median of
    :data:`SETUP_REPS` — the part of a process's start a user pays
    before the first call, which this process can only pay once."""
    code = (
        "import time; t = time.perf_counter(); import "
        + ", ".join(modules)
        + "; print(time.perf_counter() - t)"
    )
    walls = []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), check=True,
            capture_output=True, text=True, timeout=120,
        )
        walls.append(float(done.stdout.strip()))
    return statistics.median(walls)


def timed_setup(build: Callable[[], object]):
    """Run ``build`` :data:`SETUP_REPS` times; returns the last result
    and the median wall."""
    walls = []
    result = None
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        result = build()
        walls.append(time.perf_counter() - started)
    return result, statistics.median(walls)


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# the result of one run
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run measured.

    ``metrics`` maps a metric name to its value; ``counts`` optionally
    maps a metric name to the number of samples behind it (printed
    beside the value, never part of the result line); ``problems``
    lists every failed output check — a non-empty list fails the run.
    """

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, count: Optional[int] = None):
        self.metrics[name] = float(value)
        if count is not None:
            self.counts[name] = count

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def steady_metrics(self, chunks: Sequence[Tuple[float, List[float]]],
                       repeats: bool = False,
                       latency_chunks: Optional[Sequence] = None) -> None:
        """``throughput_ops_s`` and ``latency_p50_ms`` of a phase (see
        :func:`steady`); the latency from ``latency_chunks`` when
        another phase measures it (the open loop of a network
        workload).  The tail is printed beside them as a note: it has
        no bound (see :meth:`tail_metric`)."""
        rate = steady(chunks, repeats)[0]
        timed = latency_chunks if latency_chunks is not None else chunks
        _, p50_s, tail_s, fraction = steady(timed, repeats)
        self.put("throughput_ops_s", rate,
                 sum(len(latencies) for _, latencies in chunks))
        self.put("latency_p50_ms", p50_s * 1e3,
                 sum(len(latencies) for _, latencies in timed))
        self.notes["chunks"] = len(timed)
        self.notes[f"latency_tail_ms (p{fraction * 100:.1f})"] = round(
            tail_s * 1e3, 4
        )

    def tail_metric(self, chunks: Sequence[Tuple[float, List[float]]],
                    repeats: bool = False) -> None:
        """``latency_tail_ms`` of a traced run's untraced replay.  A
        per-layer metric: over ten runs of identical code its spread
        reached 0.3 on ``frontend_*`` (a p95 of 0.2 ms is scheduling
        jitter), which no end-to-end bound can carry."""
        _, _, tail_s, fraction = steady(chunks, repeats)
        self.put("latency_tail_ms", tail_s * 1e3,
                 sum(len(latencies) for _, latencies in chunks))
        self.notes["latency_tail_ms.percentile"] = round(fraction * 100, 1)


class _NoSpan:
    """Stand-in for a span in the untraced run: no clock, no record."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


NO_SPAN = _NoSpan()


def no_lap(name: Optional[str] = None) -> None:
    """:meth:`SpanRecorder.lap` of the untraced run."""


def finish_traced(outcome: Outcome, spans: SpanRecorder,
                  plain_wall_s: float, traced_wall_s: float,
                  workload: str) -> None:
    """The three numbers every traced run reports, and the span file."""
    traced = traced_wall_s - spans.shadow_ns() / 1e9
    outcome.put("obs.tracing_overhead_frac", traced / plain_wall_s - 1.0)
    coverage = spans.coverage("op")
    outcome.put("trace.coverage_frac", coverage)
    outcome.check(
        coverage >= 0.9,
        f"trace coverage {coverage:.3f} is below 0.9: the spans do not "
        f"explain the traced operations' wall",
    )
    outcome.put(
        "failed_frac",
        outcome.failed / outcome.attempted if outcome.attempted else 0.0,
    )
    spans.write(OUT_DIR / f"trace-{workload}.jsonl")
