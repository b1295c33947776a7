"""Lightweight in-process spans and events — the repro's tracing core.

A :class:`Tracer` records :class:`Span` objects (named intervals with
integer-nanosecond timestamps, attributes, and parent links) into a
bounded ring buffer.  Three properties drive the design:

* **Opt-out-by-default cheap.**  Code paths take a tracer argument that
  defaults to :data:`NULL_TRACER`, a no-op whose :meth:`~Tracer.span` /
  :meth:`~Tracer.event` cost one attribute lookup and one call — cheap
  enough for the solver and simulator hot paths.
* **Deterministic under test.**  The clock is injectable (any callable
  returning integer nanoseconds); simulation code passes explicit
  ``ts_ns`` stamps so traces carry *simulated* time, not wall time.
* **Thread-tolerant.**  Parentage normally follows a per-thread span
  stack, but any span can name an explicit ``parent`` — work handed to
  another thread stays attributed to the span that handed it over.

Spans are exported (appended to the ring) when they *finish*, so the
buffer is ordered by completion time; readers reconstruct the tree from
``parent_id``.  A full ring drops the oldest span and counts the drop.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional

from repro.obs.context import TraceContext

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "children_of",
]


@dataclass
class Span:
    """One named interval (or instantaneous event) in a trace.

    ``end_ns`` equals ``start_ns`` for point events; ``parent_id`` is
    ``None`` for roots.  Attribute values must be JSON-able scalars so
    traces serialize losslessly.
    """

    name: str
    trace_id: int
    span_id: int
    parent_id: Optional[int]
    start_ns: int
    end_ns: Optional[int] = None
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        """Span length; 0 while unfinished and for point events."""
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def set(self, **attributes: object) -> "Span":
        """Attach attributes after the span started (e.g. an outcome)."""
        self.attributes.update(attributes)
        return self


class _ActiveSpan:
    """Context manager that finishes its span on exit."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def set(self, **attributes: object) -> None:
        self.span.set(**attributes)

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.span.attributes.setdefault("error", exc_type.__name__)
        self._tracer.finish(self.span)


class _NullSpanContext:
    """Shared do-nothing context manager handed out by the null tracer."""

    __slots__ = ()

    def set(self, **attributes: object) -> None:
        pass

    def __enter__(self) -> "_NullSpanContext":
        return self  # has a no-op .set(), like a real Span

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_CONTEXT = _NullSpanContext()


class Tracer:
    """Records spans into a bounded in-process ring buffer.

    ``clock`` must return integer nanoseconds on a monotonic timeline
    (default :func:`time.perf_counter_ns`); ``max_spans`` bounds memory
    — once full, the oldest finished span is dropped and counted in
    :attr:`dropped`.
    """

    #: Lets hot paths skip attribute building entirely when tracing is
    #: off: ``if tracer.enabled: tracer.event(...)``.
    enabled = True

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        max_spans: int = 65536,
    ) -> None:
        if max_spans < 1:
            raise ValueError("tracer ring needs room for at least one span")
        self._clock = clock
        self._ring: Deque[Span] = deque(maxlen=max_spans)
        self._max_spans = max_spans
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self._stack = threading.local()
        self.dropped = 0

    # -- span lifecycle ------------------------------------------------
    def span(
        self,
        name: str,
        parent: Optional[Span] = None,
        ts_ns: Optional[int] = None,
        **attributes: object,
    ) -> _ActiveSpan:
        """Open a span; use as a context manager.

        Parentage defaults to the innermost open span *of this thread*;
        pass ``parent`` explicitly to attach work running elsewhere
        (worker threads, resumed contexts).
        """
        span = self._start(name, parent, ts_ns, attributes)
        self._frames().append(span)
        return _ActiveSpan(self, span)

    def start_span(
        self,
        name: str,
        parent: Optional[Span] = None,
        ts_ns: Optional[int] = None,
        **attributes: object,
    ) -> Span:
        """Open a span *without* entering it on the thread stack.

        For call sites that keep several spans open side by side (e.g.
        one per request of a batch); pair each with :meth:`finish`.
        Children started while such a span is open do NOT implicitly
        attach to it — pass it as their ``parent`` explicitly.
        """
        return self._start(name, parent, ts_ns, attributes)

    def finish(self, span: Span, ts_ns: Optional[int] = None) -> None:
        """Stamp the end time and export ``span`` to the ring."""
        span.end_ns = self._clock() if ts_ns is None else ts_ns
        frames = self._frames()
        if frames and frames[-1] is span:
            frames.pop()
        else:  # finished off-stack (another thread, or out of order)
            try:
                frames.remove(span)
            except ValueError:
                pass
        self._export(span)

    def event(
        self,
        name: str,
        parent: Optional[Span] = None,
        ts_ns: Optional[int] = None,
        **attributes: object,
    ) -> Span:
        """Record an instantaneous event (a zero-duration span)."""
        span = self._start(name, parent, ts_ns, attributes)
        span.end_ns = span.start_ns
        self._export(span)
        return span

    # -- context propagation -------------------------------------------
    def current_context(self) -> Optional[TraceContext]:
        """The propagation context of this thread's innermost open span.

        Falls back to the ambient context installed by
        :meth:`use_context`; ``None`` when the thread has no trace
        identity at all (spans opened now would become roots).
        """
        frames = self._frames()
        if frames:
            return TraceContext.of(frames[-1])
        return getattr(self._stack, "ambient", None)

    @contextmanager
    def use_context(self, context: Optional[TraceContext]):
        """Install ``context`` as this thread's fallback span parent.

        While active, spans opened with no explicit ``parent`` and an
        empty thread stack attach to ``context`` instead of starting a
        new trace — the cross-thread half of distributed propagation:
        capture ``current_context()`` before handing work to a pool,
        re-enter it inside the worker.  ``None`` is accepted and means
        "no fallback" (so callers need not branch on a missing
        context); the prior ambient context is restored on exit.
        """
        previous = getattr(self._stack, "ambient", None)
        self._stack.ambient = context
        try:
            yield context
        finally:
            self._stack.ambient = previous

    # -- reading back --------------------------------------------------
    def spans(self) -> List[Span]:
        """Finished spans, oldest first (bounded by ``max_spans``)."""
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self.dropped = 0

    def __len__(self) -> int:
        return len(self._ring)

    # -- internals -----------------------------------------------------
    def _frames(self) -> List[Span]:
        frames = getattr(self._stack, "frames", None)
        if frames is None:
            frames = []
            self._stack.frames = frames
        return frames

    def _start(
        self,
        name: str,
        parent: Optional[Span],
        ts_ns: Optional[int],
        attributes: Dict[str, object],
    ) -> Span:
        if parent is None:
            frames = self._frames()
            if frames:
                parent = frames[-1]
            else:  # cross-thread fallback installed by use_context()
                parent = getattr(self._stack, "ambient", None)
        return Span(
            name=name,
            trace_id=(
                parent.trace_id if parent is not None else next(self._traces)
            ),
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            start_ns=self._clock() if ts_ns is None else ts_ns,
            attributes=dict(attributes),
        )

    def _export(self, span: Span) -> None:
        with self._lock:
            if len(self._ring) == self._max_spans:
                self.dropped += 1
            self._ring.append(span)


class NullTracer(Tracer):
    """The disabled tracer: every operation is a no-op.

    Instrumented code holds a reference to this singleton instead of
    branching on ``None``, so the enabled and disabled paths are the
    same shape; :attr:`enabled` lets the very hottest paths skip even
    the argument packing.
    """

    enabled = False
    dropped = 0

    def __init__(self) -> None:  # no ring, no clock, no locks
        pass

    def span(self, name, parent=None, ts_ns=None, **attributes):
        return _NULL_CONTEXT

    def start_span(self, name, parent=None, ts_ns=None, **attributes):
        return _NULL_CONTEXT

    def current_context(self) -> None:
        return None

    @contextmanager
    def use_context(self, context=None):
        yield None

    def finish(self, span, ts_ns=None) -> None:
        pass

    def event(self, name, parent=None, ts_ns=None, **attributes) -> None:
        return None

    def spans(self) -> List[Span]:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


#: Process-wide disabled tracer; safe to share (it holds no state).
NULL_TRACER = NullTracer()


def children_of(spans: Iterable[Span], parent: Span) -> List[Span]:
    """The direct children of ``parent`` within ``spans``."""
    return [s for s in spans if s.parent_id == parent.span_id]
