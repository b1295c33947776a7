"""Trace context: the two integers that tie a distributed trace together.

A :class:`TraceContext` is the propagation-ready identity of a span —
its ``trace_id`` and ``span_id`` — detached from the span object
itself.  It deliberately exposes exactly the attributes
``Tracer._start`` reads off a ``parent``, so a context can stand in
for a span anywhere a parent is accepted: hand the context of the
frontend's batch span to an executor thread and every span the
backend opens there joins the same trace, even though the thread's
own thread-local span stack is empty.

Two propagation styles are supported by :class:`~repro.obs.Tracer`:

* **Explicit** — pass ``parent=ctx`` to ``span()``/``start_span()``.
* **Ambient** — ``with tracer.use_context(ctx):`` installs the context
  as the thread's fallback parent; spans opened with no explicit
  parent and an empty stack attach to it instead of becoming roots.
  This is what carries a frontend batch across its executor hop into
  the service or cluster backend without threading a parent argument
  through every backend signature.

Contexts serialize to/from plain dicts (:meth:`TraceContext.to_dict`),
so they can cross process boundaries in JSON if a future frontend
needs them to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["TraceContext"]


@dataclass(frozen=True)
class TraceContext:
    """An immutable (trace_id, span_id) pair usable as a span parent."""

    trace_id: int
    span_id: int

    @classmethod
    def of(cls, span) -> Optional["TraceContext"]:
        """The context of a span-like object, or ``None`` for null spans.

        Accepts anything with ``trace_id``/``span_id`` attributes; the
        null tracer's shared no-op span context has neither, so code
        can capture a context unconditionally and get ``None`` when
        tracing is off.
        """
        trace_id = getattr(span, "trace_id", None)
        span_id = getattr(span, "span_id", None)
        if trace_id is None or span_id is None:
            return None
        return cls(trace_id=int(trace_id), span_id=int(span_id))

    def to_dict(self) -> Dict[str, int]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "TraceContext":
        return cls(
            trace_id=int(data["trace_id"]), span_id=int(data["span_id"])
        )
