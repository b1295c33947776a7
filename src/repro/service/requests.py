"""Admission request and decision types.

Requests mirror what a CUC forwards to the CNC at run time (paper
Fig. 5, Sec. VII-C): a new time-triggered stream requirement, a new
event-triggered stream descriptor, or a retirement.  Decisions are the
structured accept/reject verdicts the service returns — admission
control never answers with an exception, and a rejection carries the
reason plus the fallback rung that last tried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.model.stream import EctStream, Priorities, TctRequirement


@dataclass(frozen=True)
class AdmitTct:
    """Admit one time-triggered critical stream."""

    requirement: TctRequirement

    @property
    def op(self) -> str:
        return "admit-tct"

    @property
    def stream_name(self) -> str:
        return self.requirement.name


@dataclass(frozen=True)
class AdmitEct:
    """Admit one event-triggered critical stream."""

    ect: EctStream

    @property
    def op(self) -> str:
        return "admit-ect"

    @property
    def stream_name(self) -> str:
        return self.ect.name


@dataclass(frozen=True)
class Remove:
    """Retire one stream (TCT by name, or an ECT with its possibilities)."""

    name: str

    @property
    def op(self) -> str:
        return "remove"

    @property
    def stream_name(self) -> str:
        return self.name


AdmissionRequest = Union[AdmitTct, AdmitEct, Remove]


@dataclass(frozen=True)
class Decision:
    """The structured outcome of one admission request.

    rung
        Ladder rung that produced the committed schedule
        (``fastpath`` / ``full`` / ``heuristic``), or ``None`` for a
        rejection.
    store_version
        Store version the accepting batch published (``None`` when
        rejected).
    attempts
        Per-rung failure detail accumulated while climbing the ladder;
        empty for requests rejected before any solve ran.
    """

    request_id: int
    op: str
    stream: str
    accepted: bool
    rung: Optional[str] = None
    reason: Optional[str] = None
    latency_ms: float = 0.0
    store_version: Optional[int] = None
    batch_id: int = 0
    batch_size: int = 1
    attempts: Dict[str, str] = field(default_factory=dict)


def request_from_dict(data: Dict) -> AdmissionRequest:
    """Build a request from a JSON-able dict (the ``repro serve`` wire
    format).  Raises :class:`ValueError` on an unknown or malformed op.
    """
    op = data.get("op")
    try:
        return _request_from_dict(op, data)
    except KeyError as exc:
        raise ValueError(
            f"{op!r} request missing required field {exc.args[0]!r}"
        ) from None


def _request_from_dict(op, data: Dict) -> AdmissionRequest:
    if op == "admit-tct":
        share = bool(data.get("share", False))
        default_priority = Priorities.SH_PL if share else Priorities.NSH_PH
        return AdmitTct(TctRequirement(
            name=data["name"],
            source=data["source"],
            destination=data["destination"],
            period_ns=int(data["period_ns"]),
            length_bytes=int(data["length_bytes"]),
            e2e_ns=int(data["e2e_ns"]) if data.get("e2e_ns") else None,
            priority=int(data.get("priority", default_priority)),
            share=share,
        ))
    if op == "admit-ect":
        return AdmitEct(EctStream(
            name=data["name"],
            source=data["source"],
            destination=data["destination"],
            min_interevent_ns=int(data["min_interevent_ns"]),
            length_bytes=int(data["length_bytes"]),
            e2e_ns=int(data["e2e_ns"]) if data.get("e2e_ns") else None,
            possibilities=int(data.get("possibilities", 4)),
        ))
    if op == "remove":
        return Remove(name=data["name"])
    raise ValueError(
        f"unknown admission op {op!r}; expected one of "
        f"('admit-tct', 'admit-ect', 'remove')"
    )


def request_to_dict(request: AdmissionRequest) -> Dict:
    """Inverse of :func:`request_from_dict`."""
    if isinstance(request, AdmitTct):
        req = request.requirement
        return {
            "op": "admit-tct",
            "name": req.name,
            "source": req.source,
            "destination": req.destination,
            "period_ns": req.period_ns,
            "length_bytes": req.length_bytes,
            "e2e_ns": req.e2e_ns,
            "priority": req.priority,
            "share": req.share,
        }
    if isinstance(request, AdmitEct):
        ect = request.ect
        return {
            "op": "admit-ect",
            "name": ect.name,
            "source": ect.source,
            "destination": ect.destination,
            "min_interevent_ns": ect.min_interevent_ns,
            "length_bytes": ect.length_bytes,
            "e2e_ns": ect.e2e_ns,
            "possibilities": ect.possibilities,
        }
    if isinstance(request, Remove):
        return {"op": "remove", "name": request.name}
    raise TypeError(f"not an admission request: {request!r}")
