"""Canonical stream shapes: name-independent admission-request identity.

Industrial request mixes are dominated by a small set of recurring
stream *profiles* — the same route, period, deadline, and traffic class
showing up under ever-fresh stream names (TAS-survey observation; see
ISSUE/DESIGN).  Whether two requests are "the same shape" therefore
must ignore the name, and every layer that exploits shape identity —
the analytic fast path's screening arguments, the network frontend's
decision cache — has to agree on what a shape *is*, or a cached verdict
could be replayed for a request the solver would decide differently.

:func:`canonical_shape` is that single definition.  It returns a plain
hashable tuple (usable directly as a dict key on hot paths);
:func:`shape_digest` derives a short stable hex digest for logs,
span attributes and cross-process keys.

Identity rules:

* **Admits** hash the traffic class, the route, the period (TCT) or
  minimum inter-event time (ECT), the end-to-end budget, the frame
  length, and the class parameters (priority/share for TCT,
  possibilities/via for ECT) — never the stream name.  A TCT budget of
  ``None`` normalizes to the period, exactly as
  :meth:`~repro.model.stream.TctRequirement.resolve` does, so implicit
  and explicit implicit-deadline requests share a shape.
* **Routes** are the resolved link path (the ``(src, dst)`` hop
  sequence) when a ``topology`` is given.
  Without one, the (source, destination) endpoints stand in — which is
  equivalent *for a fixed topology*, because routing is deterministic:
  shortest-path over the same graph always yields the same path.  A
  shape consumer that keys across topology changes (the frontend cache)
  must therefore pair the shape with a topology/store epoch.
* **Removes** hash the stream name: the name *is* the operation's
  identity (there is nothing shape-like about a retirement).
"""

from __future__ import annotations

import hashlib
from typing import Optional, Tuple

from repro.service.requests import (
    AdmissionRequest,
    AdmitEct,
    AdmitTct,
    Remove,
)

__all__ = ["canonical_shape", "shape_digest"]


def canonical_shape(
    request: AdmissionRequest, topology=None
) -> Tuple:
    """The name-independent identity tuple of one admission request.

    With ``topology`` the route is resolved to its node path; without
    one the endpoints stand in (equivalent under a fixed topology, see
    the module docstring).  Raises the routing layer's error for an
    unroutable request when resolving, and :class:`TypeError` for a
    non-request.
    """
    if isinstance(request, AdmitTct):
        req = request.requirement
        if topology is not None:
            route = ("route",) + tuple(
                link.key
                for link in topology.shortest_path(req.source, req.destination)
            )
        else:
            route = ("endpoints", req.source, req.destination)
        e2e = req.e2e_ns if req.e2e_ns is not None else req.period_ns
        return (
            "admit-tct", route, req.period_ns, e2e,
            req.length_bytes, req.priority, req.share,
        )
    if isinstance(request, AdmitEct):
        ect = request.ect
        if topology is not None:
            route = ("route",) + tuple(
                link.key for link in ect.route(topology)
            )
        else:
            route = ("endpoints", ect.source, ect.destination)
        return (
            "admit-ect", route, ect.min_interevent_ns, ect.e2e_ns,
            ect.length_bytes, ect.possibilities, ect.via,
        )
    if isinstance(request, Remove):
        return ("remove", request.name)
    raise TypeError(f"not an admission request: {request!r}")


def shape_digest(
    request: AdmissionRequest, topology=None, length: int = 16
) -> str:
    """A short stable hex digest of :func:`canonical_shape`.

    The tuple repr is deterministic (strings, ints, bools, ``None``
    only), so the digest is stable across processes and sessions —
    usable in span attributes and cross-process cache keys.
    """
    shape = canonical_shape(request, topology=topology)
    return hashlib.sha256(repr(shape).encode("utf-8")).hexdigest()[:length]
