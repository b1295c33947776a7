"""GCL audit: independent verification of gate programs against a schedule.

:func:`repro.core.schedule.validate` checks the *slot table*;
this module checks the *gate programs* synthesized from it, closing the
loop before a configuration reaches switches:

1. every deterministic slot occurrence is covered by a window of the
   stream's queue, owned by that stream (or by its ECT name for PERIOD
   proxies);
2. the EP queue honors the mode's policy: closed inside non-shared TCT
   windows (all modes); in ``etsn-strict`` it covers every probabilistic
   slot; in ``period`` it opens only inside proxy windows;
3. the best-effort gate never opens inside any TCT window;
4. windows never exceed the cycle and (per queue) never overlap —
   re-checked here even though construction enforces it.

Checks 1–3 hold over the whole of every slot occurrence, not at sample
instants: each occurrence is one walk over its queue's sorted windows,
and an error names the first offending instant.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Optional, Tuple

from repro.core.gcl import Gate, NetworkGcl, _cyclic_occurrences
from repro.core.schedule import NetworkSchedule
from repro.model.stream import Priorities, StreamType

_NEVER_OPEN: Gate = ([], [], [])


class GclAuditError(AssertionError):
    """A gate program contradicts the schedule it was built from."""


def audit_gcl(
    schedule: NetworkSchedule,
    gcl: NetworkGcl,
    ect_proxies: Optional[Dict[str, str]] = None,
) -> None:
    """Raise :class:`GclAuditError` on the first inconsistency."""
    proxies = ect_proxies or schedule.meta.get("ect_proxies", {}) or {}
    streams = {s.name: s for s in schedule.streams}
    cycle = gcl.cycle_ns
    strict = gcl.mode == "etsn-strict"

    gates = _audit_structure(gcl)
    for (name, link_key), slots in schedule.slots.items():
        stream = streams[name]
        if stream.type == StreamType.PROB and not strict:
            continue
        port = gates[link_key]
        pieces = [
            (slot, start, end)
            for slot in slots
            for start, end in _cyclic_occurrences(
                slot.offset_ns, slot.duration_ns, slot.period_ns, cycle
            )
        ]
        if stream.type == StreamType.PROB:
            _require_covered(port, link_key, pieces, Priorities.EP, None)
            continue
        if name in proxies:
            _require_covered(port, link_key, pieces, Priorities.EP, proxies[name])
            continue
        _require_covered(port, link_key, pieces, stream.priority, name)
        if not stream.share:
            _require_closed(port, link_key, pieces, Priorities.EP,
                            "EP gate open at {} inside non-shared slot of")
        _require_closed(port, link_key, pieces, Priorities.BE,
                        "BE gate open at {} inside TCT slot of")


def _audit_structure(gcl: NetworkGcl) -> Dict[Tuple[str, str], Dict[int, Gate]]:
    """Check invariant 4 and return every queue's windows as sorted
    parallel lists, built here from ``windows`` rather than taken from
    the program's own index."""
    gates: Dict[Tuple[str, str], Dict[int, Gate]] = {}
    for link_key, port in gcl.ports.items():
        queues = gates[link_key] = {}
        for queue, windows in port.windows.items():
            ordered = sorted(windows, key=lambda w: w.start_ns)
            for window in ordered:
                if window.end_ns > port.cycle_ns:
                    raise GclAuditError(
                        f"{link_key} q{queue}: window past the cycle end"
                    )
            for a, b in zip(ordered, ordered[1:]):
                if a.end_ns > b.start_ns:
                    raise GclAuditError(
                        f"{link_key} q{queue}: overlapping windows "
                        f"[{a.start_ns},{a.end_ns}) / [{b.start_ns},{b.end_ns})"
                    )
            queues[queue] = (
                [w.start_ns for w in ordered],
                [w.end_ns for w in ordered],
                [w.owner for w in ordered],
            )
    return gates


def _require_covered(port, link_key, pieces, queue, owner) -> None:
    """Every instant of every piece lies in an open window of ``queue``
    owned by ``owner`` (or by nobody); ``owner=None`` accepts any."""
    starts, ends, owners = port.get(queue, _NEVER_OPEN)
    last = len(starts) - 1
    for slot, start, end in pieces:
        # the window holding ``start``, if any, then its successors
        index = bisect_right(starts, start) - 1
        at = start
        while at < end:
            if index < 0 or index > last or starts[index] > at or ends[index] <= at:
                raise GclAuditError(
                    f"{slot.stream}[{slot.index}] on {link_key}: queue "
                    f"{queue} gate closed at {at} inside its slot"
                )
            window_owner = owners[index]
            if owner is not None and window_owner not in (owner, None):
                raise GclAuditError(
                    f"{slot.stream}[{slot.index}] on {link_key}: window at "
                    f"{at} owned by {window_owner!r}, expected {owner!r}"
                )
            at = ends[index]
            index += 1


def _require_closed(port, link_key, pieces, queue, message: str) -> None:
    """No window of ``queue`` intersects any piece."""
    starts, ends, _ = port.get(queue, _NEVER_OPEN)
    for slot, start, end in pieces:
        index = bisect_right(starts, start) - 1
        if index >= 0 and ends[index] > start:
            opened = start
        elif index + 1 < len(starts) and starts[index + 1] < end:
            opened = starts[index + 1]
        else:
            continue
        raise GclAuditError(
            f"{message.format(opened)} {slot.stream} on {link_key}"
        )
