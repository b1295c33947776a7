"""Gate Control List synthesis (802.1Qbv) from a network schedule.

Turns the slot table of a :class:`repro.core.schedule.NetworkSchedule`
into per-egress-port GCLs the simulator (or a Qbv switch) executes.  A
GCL here is, per queue, a sorted list of open windows over one cycle
(the hyperperiod).  Windows carry an *owner* stream: a window owned by
stream ``s`` transmits only ``s``'s frames from its queue — the flow-
isolation discipline classic Qbv synthesis needs anyway so FIFO order
inside a queue cannot hand one stream's window to another stream.

Four synthesis modes mirror the paper's compared methods:

``etsn``
    TCT windows as scheduled.  The ECT queue (EP) opens everywhere
    except inside non-shared TCT windows — prioritized slot sharing: an
    event transmits immediately in shared slots and idle time, and
    prudent reservation's extra windows absorb the displaced TCT frames.
``etsn-strict``
    EP opens only inside the *scheduled* ECT slots (probabilistic slots
    plus shared TCT windows).  This is the literal reservation the
    worst-case analysis proves; ``etsn`` is its run-time superset.
``period``
    The PERIOD baseline: EP opens only in the dedicated windows of the
    ECT-as-TCT proxy streams.
``avb``
    The AVB baseline (802.1Qav): EP opens only in time left unallocated
    by every TCT window, subject to the credit-based shaper at run time.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.schedule import NetworkSchedule
from repro.model.stream import Priorities, StreamType

GCL_MODES = ("etsn", "etsn-strict", "period", "avb")


@dataclass(frozen=True)
class GateWindow:
    """One open interval ``[start, end)`` of a queue's gate, in-cycle."""

    start_ns: int
    end_ns: int
    owner: Optional[str] = None  #: stream allowed to use it; None = any

    def __post_init__(self) -> None:
        if not 0 <= self.start_ns < self.end_ns:
            raise ValueError(f"bad gate window [{self.start_ns},{self.end_ns})")

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


#: One open interval as ``(start, end, owner)``.
Window = Tuple[int, int, Optional[str]]
#: One queue's finalized gate program as parallel lists: window starts,
#: window ends and window owners, sorted by start.
Gate = Tuple[List[int], List[int], List[Optional[str]]]


@dataclass
class PortGcl:
    """The gate program of one egress port."""

    link: Tuple[str, str]
    cycle_ns: int
    windows: Dict[int, List[GateWindow]] = field(default_factory=dict)
    _gates: Dict[int, Gate] = field(default_factory=dict, repr=False)

    def add_window(self, queue: int, window: GateWindow) -> None:
        if not 0 <= queue <= 7:
            raise ValueError(f"queue must be 0..7, got {queue}")
        if window.end_ns > self.cycle_ns:
            raise ValueError(
                f"window [{window.start_ns},{window.end_ns}) exceeds cycle "
                f"{self.cycle_ns}"
            )
        self.windows.setdefault(queue, []).append(window)
        self._gates.pop(queue, None)

    def finalize(self) -> None:
        """Sort, coalesce, and index the windows; call after building.

        Adjacent windows with the same owner merge: a hardware gate that
        stays open across two equal GCL entries is one open interval, so
        a frame may span the internal boundary (no phantom guard band).
        """
        for queue, wins in self.windows.items():
            self._load(queue, [(w.start_ns, w.end_ns, w.owner) for w in wins])

    def _load(self, queue: int, pieces: List[Window]) -> None:
        """Sort, check, coalesce and index ``pieces`` as the whole
        program of ``queue``."""
        pieces.sort(key=itemgetter(0))
        starts: List[int] = []
        ends: List[int] = []
        owners: List[Optional[str]] = []
        last_start = last_end = -1
        for start, end, owner in pieces:
            if end > self.cycle_ns:
                raise ValueError(
                    f"window [{start},{end}) exceeds cycle {self.cycle_ns}"
                )
            if start < last_end:
                raise ValueError(
                    f"queue {queue} on {self.link}: windows "
                    f"[{last_start},{last_end}) and [{start},{end}) overlap"
                )
            if start == last_end and owners[-1] == owner:
                ends[-1] = end
            else:
                starts.append(start)
                ends.append(end)
                owners.append(owner)
            last_start, last_end = start, end
        self.windows[queue] = [
            GateWindow(start, end, owner=owner)
            for start, end, owner in zip(starts, ends, owners)
        ]
        self._gates[queue] = (starts, ends, owners)

    # ------------------------------------------------------------------
    # runtime queries (local-clock nanoseconds)
    # ------------------------------------------------------------------
    def gate(self, queue: int) -> Optional[Gate]:
        """The finalized program of ``queue``, or ``None`` if it never
        opens; finalizes first if windows were added since."""
        wins = self.windows.get(queue)
        if not wins:
            return None
        gate = self._gates.get(queue)
        if gate is None or len(gate[0]) != len(wins):
            self.finalize()
            gate = self._gates[queue]
        return gate

    def state_at(self, queue: int, local_ns: int) -> Tuple[bool, Optional[str], int]:
        """Gate state of ``queue`` at a local time.

        Returns ``(open, owner, boundary_local_ns)`` where the boundary is
        the absolute local time the state next changes (window end if
        open, next window start if closed; never in the past).
        """
        gate = self.gate(queue)
        if gate is None:
            return (False, None, local_ns + self.cycle_ns)
        starts, ends, owners = gate
        tau = local_ns % self.cycle_ns
        base = local_ns - tau
        idx = bisect_right(starts, tau) - 1
        if idx >= 0 and tau < ends[idx]:
            return (True, owners[idx], base + ends[idx])
        nxt = idx + 1
        if nxt < len(starts):
            return (False, None, base + starts[nxt])
        return (False, None, base + self.cycle_ns + starts[0])

    def is_always_closed(self, queue: int) -> bool:
        return not self.windows.get(queue)


@dataclass
class NetworkGcl:
    """All port GCLs of one network, plus synthesis metadata."""

    mode: str
    cycle_ns: int
    ports: Dict[Tuple[str, str], PortGcl]

    def port(self, link_key: Tuple[str, str]) -> PortGcl:
        return self.ports[link_key]


# ----------------------------------------------------------------------
# interval helpers
# ----------------------------------------------------------------------
def merge_intervals(intervals: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Union of half-open intervals."""
    merged: List[Tuple[int, int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def complement_intervals(
    intervals: Sequence[Tuple[int, int]], cycle_ns: int
) -> List[Tuple[int, int]]:
    """Gaps of a merged interval set within ``[0, cycle)``."""
    gaps: List[Tuple[int, int]] = []
    cursor = 0
    for start, end in merge_intervals(intervals):
        if start > cursor:
            gaps.append((cursor, start))
        cursor = max(cursor, end)
    if cursor < cycle_ns:
        gaps.append((cursor, cycle_ns))
    return gaps


def _cyclic_occurrences(
    offset_ns: int, duration_ns: int, period_ns: int, cycle_ns: int
) -> List[Tuple[int, int]]:
    """In-cycle intervals of a periodic slot, split at the cycle edge."""
    if cycle_ns % period_ns != 0:
        raise ValueError(
            f"slot period {period_ns} does not divide GCL cycle {cycle_ns}"
        )
    result: List[Tuple[int, int]] = []
    for k in range(cycle_ns // period_ns):
        start = (offset_ns + k * period_ns) % cycle_ns
        end = start + duration_ns
        if end <= cycle_ns:
            result.append((start, end))
        else:
            result.append((start, cycle_ns))
            result.append((0, end - cycle_ns))
    return result


def _slot_pieces(slots, cycle_ns: int) -> List[Tuple[int, int]]:
    """In-cycle intervals of every slot of one slot list."""
    pieces: List[Tuple[int, int]] = []
    for slot in slots:
        pieces.extend(_cyclic_occurrences(
            slot.offset_ns, slot.duration_ns, slot.period_ns, cycle_ns
        ))
    return pieces


# ----------------------------------------------------------------------
# synthesis
# ----------------------------------------------------------------------
def build_gcl(
    schedule: NetworkSchedule,
    mode: str = "etsn",
    ect_proxies: Optional[Dict[str, str]] = None,
) -> NetworkGcl:
    """Synthesize all port GCLs from a schedule.

    ect_proxies
        PERIOD baseline only: maps the name of each ECT-as-TCT proxy
        stream to its real ECT stream name; the proxy's windows move to
        the EP queue under the real name.
    """
    if mode not in GCL_MODES:
        raise ValueError(f"unknown GCL mode {mode!r}; expected one of {GCL_MODES}")
    proxies = ect_proxies or {}
    cycle = schedule.hyperperiod_ns
    streams = {s.name: s for s in schedule.streams}

    # (start, end, owner) pieces per port and queue, in first-use order
    programs: Dict[Tuple[str, str], Dict[int, List[Window]]] = {}
    tct_busy: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
    nonshared_busy: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
    ect_windows: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}

    for (stream_name, link_key), slots in schedule.slots.items():
        stream = streams[stream_name]
        queues = programs.setdefault(link_key, {})
        if stream.type == StreamType.PROB:
            # Probabilistic slots become EP reservations only in the
            # strict mode; in plain etsn the EP complement covers them.
            if mode == "etsn-strict":
                ect_windows.setdefault(link_key, []).extend(
                    _slot_pieces(slots, cycle)
                )
            continue
        pieces = _slot_pieces(slots, cycle)
        proxy = proxies.get(stream_name)
        if proxy is not None:
            queue, owner = Priorities.EP, proxy
        else:
            queue, owner = stream.priority, stream_name
        queues.setdefault(queue, []).extend(
            [(start, end, owner) for start, end in pieces]
        )
        tct_busy.setdefault(link_key, []).extend(pieces)
        if proxy is not None:
            continue
        if not stream.share:
            nonshared_busy.setdefault(link_key, []).extend(pieces)
        elif mode == "etsn-strict":
            # Shared TCT windows double as EP windows (slot sharing).
            ect_windows.setdefault(link_key, []).extend(pieces)

    # Ports on the paths of ECT streams but without any scheduled DET
    # stream still need EP/BE programs.
    for ect in schedule.ect_streams:
        for link in ect.route(schedule.topology):
            programs.setdefault(link.key, {})

    ports: Dict[Tuple[str, str], PortGcl] = {}
    for link_key, queues in programs.items():
        be_open = complement_intervals(tct_busy.get(link_key, []), cycle)
        if mode == "etsn":
            ep_open = complement_intervals(nonshared_busy.get(link_key, []), cycle)
        elif mode == "etsn-strict":
            ep_open = merge_intervals(ect_windows.get(link_key, []))
        elif mode == "avb":
            ep_open = be_open
        else:  # period: EP windows were added per proxy slot above
            ep_open = []
        for queue, gaps in ((Priorities.EP, ep_open), (Priorities.BE, be_open)):
            if gaps:
                queues.setdefault(queue, []).extend(
                    [(start, end, None) for start, end in gaps]
                )
        port = ports[link_key] = PortGcl(link=link_key, cycle_ns=cycle)
        for queue, pieces in queues.items():
            port._load(queue, pieces)

    return NetworkGcl(mode=mode, cycle_ns=cycle, ports=ports)
