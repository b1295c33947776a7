"""JSON persistence for topologies, schedules, and gate programs.

A real CNC stores its computed configuration and reloads it across
restarts; research workflows want to schedule once and simulate many
times.  Everything round-trips through plain JSON-able dicts:

* :func:`topology_to_dict` / :func:`topology_from_dict`
* :func:`schedule_to_dict` / :func:`schedule_from_dict`
* :func:`gcl_to_dict` / :func:`gcl_from_dict`

``schedule_from_dict`` re-validates the loaded schedule, so a tampered
or stale file cannot smuggle an invalid configuration into a network.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.core.gcl import GateWindow, NetworkGcl, PortGcl
from repro.core.schedule import NetworkSchedule, validate
from repro.model.frame import FrameSlot
from repro.model.stream import EctStream, Stream
from repro.model.topology import Topology

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------
def topology_to_dict(topology: Topology) -> Dict:
    """JSON-able description of a topology (nodes + duplex links)."""
    seen = set()
    links = []
    for link in topology.links:
        pair = frozenset(link.key)
        if pair in seen:
            continue
        seen.add(pair)
        links.append({
            "a": link.src,
            "b": link.dst,
            "bandwidth_bps": link.bandwidth_bps,
            "propagation_ns": link.propagation_ns,
            "time_unit_ns": link.time_unit_ns,
        })
    return {
        "version": FORMAT_VERSION,
        "switches": [n.name for n in topology.switches],
        "devices": [n.name for n in topology.devices],
        "links": links,
    }


def topology_from_dict(data: Dict) -> Topology:
    """Rebuild a topology from :func:`topology_to_dict` output."""
    _check_version(data)
    topology = Topology()
    for name in data["switches"]:
        topology.add_switch(name)
    for name in data["devices"]:
        topology.add_device(name)
    for link in data["links"]:
        topology.add_link(
            link["a"], link["b"],
            bandwidth_bps=link["bandwidth_bps"],
            propagation_ns=link["propagation_ns"],
            time_unit_ns=link["time_unit_ns"],
        )
    return topology


# ----------------------------------------------------------------------
# streams
# ----------------------------------------------------------------------
def _stream_to_dict(stream: Stream) -> Dict:
    return {
        "name": stream.name,
        "path": [stream.path[0].src] + [l.dst for l in stream.path],
        "e2e_ns": stream.e2e_ns,
        "priority": stream.priority,
        "length_bytes": stream.length_bytes,
        "period_ns": stream.period_ns,
        "type": stream.type,
        "share": stream.share,
        "occurrence_ns": stream.occurrence_ns,
        "parent": stream.parent,
    }


def _stream_from_dict(data: Dict, topology: Topology) -> Stream:
    nodes = data["path"]
    path = tuple(topology.link(a, b) for a, b in zip(nodes, nodes[1:]))
    return Stream(
        name=data["name"],
        path=path,
        e2e_ns=data["e2e_ns"],
        priority=data["priority"],
        length_bytes=data["length_bytes"],
        period_ns=data["period_ns"],
        type=data["type"],
        share=data["share"],
        occurrence_ns=data["occurrence_ns"],
        parent=data["parent"],
    )


def _ect_to_dict(ect: EctStream) -> Dict:
    return {
        "name": ect.name,
        "source": ect.source,
        "destination": ect.destination,
        "min_interevent_ns": ect.min_interevent_ns,
        "length_bytes": ect.length_bytes,
        "e2e_ns": ect.e2e_ns,
        "possibilities": ect.possibilities,
        "via": list(ect.via) if ect.via else None,
    }


def _ect_from_dict(data: Dict) -> EctStream:
    return EctStream(
        name=data["name"],
        source=data["source"],
        destination=data["destination"],
        min_interevent_ns=data["min_interevent_ns"],
        length_bytes=data["length_bytes"],
        e2e_ns=data["e2e_ns"],
        possibilities=data["possibilities"],
        via=tuple(data["via"]) if data.get("via") else None,
    )


# ----------------------------------------------------------------------
# schedule
# ----------------------------------------------------------------------
def schedule_to_dict(schedule: NetworkSchedule) -> Dict:
    """JSON-able description of a schedule (topology, streams, slots)."""
    slots = []
    for (stream, link_key), frames in sorted(schedule.slots.items()):
        slots.append({
            "stream": stream,
            "link": list(link_key),
            "frames": [
                {
                    "index": f.index,
                    "offset_ns": f.offset_ns,
                    "period_ns": f.period_ns,
                    "duration_ns": f.duration_ns,
                    "extra": f.extra,
                }
                for f in frames
            ],
        })
    return {
        "version": FORMAT_VERSION,
        "topology": topology_to_dict(schedule.topology),
        "streams": [_stream_to_dict(s) for s in schedule.streams],
        "ect_streams": [_ect_to_dict(e) for e in schedule.ect_streams],
        "slots": slots,
        "meta": _jsonable_meta(schedule.meta),
    }


def _jsonable_meta(meta: Dict) -> Dict:
    out = {}
    for key, value in meta.items():
        try:
            json.dumps(value)
        except TypeError:
            value = str(value)
        out[key] = value
    return out


def schedule_from_dict(data: Dict, revalidate: bool = True) -> NetworkSchedule:
    """Rebuild a schedule from :func:`schedule_to_dict` output.

    Re-validates by default so a tampered or stale file cannot smuggle
    an invalid configuration into a network.
    """
    _check_version(data)
    topology = topology_from_dict(data["topology"])
    streams = [_stream_from_dict(s, topology) for s in data["streams"]]
    ects = [_ect_from_dict(e) for e in data["ect_streams"]]
    slots: Dict[Tuple[str, Tuple[str, str]], List[FrameSlot]] = {}
    for entry in data["slots"]:
        key = (entry["stream"], tuple(entry["link"]))
        slots[key] = [
            FrameSlot(
                stream=entry["stream"],
                link=key[1],
                index=f["index"],
                offset_ns=f["offset_ns"],
                period_ns=f["period_ns"],
                duration_ns=f["duration_ns"],
                extra=f["extra"],
            )
            for f in entry["frames"]
        ]
    schedule = NetworkSchedule(
        topology=topology,
        streams=streams,
        slots=slots,
        ect_streams=ects,
        meta=dict(data.get("meta", {})),
    )
    if revalidate:
        validate(schedule)
    return schedule


# ----------------------------------------------------------------------
# GCL
# ----------------------------------------------------------------------
def gcl_to_dict(gcl: NetworkGcl) -> Dict:
    """JSON-able description of all port gate programs."""
    ports = []
    for link_key, port in sorted(gcl.ports.items()):
        ports.append({
            "link": list(link_key),
            "windows": {
                str(queue): [
                    {"start_ns": w.start_ns, "end_ns": w.end_ns, "owner": w.owner}
                    for w in windows
                ]
                for queue, windows in sorted(port.windows.items())
            },
        })
    return {
        "version": FORMAT_VERSION,
        "mode": gcl.mode,
        "cycle_ns": gcl.cycle_ns,
        "ports": ports,
    }


def gcl_from_dict(data: Dict) -> NetworkGcl:
    """Rebuild gate programs from :func:`gcl_to_dict` output."""
    _check_version(data)
    ports: Dict[Tuple[str, str], PortGcl] = {}
    for entry in data["ports"]:
        link_key = tuple(entry["link"])
        port = PortGcl(link=link_key, cycle_ns=data["cycle_ns"])
        for queue, windows in entry["windows"].items():
            for w in windows:
                port.add_window(
                    int(queue),
                    GateWindow(w["start_ns"], w["end_ns"], owner=w["owner"]),
                )
        port.finalize()
        ports[link_key] = port
    return NetworkGcl(mode=data["mode"], cycle_ns=data["cycle_ns"], ports=ports)


# ----------------------------------------------------------------------
# admission decisions + service metrics
# ----------------------------------------------------------------------
def decision_to_dict(decision) -> Dict:
    """JSON-able record of one admission decision.

    The wire format ``repro serve``/``repro admit`` print, and what an
    operator's audit log stores per request.
    """
    return {
        "version": FORMAT_VERSION,
        "request_id": decision.request_id,
        "op": decision.op,
        "stream": decision.stream,
        "accepted": decision.accepted,
        "rung": decision.rung,
        "reason": decision.reason,
        "latency_ms": decision.latency_ms,
        "store_version": decision.store_version,
        "batch_id": decision.batch_id,
        "batch_size": decision.batch_size,
        "attempts": dict(decision.attempts),
    }


def metrics_to_dict(registry) -> Dict:
    """Versioned JSON-able export of a service metrics registry."""
    data = registry.to_dict()
    data["version"] = FORMAT_VERSION
    return data


# ----------------------------------------------------------------------
# trace spans (JSON-lines)
# ----------------------------------------------------------------------
def span_to_dict(span) -> Dict:
    """JSON-able record of one trace span (one JSONL line)."""
    return {
        "version": FORMAT_VERSION,
        "name": span.name,
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "start_ns": span.start_ns,
        "end_ns": span.end_ns,
        "attributes": dict(span.attributes),
    }


def span_from_dict(data: Dict):
    """Rebuild a span from :func:`span_to_dict` output."""
    from repro.obs.trace import Span

    _check_version(data)
    return Span(
        name=data["name"],
        trace_id=data["trace_id"],
        span_id=data["span_id"],
        parent_id=data.get("parent_id"),
        start_ns=data["start_ns"],
        end_ns=data.get("end_ns"),
        attributes=dict(data.get("attributes", {})),
    )


def save_trace(path: str, spans) -> None:
    """Persist spans as JSON-lines: one span per line, oldest first."""
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span_to_dict(span)))
            handle.write("\n")


def load_trace(path: str) -> List:
    """Load a JSONL trace written by :func:`save_trace`.

    Blank lines are tolerated (trailing newline, hand-edited files); a
    malformed line raises :class:`ValueError` naming the line number.
    """
    spans = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(span_from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise ValueError(f"trace line {lineno}: {exc}") from None
    return spans


# ----------------------------------------------------------------------
# file helpers
# ----------------------------------------------------------------------
def save_deployment(path: str, schedule: NetworkSchedule, gcl: NetworkGcl) -> None:
    """Persist schedule + GCL to one JSON file."""
    with open(path, "w") as handle:
        json.dump(
            {"schedule": schedule_to_dict(schedule), "gcl": gcl_to_dict(gcl)},
            handle,
        )


def load_deployment(path: str) -> Tuple[NetworkSchedule, NetworkGcl]:
    """Load and re-validate a persisted deployment."""
    with open(path) as handle:
        data = json.load(handle)
    return schedule_from_dict(data["schedule"]), gcl_from_dict(data["gcl"])


def _check_version(data: Dict) -> None:
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version {version!r}; this build reads "
            f"version {FORMAT_VERSION}"
        )
