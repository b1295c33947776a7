"""``repro frontend serve`` — the network surface.

``frontend serve`` hosts an :class:`~repro.frontend.server.Frontend`
over a single admission service (``--state``/``--topology``) or a
sharded cluster (``--cluster --shards N``), announces the bound
address as one JSON line on stdout (so scripts can use ``--port 0``),
and drains gracefully on SIGTERM/SIGINT.
"""

from __future__ import annotations

import asyncio
import json
import sys

__all__ = ["add_frontend_parser", "run_frontend"]


def add_frontend_parser(subparsers) -> None:
    """Attach the ``frontend`` subcommand to the top-level CLI parser."""
    frontend = subparsers.add_parser(
        "frontend",
        help="async network admission frontend (repro.frontend)",
    )
    frontend_sub = frontend.add_subparsers(
        dest="frontend_command", required=True
    )
    serve = frontend_sub.add_parser(
        "serve", help="serve admission decisions over a JSONL socket"
    )
    backend_source = serve.add_mutually_exclusive_group(required=True)
    backend_source.add_argument("--state", help="initial schedule JSON")
    backend_source.add_argument(
        "--topology",
        help="topology JSON; starts from an empty schedule",
    )
    serve.add_argument("--cluster", action="store_true",
                       help="shard the topology and serve through a "
                            "ClusterCoordinator (requires --topology)")
    serve.add_argument("--shards", type=int, default=4,
                       help="number of shards with --cluster")
    serve.add_argument("--seeds", metavar="SW[,SW...]",
                       help="comma-separated seed switches with --cluster")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port; 0 picks an ephemeral port and "
                            "announces it on stdout")
    serve.add_argument("--max-queue", type=int, default=1024,
                       help="intake queue bound; a full queue answers "
                            "server_busy instead of buffering")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="requests coalesced per backend call, "
                            "per shard")
    serve.add_argument("--max-pipeline", type=int, default=1024,
                       help="per-connection pipelined responses "
                            "awaiting write before the reader pauses")
    serve.add_argument("--cache-size", type=int, default=4096,
                       help="decision cache capacity; 0 disables it")
    serve.add_argument("--drain-grace-s", type=float, default=10.0,
                       help="graceful-drain budget on shutdown")
    serve.add_argument("--backend", default="heuristic",
                       choices=("heuristic", "smt"),
                       help="backend for the full re-solve rung")
    serve.add_argument("--metrics-out", metavar="FILE",
                       help="write the frontend+backend metrics JSON "
                            "here on shutdown")
    serve.add_argument("--trace", metavar="FILE",
                       help="write admission spans here as JSON-lines")


def run_frontend(args) -> int:
    if args.frontend_command != "serve":  # pragma: no cover - argparse
        raise SystemExit(f"unknown frontend command {args.frontend_command}")
    return _run_frontend_serve(args)


def _run_frontend_serve(args) -> int:
    from repro.cli import _load_schedule, _make_tracer
    from repro.frontend.server import (
        ClusterBackend,
        Frontend,
        FrontendConfig,
        ServiceBackend,
        serve_until_stopped,
    )
    from repro.serialization import topology_from_dict
    from repro.service import (
        AdmissionService,
        ScheduleStore,
        ServiceConfig,
        empty_schedule,
    )

    tracer = _make_tracer(args.trace)
    config = ServiceConfig(backend=args.backend)
    if args.cluster:
        if not args.topology:
            print("error: --cluster requires --topology", file=sys.stderr)
            return 2
        from repro.cluster import ClusterCoordinator, partition_topology

        with open(args.topology) as handle:
            topology = topology_from_dict(json.load(handle))
        seeds = args.seeds.split(",") if args.seeds else None
        backend = ClusterBackend(ClusterCoordinator(
            partition=partition_topology(topology, args.shards, seeds=seeds),
            config=config,
            tracer=tracer,
        ))
    else:
        if args.state:
            schedule = _load_schedule(args.state)
        else:
            with open(args.topology) as handle:
                schedule = empty_schedule(topology_from_dict(json.load(handle)))
        service = AdmissionService(
            ScheduleStore(schedule), config=config, tracer=tracer
        )
        backend = ServiceBackend(service)

    frontend = Frontend(
        backend,
        config=FrontendConfig(
            host=args.host,
            port=args.port,
            max_queue=args.max_queue,
            max_batch=args.max_batch,
            max_pipeline=args.max_pipeline,
            cache_size=args.cache_size,
            drain_grace_s=args.drain_grace_s,
        ),
        tracer=tracer,
    )

    def announce(started: Frontend) -> None:
        host, port = started.address
        print(json.dumps({"frontend": {
            "host": host, "port": port, "backend": backend.kind,
        }}), flush=True)

    try:
        asyncio.run(serve_until_stopped(frontend, on_started=announce))
    except KeyboardInterrupt:  # pragma: no cover - signal path races
        pass
    if args.metrics_out:
        payload = frontend.metrics.to_dict()
        backend_metrics = backend.metrics.to_dict()
        payload["backend"] = backend_metrics
        with open(args.metrics_out, "w") as handle:
            json.dump(payload, handle)
    if args.trace:
        from repro.cli import _dump_trace

        _dump_trace(args.trace, tracer)
    return 0

